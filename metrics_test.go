package ollock_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ollock"
	"ollock/internal/metrics"
)

// churn runs a short mixed workload on l so the counters move.
func churn(l ollock.Lock, procs, rounds int) {
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		p := l.NewProc()
		write := i == procs-1
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if write {
					p.Lock()
					p.Unlock()
				} else {
					p.RLock()
					p.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
}

// TestWithMetricsEndToEnd drives the full pipeline through the facade:
// two locks registered on one pipeline, a workload, a manual sample,
// and a scrape through the HTTP handler. The exposition must validate
// and carry both locks under their dedup-suffixed keys.
func TestWithMetricsEndToEnd(t *testing.T) {
	m := ollock.NewMetrics(ollock.MetricsPeriod(10 * time.Millisecond))
	g, err := ollock.New(ollock.GOLL, 4, ollock.WithMetrics(m), ollock.WithStats("app"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ollock.New(ollock.FOLL, 4, ollock.WithMetrics(m), ollock.WithStats("app"))
	if err != nil {
		t.Fatal(err)
	}
	churn(g, 4, 50)
	churn(f, 4, 50)
	m.Sample()

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape content type = %q", ct)
	}
	if err := metrics.ValidateExposition(body); err != nil {
		t.Fatalf("scrape does not validate: %v\n%s", err, body)
	}
	for _, want := range []string{
		`ollock_csnzi_arrive_root_total{lock="app"}`,
		`ollock_goll_write_wait_ns_count{lock="app"}`,
		`ollock_foll_write_wait_ns_count{lock="app#2"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The same endpoint serves the JSON time series on content
	// negotiation.
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	jbody, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []struct {
			Lock string `json:"lock"`
		} `json:"series"`
	}
	if err := json.Unmarshal(jbody, &doc); err != nil {
		t.Fatalf("JSON scrape: %v\n%s", err, jbody)
	}
	if len(doc.Series) != 2 {
		t.Fatalf("JSON series count = %d, want 2", len(doc.Series))
	}
}

// TestMetricsDiagnoseHealthy: a light uncontended workload produces no
// findings under default thresholds.
func TestMetricsDiagnoseHealthy(t *testing.T) {
	m := ollock.NewMetrics()
	l, err := ollock.New(ollock.GOLL, 2, ollock.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	m.Sample()
	churn(l, 2, 20)
	if findings := m.Diagnose(0); len(findings) != 0 {
		t.Fatalf("healthy workload produced findings:\n%s", ollock.DoctorReport(findings))
	}
}

// TestMetricsBackgroundSampler: Start/Stop actually run the ticker and
// the rings accumulate points without racing the workload (this test is
// most interesting under -race).
func TestMetricsBackgroundSampler(t *testing.T) {
	m := ollock.NewMetrics(ollock.MetricsPeriod(time.Millisecond), ollock.MetricsRing(16))
	l, err := ollock.New(ollock.ROLL, 4, ollock.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	churn(l, 4, 200)
	deadline := time.Now().Add(2 * time.Second)
	for m.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	if got := m.Samples(); got < 3 {
		t.Fatalf("background sampler took %d samples, want >= 3", got)
	}
	m.Stop() // idempotent
}

// TestWithMetricsImpliesStats: WithMetrics alone instruments the lock.
func TestWithMetricsImpliesStats(t *testing.T) {
	m := ollock.NewMetrics()
	l, err := ollock.New(ollock.GOLL, 2, ollock.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ollock.SnapshotOf(l); !ok {
		t.Fatal("WithMetrics did not imply WithStats")
	}
}

// TestSamplerOverheadBounded pins the "sampling is pull-only" claim:
// a 100%-read workload with a 100ms sampler attached must cost within
// a few percent of the same workload without one. The sampler reads
// the lock's striped counters; the lock never writes anything for the
// sampler's benefit, so the only possible cost is cache traffic from
// the periodic sweep (and the sweep itself). The bound here is 10% —
// generous against noise; the typical measured cost is well under 2%.
//
// Each side runs a fixed number of operations and is charged the
// process CPU time it took, not the wall-clock time: `go test ./...`
// runs the simulator suite on the other core at the same moment, and
// an ops-per-second comparison measures which side the scheduler
// happened to preempt (it failed one tier-1 run in five on code that
// had not changed). CPU time per operation only moves if this process
// does more work per operation, sampler sweeps included. One worker
// drives the lock: with several, CPU per operation measures how often
// the scheduler happened to run them in parallel on the one contended
// root word (150-240 ns from run to run on two processors), which
// swamps anything a sampler could cost.
func TestSamplerOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped with -short")
	}
	if processCPU() == 0 {
		t.Skip("no process CPU clock on this platform")
	}
	const ops = 12_000_000 // several 100ms sampler periods per side
	cpuPerOp := func(withSampler bool) float64 {
		opts := []ollock.Option{ollock.WithStats("")}
		var m *ollock.Metrics
		if withSampler {
			m = ollock.NewMetrics(ollock.MetricsPeriod(100 * time.Millisecond))
			opts = append(opts, ollock.WithMetrics(m))
		}
		l, err := ollock.New(ollock.GOLL, 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			m.Start()
			defer m.Stop()
		}
		p := l.NewProc()
		cpu0 := processCPU()
		for n := 0; n < ops; n++ {
			p.RLock()
			p.RUnlock()
		}
		cpu := processCPU() - cpu0
		if m != nil && m.Samples() == 0 {
			t.Fatalf("the workload (%v of CPU) ended before the sampler took a sample", cpu)
		}
		return float64(cpu) / ops
	}
	// Interleave A/B pairs and compare the best run of each side: on a
	// shared host interference only ever adds CPU time to a run (cache
	// pollution, a GC cycle), so the minimum is each side's cleanest
	// look at its own cost — and a real sampler cost, paid every 100ms
	// of every run, raises the sampled side's minimum too.
	var bestWith, bestWithout float64
	for i := 0; i < 3; i++ {
		with, without := cpuPerOp(true), cpuPerOp(false)
		t.Logf("pair %d: CPU ns/op with sampler %.1f, without %.1f", i, with, without)
		if i == 0 || with < bestWith {
			bestWith = with
		}
		if i == 0 || without < bestWithout {
			bestWithout = without
		}
	}
	if bestWithout < 0.90*bestWith {
		t.Fatalf("100ms sampler cost the read path %.1f%% CPU per operation (best of 3: %.1f ns with, %.1f ns without; want < 10%%)",
			(bestWith/bestWithout-1)*100, bestWith, bestWithout)
	}
}
