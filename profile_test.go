package ollock_test

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock"
	"ollock/internal/prof"
)

// profileWorkload drives writers against readers hard enough that the
// writer path reliably contends, with every acquisition sampled. The
// Gosched inside each critical section forces goroutine overlap even
// on GOMAXPROCS=1, where otherwise a nanosecond critical section would
// never be observed held. That overlap is still the scheduler's to
// give (about one run in 200 got none at all), so the first round
// contends by construction: one goroutine holds the write lock until
// the other three are on their way into their first acquisition.
func profileWorkload(t *testing.T, l ollock.Lock, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	var arriving atomic.Int32
	shared := 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := l.NewProc()
			if g == 0 {
				p.Lock()
				for arriving.Load() < 3 {
					runtime.Gosched()
				}
				time.Sleep(time.Millisecond)
				p.Unlock()
			} else {
				arriving.Add(1)
			}
			for i := 0; i < iters; i++ {
				if i%4 == 0 {
					p.Lock()
					shared++
					runtime.Gosched()
					p.Unlock()
				} else {
					p.RLock()
					_ = shared
					runtime.Gosched()
					p.RUnlock()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestProfileEndToEnd is the acceptance path: a contended GOLL
// workload under WithProfile produces a pprof contention profile whose
// top sample symbolizes back to this test's acquire call site, with
// the lock's registered name as the sample label.
func TestProfileEndToEnd(t *testing.T) {
	p := ollock.NewProfiler(1)
	l, err := ollock.New("goll", 4, ollock.WithProfile(p.Register("goll")))
	if err != nil {
		t.Fatal(err)
	}
	profileWorkload(t, l, 2000)

	var buf bytes.Buffer
	if err := ollock.WriteLockProfile(&buf, p, ollock.ProfileContention); err != nil {
		t.Fatal(err)
	}
	parsed, err := prof.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("parsing the facade profile: %v", err)
	}
	if len(parsed.Samples) == 0 {
		t.Fatal("contended workload produced no contention samples")
	}
	top := parsed.Samples[0] // records encode hottest-first
	if top.Labels["lock"] != "goll" {
		t.Errorf("top sample lock label %q, want goll", top.Labels["lock"])
	}
	if len(top.Funcs) == 0 || !strings.Contains(top.Funcs[0], "goll.(*Proc)") {
		t.Errorf("top sample leaf %v, want a goll lock method", top.Funcs)
	}
	var caller bool
	for _, f := range top.Funcs {
		if strings.Contains(f, "profileWorkload") {
			caller = true
		}
	}
	if !caller {
		t.Errorf("top sample does not symbolize to the acquire call site; stack: %v", top.Funcs)
	}

	// The hottest contended call site reduction agrees.
	site, ok := p.HottestSite("goll")
	if !ok {
		t.Fatal("no hottest site for a contended lock")
	}
	if !strings.Contains(site.Func, "profileWorkload") {
		t.Errorf("hottest site %q, want the workload's acquire site", site.Func)
	}
	if site.Contentions == 0 || site.DelayNs == 0 {
		t.Errorf("hottest site has empty totals: %+v", site)
	}
}

// TestProfileBiasShared: a BRAVO-wrapped lock shares one registration
// between wrapper and base, so fast-path reads, slow-path
// acquisitions, and revocations land in one profile under one name —
// wrapper and base frames both present, every sample labelled with the
// single registered lock.
func TestProfileBiasShared(t *testing.T) {
	p := ollock.NewProfiler(1)
	l, err := ollock.New("goll", 4,
		ollock.WithProfile(p.Register("biased")), ollock.WithBias())
	if err != nil {
		t.Fatal(err)
	}
	profileWorkload(t, l, 2000)

	snap := p.Profile()
	if len(snap.Records) == 0 {
		t.Fatal("biased workload recorded nothing")
	}
	var sawWrapper, sawBase bool
	var holds, heldNs uint64
	for _, r := range snap.Records {
		if r.Lock != "biased" {
			t.Errorf("record under lock %q, want the single shared name", r.Lock)
		}
		holds += r.Holds
		heldNs += r.HeldNs
	}
	if holds == 0 || heldNs == 0 {
		t.Error("biased profile has no hold accounting")
	}

	var buf bytes.Buffer
	if err := ollock.WriteLockFolded(&buf, p, ollock.ProfileHold); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "bravo.(*Proc)") {
			sawWrapper = true
		}
		if strings.Contains(line, "goll.(*Proc)") {
			sawBase = true
		}
	}
	if !sawWrapper {
		t.Error("no hold sample flowed through the bravo wrapper fast path")
	}
	if !sawBase {
		t.Error("no hold sample reached the base lock")
	}
}

// TestProfileCompositionWithStats: WithProfile composes with the rest
// of the option surface on a fully instrumented lock.
func TestProfileCompositionWithStats(t *testing.T) {
	p := ollock.NewProfiler(2)
	m := ollock.NewMetrics(ollock.MetricsProfiler(p))
	l, err := ollock.New("roll", 4,
		ollock.WithMetrics(m),
		ollock.WithStats("roll"),
		ollock.WithProfile(p.Register("roll")),
		ollock.WithWait(ollock.WaitMode("adaptive")))
	if err != nil {
		t.Fatal(err)
	}
	profileWorkload(t, l, 1000)
	if len(p.Profile().Records) == 0 {
		t.Error("instrumented roll lock recorded no profile samples")
	}
	// Diagnose must run with the profiler attached (hot-site attachment
	// path), findings or not.
	_ = m.Diagnose(0)
}
