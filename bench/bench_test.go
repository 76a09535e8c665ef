package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// The quick size: every test below runs workloads with -seconds 1.
const quick = 1

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONInSync holds ../BENCHMARK.json and spec.go together
// in both directions: the checked-in file is exactly what -spec prints.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: bash bench/run.sh -spec > BENCHMARK.json")
	}
}

// TestSpecWithinContract checks the limits the benchmark contract puts
// on names, units, bounds and counts.
func TestSpecWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != lower {
		t.Errorf("setup_s missing or misdeclared: %+v", m)
	}
}

func wantNames(t *testing.T, res *result, set []metric) {
	t.Helper()
	if !res.Correct {
		t.Errorf("run not correct: %d failed of %d, problems %v", res.Failed, res.Attempted, res.Problems)
	}
	for _, m := range set {
		v, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
		} else if v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v %q", m.Name, v.Value, v.Unit)
		}
	}
	if len(res.Metrics) != len(set) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(set))
	}
}

// TestUntracedRun: the program prints exactly the declared end-to-end
// metrics, none of them zero, and the same seed gives the same
// simulated numbers.
func TestUntracedRun(t *testing.T) {
	w := workloadByName("mix")
	a := runWorkload(w, 7, quick, false, t.TempDir())
	wantNames(t, a, endToEnd)
	b := runWorkload(w, 7, quick, false, t.TempDir())
	for _, m := range endToEnd {
		if a.Metrics[m.Name].Value == 0 {
			t.Errorf("%s is 0", m.Name)
		}
		if simulatedTime(m.Name) && a.Metrics[m.Name] != b.Metrics[m.Name] {
			t.Errorf("%s: %v then %v on the same seed", m.Name, a.Metrics[m.Name].Value, b.Metrics[m.Name].Value)
		}
	}
	c := runWorkload(w, 8, quick, false, t.TempDir())
	if a.Metrics["sim_roll_ns_per_acq"] == c.Metrics["sim_roll_ns_per_acq"] {
		t.Errorf("sim_roll_ns_per_acq does not depend on the seed")
	}
}

// TestTracedRun: the traced run prints exactly the declared per-layer
// metrics, reproduces simulated time bit for bit (a difference is a
// problem, so Correct covers it), builds ladders that sum to their top
// rung, and writes the trace and layer files.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	res := runWorkload(workloadByName("write"), 3, quick, true, dir)
	wantNames(t, res, perLayer)
	if len(res.Skipped) != 0 {
		t.Errorf("skipped: %v", res.Skipped)
	}
	if len(res.Ladders) != 5 {
		t.Errorf("%d ladders", len(res.Ladders))
	}
	for top, steps := range res.Ladders {
		sum := 0.0
		for _, s := range steps {
			sum += s.SelfNs
		}
		if want := res.Metrics[top].Value; math.Abs(sum-want) > 1e-9*want {
			t.Errorf("ladder %s sums to %v, rung is %v", top, sum, want)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args map[string]any
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace_write.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatal(err)
	}
	spans, children := 0, 0
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Name == "" || e.Dur < 0 || e.Args["workload"] != "write" || e.Args["id"] == nil {
			t.Fatalf("malformed span %+v", e)
		}
		if p, _ := e.Args["parent"].(float64); p > 0 {
			children++
		}
	}
	if spans == 0 || children == 0 {
		t.Errorf("%d spans, %d with a parent", spans, children)
	}
	var layers result
	if b, err = os.ReadFile(filepath.Join(dir, "layers_write.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &layers); err != nil {
		t.Fatal(err)
	}
	if len(layers.Metrics) != len(perLayer) {
		t.Errorf("layers.json holds %d metrics", len(layers.Metrics))
	}
}

// TestTicketRWChecked puts the yardstick lock through the same checked
// critical section as the library kinds.
func TestTicketRWChecked(t *testing.T) {
	var l ticketRW
	attempted, violations := checkedPass([2]rwProc{&l, &l}, 1, 20000)
	if attempted != 40000 || violations != 0 {
		t.Errorf("%d violations in %d ops", violations, attempted)
	}
}

// TestCheckedPassSeesABrokenLock: a lock that excludes nobody must fail
// the check, or the check proves nothing.
func TestCheckedPassSeesABrokenLock(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two processors to overlap")
	}
	// One pass can finish before the two goroutines ever overlap.
	for try := uint64(0); try < 100; try++ {
		if _, violations := checkedPass([2]rwProc{noLock{}, noLock{}}, try, 500000); violations > 0 {
			return
		}
	}
	t.Error("a lock that excludes nobody passed the checked pass 100 times")
}

type noLock struct{}

func (noLock) RLock()   {}
func (noLock) RUnlock() {}
func (noLock) Lock()    {}
func (noLock) Unlock()  {}

// TestQuartilesMatchPython pins quartiles to
// statistics.quantiles(values, n=4), which the contract's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestVerdicts(t *testing.T) {
	m := &metric{Name: "x", Better: lower, Bound: 0.08}
	mk := func(vs ...float64) *side {
		s := &side{vals: vs}
		s.q1, s.med, s.q3 = quartiles(vs)
		return s
	}
	base := mk(100, 101, 99, 100.5, 99.5)
	for _, c := range []struct {
		b    *side
		want string
	}{
		{mk(100, 101, 99, 100.5, 99.5), within},
		{mk(110, 111, 109, 110.5, 109.5), regressed},
		{mk(90, 91, 89, 90.5, 89.5), improved},
		{mk(80, 120, 95, 130, 70), unresolved},
		{mk(104, 105, 103, 104.5, 103.5), within},
	} {
		if got, _ := verdict(m, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b.vals, got, c.want)
		}
	}
	up := &metric{Name: "y", Better: higher, Bound: 0.15}
	if got, _ := verdict(up, mk(100, 101, 99), mk(80, 81, 79)); got != regressed {
		t.Errorf("higher-is-better drop = %s", got)
	}
	if got, _ := verdict(m, mk(5, 5, 5), mk(5, 5, 5)); got != identical {
		t.Errorf("equal exact values = %s", got)
	}
}
