package doctor

import (
	"strings"
	"testing"
	"time"

	"ollock/internal/metrics"
	"ollock/internal/obs"
)

// ruleSet collects the distinct rules fired over a window stream.
func ruleSet(findings []Finding) map[string]bool {
	out := map[string]bool{}
	for _, f := range findings {
		out[f.Rule] = true
	}
	return out
}

// TestScenariosFireTheirRule pins every scripted scenario to exactly
// the rule it demonstrates — and the healthy control to none.
func TestScenariosFireTheirRule(t *testing.T) {
	want := map[string]string{
		"healthy":               "",
		"writer-starvation":     "writer-starvation",
		"bias-thrash":           "bias-thrash",
		"park-storm":            "park-storm",
		"acquire-timeout-storm": "acquire-timeout-storm",
		"indicator-stall":       "indicator-stall",
	}
	if got := ScenarioNames(); len(got) != len(want) {
		t.Fatalf("scenario list %v does not cover expectations", got)
	}
	for name, rule := range want {
		ws, err := Scenario(name)
		if err != nil {
			t.Fatal(err)
		}
		findings := Diagnose(DefaultConfig(), ws)
		rules := ruleSet(findings)
		if rule == "" {
			if len(findings) != 0 {
				t.Errorf("healthy scenario produced findings: %v", findings)
			}
			continue
		}
		if !rules[rule] {
			t.Errorf("scenario %q did not fire %q (fired %v)", name, rule, rules)
		}
		for r := range rules {
			if r != rule {
				t.Errorf("scenario %q also fired unrelated rule %q", name, r)
			}
		}
		// Determinism: same scenario, same findings, every time.
		again := Diagnose(DefaultConfig(), ws)
		if len(again) != len(findings) {
			t.Errorf("scenario %q nondeterministic: %d then %d findings", name, len(findings), len(again))
		}
	}
	if _, err := Scenario("nope"); err == nil {
		t.Error("unknown scenario did not error")
	}
}

func TestWriterStarvationThresholds(t *testing.T) {
	cfg := DefaultConfig()
	base := Window{
		Lock:    "l",
		Seconds: 10,
		Deltas:  map[string]uint64{"csnzi.arrive.root": 1000},
		Hists: map[string]HistWindow{
			"goll.write.wait": {Count: 10, P99: cfg.WriteP99StarvationNs},
		},
	}
	if f := Diagnose(cfg, []Window{base}); len(f) != 1 || f[0].Rule != "writer-starvation" {
		t.Fatalf("at-threshold window did not fire: %v", f)
	}
	// Below the p99 threshold: quiet.
	w := base
	w.Hists = map[string]HistWindow{"goll.write.wait": {Count: 10, P99: cfg.WriteP99StarvationNs - 1}}
	if f := Diagnose(cfg, []Window{w}); len(f) != 0 {
		t.Fatalf("below-threshold window fired: %v", f)
	}
	// No reads: a slow writer without read pressure is not starvation.
	w = base
	w.Deltas = map[string]uint64{}
	if f := Diagnose(cfg, []Window{w}); len(f) != 0 {
		t.Fatalf("no-reads window fired: %v", f)
	}
	// Too few writes to trust the quantile.
	w = base
	w.Hists = map[string]HistWindow{"goll.write.wait": {Count: cfg.StarvationMinWrites - 1, P99: 1 << 40}}
	if f := Diagnose(cfg, []Window{w}); len(f) != 0 {
		t.Fatalf("min-writes guard did not hold: %v", f)
	}
	// ROLL overtakes sharpen the advice.
	w = base
	w.Deltas = map[string]uint64{"csnzi.arrive.root": 1000, "roll.overtake": 50}
	f := Diagnose(cfg, []Window{w})
	if len(f) != 1 || !strings.Contains(f[0].Advice, "FOLL") {
		t.Fatalf("overtake evidence did not adjust advice: %v", f)
	}
}

func TestBiasThrashThresholds(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(revokes, reads uint64) Window {
		return Window{
			Lock:    "l",
			Seconds: 10,
			Deltas:  map[string]uint64{"bravo.revoke": revokes, "bravo.read.fast": reads},
		}
	}
	if f := Diagnose(cfg, []Window{mk(100, 1000)}); len(f) != 1 || f[0].Rule != "bias-thrash" {
		t.Fatalf("thrash window did not fire: %v", f)
	}
	// High ratio but below the absolute floor: quiet.
	if f := Diagnose(cfg, []Window{mk(cfg.ThrashMinRevokes-1, 10)}); len(f) != 0 {
		t.Fatalf("min-revokes guard did not hold: %v", f)
	}
	// Many revokes but dwarfed by reads: quiet.
	if f := Diagnose(cfg, []Window{mk(100, 1_000_000)}); len(f) != 0 {
		t.Fatalf("low-ratio window fired: %v", f)
	}
}

func TestParkStormThresholds(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(parks, reads uint64) Window {
		return Window{
			Lock:    "l",
			Seconds: 10,
			Deltas:  map[string]uint64{"park.park": parks, "csnzi.arrive.root": reads},
		}
	}
	f := Diagnose(cfg, []Window{mk(500, 100)})
	if len(f) != 1 || f[0].Rule != "park-storm" {
		t.Fatalf("storm window did not fire: %v", f)
	}
	// The advice is what BENCH_bravo.json's oversubscription grid
	// supports: fewer waiters, and the adaptive ladder for those left.
	for _, want := range []string{"oversubscription", "WaitAdaptive"} {
		if !strings.Contains(f[0].Advice, want) {
			t.Errorf("park-storm advice does not mention %s: %q", want, f[0].Advice)
		}
	}
	if f := Diagnose(cfg, []Window{mk(cfg.StormMinParks-1, 1)}); len(f) != 0 {
		t.Fatalf("min-parks guard did not hold: %v", f)
	}
	if f := Diagnose(cfg, []Window{mk(500, 10_000)}); len(f) != 0 {
		t.Fatalf("low-ratio storm fired: %v", f)
	}
}

func TestAcquireTimeoutStormThresholds(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(timeouts, cancels, reads uint64) Window {
		return Window{
			Lock:    "l",
			Seconds: 10,
			Deltas: map[string]uint64{
				"foll.timeout":      timeouts,
				"roll.cancel":       cancels,
				"csnzi.arrive.root": reads,
			},
		}
	}
	f := Diagnose(cfg, []Window{mk(400, 100, 500)})
	if len(f) != 1 || f[0].Rule != "acquire-timeout-storm" {
		t.Fatalf("storm window did not fire: %v", f)
	}
	if !strings.Contains(f[0].Summary, "400 timeouts, 100 cancels") {
		t.Errorf("summary does not split the causes: %q", f[0].Summary)
	}
	// Numerous but a small fraction of attempts: quiet.
	if f := Diagnose(cfg, []Window{mk(400, 100, 1_000_000)}); len(f) != 0 {
		t.Fatalf("low-ratio window fired: %v", f)
	}
	// High fraction but below the absolute floor: quiet.
	if f := Diagnose(cfg, []Window{mk(cfg.StormMinTimeouts-1, 0, 1)}); len(f) != 0 {
		t.Fatalf("min-timeouts guard did not hold: %v", f)
	}
	// No attempts at all: quiet (no divide-by-zero, no phantom ratio).
	if f := Diagnose(cfg, []Window{{Lock: "l", Seconds: 10, Deltas: map[string]uint64{}}}); len(f) != 0 {
		t.Fatalf("empty window fired: %v", f)
	}
}

func TestSignalsOf(t *testing.T) {
	w := Window{
		Seconds: 5,
		Deltas: map[string]uint64{
			"csnzi.arrive.root": 100,
			"csnzi.arrive.tree": 50,
			"bravo.read.fast":   850,
			"bravo.revoke":      10,
			"park.park":         220,
		},
		Hists: map[string]HistWindow{
			"goll.write.wait": {Count: 80},
			"roll.write.wait": {Count: 20},
		},
	}
	s := SignalsOf(w)
	if s.Reads != 1000 || s.Writes != 100 || s.Revocations != 10 || s.Parks != 220 {
		t.Fatalf("signals = %+v", s)
	}
	if s.RevocationsPerRead != 0.01 || s.ParksPerAcquire != 0.2 {
		t.Fatalf("ratios = %v / %v", s.RevocationsPerRead, s.ParksPerAcquire)
	}
}

// TestFromMetricsRoundTrip drives real obs blocks through the sampler
// and the converter and checks the doctor window carries exactly the
// in-scope names.
func TestFromMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	st := obs.New(obs.WithName("rt"), obs.WithScopes("csnzi", "goll"))
	reg.Register(st)
	clk := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s := metrics.New(reg, metrics.WithClock(func() time.Time { return clk }))
	s.SampleNow()
	st.Inc(obs.CSNZIArriveRoot, 0)
	st.Observe(obs.GOLLWriteWait, 0, 10_000)
	clk = clk.Add(2 * time.Second)
	s.SampleNow()

	ws := WindowsFrom(s, reg, time.Hour)
	if len(ws) != 1 {
		t.Fatalf("windows = %+v", ws)
	}
	w := ws[0]
	if w.Lock != "rt" || w.Seconds != 2 {
		t.Fatalf("window meta = %+v", w)
	}
	if w.Deltas["csnzi.arrive.root"] != 1 {
		t.Fatalf("delta missing: %+v", w.Deltas)
	}
	if _, ok := w.Deltas["bravo.revoke"]; ok {
		t.Fatal("out-of-scope counter present in doctor window")
	}
	h, ok := w.Hists["goll.write.wait"]
	if !ok || h.Count != 1 || h.Max != 10_000 {
		t.Fatalf("hist window = %+v (ok=%v)", h, ok)
	}
	if len(Diagnose(DefaultConfig(), ws)) != 0 {
		t.Fatal("tiny healthy workload produced findings")
	}
}

func TestReportRendering(t *testing.T) {
	if r := Report(nil); !strings.Contains(r, "no findings") {
		t.Fatalf("healthy report %q", r)
	}
	ws, _ := Scenario("park-storm")
	r := Report(Diagnose(DefaultConfig(), ws))
	for _, want := range []string{"[warning]", "park-storm", "parks.per.acquire", "advice:"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}
