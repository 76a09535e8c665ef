package lockcore

import (
	"testing"

	"ollock/internal/obs"
	"ollock/internal/trace"
)

// The whole point of the Instr/ProcInstr bundle is that the zero value
// is a valid "instrumentation off" configuration: every helper must be
// callable on empty bundles, do nothing, and allocate nothing. These
// tests pin that contract at the source instead of once per algorithm
// package.

func TestZeroInstrIsInert(t *testing.T) {
	var in Instr
	if in.Enabled() {
		t.Error("zero Instr reports Enabled")
	}
	pi := in.NewProc(3)
	if pi.LC != nil || pi.TR != nil {
		t.Errorf("zero Instr.NewProc returned non-nil locals: %+v", pi)
	}
	// All of these must be safe no-ops.
	in.Inc(GOLLHandoff, 0)
	in.Observe(GOLLWriteWait, 0, 42)
	t0 := in.SpanStart()
	if !t0.IsZero() {
		t.Error("zero Instr.SpanStart read the clock")
	}
	in.SpanObserve(GOLLWriteWait, 0, t0)
	pi.Inc(FOLLReadJoin)
	pi.Emit(KindReadAcquired, PhaseArrive, 7)
	pi.Begin(PhaseQueueWait)
	pi.BeginAt(123, PhaseSpinWait)
	pi.End(PhaseQueueWait)
	pi.Acquired(KindReadAcquired, pi.Now(), RouteTree)
	pi.Released(KindReadReleased)
}

func TestZeroProcInstrZeroAllocs(t *testing.T) {
	var in Instr
	pi := in.NewProc(0)
	if n := testing.AllocsPerRun(200, func() {
		pi.Inc(ROLLReadJoin)
		pi.Begin(PhaseArrive)
		pi.End(PhaseArrive)
		pi.Acquired(KindReadAcquired, pi.Now(), RouteRoot)
		pi.Released(KindReadReleased)
		in.Inc(GOLLHandoff, 0)
		in.SpanObserve(GOLLWriteWait, 0, in.SpanStart())
	}); n != 0 {
		t.Fatalf("uninstrumented helpers allocate %.1f times per round, want 0", n)
	}
}

func TestInstrDelegation(t *testing.T) {
	st := obs.New(obs.WithName("t"), obs.WithScopes("csnzi", "goll"))
	lt := trace.New(64).Register("t")
	in := Instr{Stats: st, Trace: lt}
	if !in.Enabled() {
		t.Error("Instr with a stats block reports disabled")
	}
	pi := in.NewProc(1)
	if pi.LC == nil || pi.TR == nil {
		t.Fatalf("NewProc dropped a view: %+v", pi)
	}
	pi.Inc(GOLLHandoff)
	pi.Acquired(KindReadAcquired, pi.Now(), RouteRoot)
	pi.Released(KindReadReleased)
	in.Inc(GOLLUpgradeAttempt, 1)
	t0 := in.SpanStart()
	if t0.IsZero() {
		t.Error("SpanStart with stats on did not read the clock")
	}
	in.SpanObserve(GOLLWriteWait, 1, t0)

	// Per-proc counts buffer in the Local until FlushEvery events; fold
	// them in before snapshotting.
	pi.LC.Flush()
	sn := st.Snapshot()
	if sn.Counters["goll.handoff"] != 1 {
		t.Errorf("goll.handoff = %d, want 1 (per-proc Inc lost)", sn.Counters["goll.handoff"])
	}
	if sn.Counters["goll.upgrade.attempt"] != 1 {
		t.Errorf("goll.upgrade.attempt = %d, want 1 (lock-level Inc lost)", sn.Counters["goll.upgrade.attempt"])
	}
	if h, ok := sn.Hists["goll.write.wait"]; !ok || h.Count != 1 {
		t.Errorf("goll.write.wait hist = %+v ok=%v, want one observation", h, ok)
	}
}

func TestRegistryShape(t *testing.T) {
	descs := Descs()
	if len(descs) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, d := range descs {
		if d.Name == "" {
			t.Fatal("descriptor with empty name")
		}
		if seen[d.Name] {
			t.Fatalf("duplicate kind %q", d.Name)
		}
		seen[d.Name] = true
		if d.Doc == "" {
			t.Errorf("kind %q has no doc line", d.Name)
		}
		if d.ForceBias {
			base, ok := DescOf(d.BiasBase)
			if !ok {
				t.Errorf("kind %q names unknown bias base %q", d.Name, d.BiasBase)
			} else if base.ForceBias {
				t.Errorf("kind %q bias base %q is itself pre-biased", d.Name, d.BiasBase)
			}
		}
		if d.IndicatorMatrix && !d.Caps.Indicator {
			t.Errorf("kind %q is in the indicator matrix but does not take indicators", d.Name)
		}
		if d.Caps.Instrumented != (len(d.Scopes) > 0) {
			t.Errorf("kind %q: Instrumented=%v but scopes=%v", d.Name, d.Caps.Instrumented, d.Scopes)
		}
		got, ok := DescOf(d.Name)
		if !ok || got.Name != d.Name {
			t.Errorf("DescOf(%q) failed round trip", d.Name)
		}
	}
	// Descs must return a defensive copy: mutating the result must not
	// corrupt the registry.
	descs[0].Name = "clobbered"
	if again := Descs(); again[0].Name == "clobbered" {
		t.Error("Descs exposes the registry's backing array")
	}
	if _, ok := DescOf("no-such-kind"); ok {
		t.Error("DescOf reports ok for an unknown kind")
	}
}
