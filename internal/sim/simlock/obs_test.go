package simlock_test

import (
	"reflect"
	"sort"
	"testing"

	"ollock"
	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

// instrumentedKinds lists the lock kinds that exist both as real locks
// (ollock.New) and simulator ports (simlock.ByName) with obs
// instrumentation attached.
var instrumentedKinds = []string{"goll", "foll", "roll", "bravo-goll", "bravo-roll"}

// TestCounterNamesMatchRealLocks pins the obs contract that makes real
// and simulated runs comparable: for every instrumented kind, the
// counter (and histogram) name sets of the simulator port's Snapshot
// and the real lock's WithStats Snapshot are identical.
func TestCounterNamesMatchRealLocks(t *testing.T) {
	for _, kind := range instrumentedKinds {
		t.Run(kind, func(t *testing.T) {
			real, err := ollock.New(ollock.Kind(kind), 4, ollock.WithStats(""))
			if err != nil {
				t.Fatal(err)
			}
			realSnap, ok := ollock.SnapshotOf(real)
			if !ok {
				t.Fatalf("real %s lock has no stats", kind)
			}

			f := simlock.ByName(kind)
			if f == nil {
				t.Fatalf("no simulated factory %q", kind)
			}
			m := sim.New(sim.T5440())
			st := simlock.StatsOf(f.New(m, 4))
			if st == nil {
				t.Fatalf("simulated %s lock has no stats", kind)
			}
			simSnap := st.Snapshot()

			if got, want := simSnap.Names(), realSnap.Names(); !reflect.DeepEqual(got, want) {
				t.Errorf("counter name sets differ:\n  sim:  %v\n  real: %v", got, want)
			}
			simHists := histNames(simSnap)
			realHists := histNames(realSnap)
			if !reflect.DeepEqual(simHists, realHists) {
				t.Errorf("histogram name sets differ:\n  sim:  %v\n  real: %v", simHists, realHists)
			}
		})
	}
}

// TestCounterNamesMatchIndicatorMatrix extends the name-set contract to
// the lock × read-indicator matrix: for every non-default pairing, the
// simulator port's counter names match the real lock built with
// ollock.WithIndicator (all indicators report through the same csnzi.*
// names; see rind.Instrument).
func TestCounterNamesMatchIndicatorMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind ollock.Kind
		ind  ollock.IndicatorKind
	}{
		{"goll-central", ollock.GOLL, ollock.IndicatorCentral},
		{"goll-sharded", ollock.GOLL, ollock.IndicatorSharded},
		{"foll-central", ollock.FOLL, ollock.IndicatorCentral},
		{"foll-sharded", ollock.FOLL, ollock.IndicatorSharded},
		{"roll-central", ollock.ROLL, ollock.IndicatorCentral},
		{"roll-sharded", ollock.ROLL, ollock.IndicatorSharded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			real, err := ollock.New(tc.kind, 4, ollock.WithStats(""), ollock.WithIndicator(tc.ind))
			if err != nil {
				t.Fatal(err)
			}
			realSnap, ok := ollock.SnapshotOf(real)
			if !ok {
				t.Fatalf("real %s lock has no stats", tc.name)
			}
			f := simlock.ByName(tc.name)
			if f == nil {
				t.Fatalf("no simulated factory %q", tc.name)
			}
			m := sim.New(sim.T5440())
			st := simlock.StatsOf(f.New(m, 4))
			if st == nil {
				t.Fatalf("simulated %s lock has no stats", tc.name)
			}
			if got, want := st.Snapshot().Names(), realSnap.Names(); !reflect.DeepEqual(got, want) {
				t.Errorf("counter name sets differ:\n  sim:  %v\n  real: %v", got, want)
			}
		})
	}
}

func histNames(sn ollock.Snapshot) []string {
	out := []string{}
	for name := range sn.Hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// scriptedCounters runs the scripted 3-readers + 1-writer scenario on
// kind and returns the resulting counter snapshot: threads 0..2 each
// perform one read acquisition, thread 3 one write acquisition. The
// critical sections are 20 cycles, except that reader 1 — whose first
// load takes the root's cold miss, so it arrives last, after readers 0
// and 2 have left — holds for 200: a queueing GOLL writer touches three
// cold lines (its flag, the metalock, the root) before its Close at
// cycle ~300, and must still find a reader inside for the scenario to
// contain a hand-off. The simulator is deterministic, so the counters
// are exact, not statistical.
func scriptedCounters(t *testing.T, kind string) ollock.Snapshot {
	t.Helper()
	f := simlock.ByName(kind)
	if f == nil {
		t.Fatalf("no simulated factory %q", kind)
	}
	m := sim.New(sim.T5440())
	l := f.New(m, 4)
	for i := 0; i < 4; i++ {
		p := l.NewProc(i)
		write := i == 3
		hold := int64(20)
		if i == 1 {
			hold = 200
		}
		m.Spawn(func(c *sim.Ctx) {
			if write {
				p.Lock(c)
				c.Work(20)
				p.Unlock(c)
			} else {
				p.RLock(c)
				c.Work(hold)
				p.RUnlock(c)
			}
		})
	}
	m.Run()
	return simlock.StatsOf(l).Snapshot()
}

// TestScriptedCountersExact asserts the exact counter values of the
// scripted scenario for each OLL kind. The values are reproducible
// because the simulator's scheduling is a pure function of its inputs;
// a change here means the algorithm's internal behaviour changed (or
// an instrumentation site moved) and must be understood, not papered
// over.
func TestScriptedCountersExact(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want map[string]uint64
	}{
		// GOLL: the three readers all arrive at the root (one losing a
		// CAS race first); the writer closes the C-SNZI, reopens it on
		// release and hands off directly.
		{kind: "goll", want: map[string]uint64{
			"csnzi.arrive.root":    3,
			"csnzi.arrive.tree":    0,
			"csnzi.arrive.fail":    0,
			"csnzi.cas.retry":      1,
			"csnzi.close":          1,
			"csnzi.open":           1,
			"goll.handoff":         1,
			"goll.upgrade.attempt": 0,
			"goll.upgrade.fail":    0,
			"goll.downgrade":       0,
			"goll.timeout":         0,
			"goll.cancel":          0,
		}},
		// FOLL: one reader enqueues the group node, two join it; the
		// failed arrivals are probes against ring nodes that start
		// closed. In this interleaving the writer wins the tail first,
		// so no group close fires and the node is not recycled.
		{kind: "foll", want: map[string]uint64{
			"csnzi.arrive.root": 3,
			"csnzi.arrive.tree": 0,
			"csnzi.arrive.fail": 10,
			"csnzi.cas.retry":   1,
			"csnzi.close":       0,
			"csnzi.open":        1,
			"foll.read.enqueue": 1,
			"foll.read.join":    2,
			"foll.node.recycle": 0,
			"foll.timeout":      0,
			"foll.cancel":       0,
		}},
		// ROLL: same group shape as FOLL; the deferred close means the
		// group stays open (close=0), and with the writer behind the
		// readers nothing overtakes and the hint is never consulted.
		{kind: "roll", want: map[string]uint64{
			"csnzi.arrive.root": 3,
			"csnzi.arrive.tree": 0,
			"csnzi.arrive.fail": 0,
			"csnzi.cas.retry":   3,
			"csnzi.close":       0,
			"csnzi.open":        1,
			"roll.read.enqueue": 1,
			"roll.read.join":    2,
			"roll.node.recycle": 0,
			"roll.overtake":     0,
			"roll.hint.hit":     0,
			"roll.hint.miss":    0,
			"roll.timeout":      0,
			"roll.cancel":       0,
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			got := scriptedCounters(t, tc.kind).Counters
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("counters = %#v, want %#v", got, tc.want)
			}
		})
	}
}
