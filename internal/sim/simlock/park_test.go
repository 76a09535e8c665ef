package simlock_test

import (
	"reflect"
	"testing"

	"ollock"
	"ollock/internal/park"
	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

// polLock is the setup shared by the wait-policy tests: a simulated
// lock with a wait policy attached.
func polLock(m *sim.Machine, kind string, mode park.Mode) simlock.Lock {
	pol := simlock.NewWaitPolicy(mode)
	switch kind {
	case "goll":
		l := simlock.NewGOLL(m, 8)
		l.SetWaitPolicy(pol)
		return l
	case "foll":
		l := simlock.NewFOLL(m, 8)
		l.SetWaitPolicy(pol)
		return l
	case "roll":
		l := simlock.NewROLL(m, 8)
		l.SetWaitPolicy(pol)
		return l
	}
	panic("unknown kind " + kind)
}

// runContended drives 8 threads (2 writers) through enough acquisitions
// that queue waits are certain, and returns the counter snapshot.
func runContended(t *testing.T, kind string, mode park.Mode) ollock.Snapshot {
	t.Helper()
	m := sim.New(sim.T5440())
	l := polLock(m, kind, mode)
	for i := 0; i < 8; i++ {
		p := l.NewProc(i)
		write := i%4 == 3
		m.Spawn(func(c *sim.Ctx) {
			for r := 0; r < 20; r++ {
				if write {
					p.Lock(c)
					c.Work(50)
					p.Unlock(c)
				} else {
					p.RLock(c)
					c.Work(20)
					p.RUnlock(c)
				}
			}
		})
	}
	m.Run()
	return simlock.StatsOf(l).Snapshot()
}

// TestParkCounterNamesMatchRealLocks extends the sim/real obs contract
// to the wait-policy dimension: a simulated lock with a non-spin
// policy must expose exactly the counter names of the real lock built
// with ollock.WithWait of the same mode.
func TestParkCounterNamesMatchRealLocks(t *testing.T) {
	for _, kind := range []string{"goll", "foll", "roll"} {
		t.Run(kind+"/"+string(ollock.WaitAdaptive), func(t *testing.T) {
			real, err := ollock.New(ollock.Kind(kind), 4,
				ollock.WithStats(""), ollock.WithWait(ollock.WaitAdaptive))
			if err != nil {
				t.Fatal(err)
			}
			realSnap, ok := ollock.SnapshotOf(real)
			if !ok {
				t.Fatalf("real %s lock has no stats", kind)
			}
			m := sim.New(sim.T5440())
			st := simlock.StatsOf(polLock(m, kind, park.ModeAdaptive))
			if got, want := st.Snapshot().Names(), realSnap.Names(); !reflect.DeepEqual(got, want) {
				t.Errorf("counter name sets differ:\n  sim:  %v\n  real: %v", got, want)
			}
		})
	}
}

// TestParkPolicyCounters checks the adaptive policy's observable
// behavior under contention: it must park, unpark exactly as often as
// it parks, and yield before parking.
func TestParkPolicyCounters(t *testing.T) {
	for _, kind := range []string{"goll", "foll", "roll"} {
		t.Run(kind, func(t *testing.T) {
			adaptive := runContended(t, kind, park.ModeAdaptive)
			if adaptive.Counters["park.park"] == 0 {
				t.Errorf("adaptive run parked 0 times; contended queue waits must escalate")
			}
			if p, u := adaptive.Counters["park.park"], adaptive.Counters["park.unpark"]; p != u {
				t.Errorf("park.park=%d park.unpark=%d; every park must unpark", p, u)
			}
			if y, p := adaptive.Counters["park.yield"], adaptive.Counters["park.park"]; y < p {
				t.Errorf("park.yield=%d < park.park=%d; the ladder yields before parking", y, p)
			}
		})
	}
}

// TestParkSpinPolicyIsDefault pins the scope contract on the sim side:
// a spin-mode policy is indistinguishable from no policy — same
// counter name set (no park.* names), mirroring the facade adding the
// park scope only for non-spin modes. The policies DO change timing
// (that is their point), so lock-event counter values under contention
// are not expected to match across modes; only the name sets and the
// algorithm's correctness are invariant.
func TestParkSpinPolicyIsDefault(t *testing.T) {
	for _, kind := range []string{"goll", "foll", "roll"} {
		t.Run(kind, func(t *testing.T) {
			spin := runContended(t, kind, park.ModeSpin)
			for name := range spin.Counters {
				if len(name) >= 5 && name[:5] == "park." {
					t.Errorf("spin-mode policy exposes %s; park scope must be non-spin only", name)
				}
			}
			m := sim.New(sim.T5440())
			bare := simlock.StatsOf(simlock.ByName(kind).New(m, 8)).Snapshot()
			if got, want := spin.Names(), bare.Names(); !reflect.DeepEqual(got, want) {
				t.Errorf("spin-policy name set differs from no-policy:\n  policy: %v\n  bare:   %v", got, want)
			}
		})
	}
}
