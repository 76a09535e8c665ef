package park

import (
	"testing"
	"time"

	"ollock/internal/obs"
)

// TestParkWaitHistogramRecorded checks every descheduling path samples
// the park.wait histogram exactly once per park: the channel park of a
// Waiter and of a Flag, and the timed-sleep ladder in WaitCond.
func TestParkWaitHistogramRecorded(t *testing.T) {
	st := obs.New(obs.WithScopes("park"))
	pol := New(ModeAdaptive, WithStats(st))

	var w Waiter
	done := make(chan struct{})
	go func() {
		w.Wait(pol, 0, nil)
		close(done)
	}()
	for w.state.Load() != wParked {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(time.Millisecond) // measurable parked dwell
	w.Signal()
	<-done
	h := st.Hist(obs.ParkWait)
	if h.Count() != 1 {
		t.Fatalf("park.wait count after channel park = %d, want 1", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("park.wait sum after 1ms parked dwell = %d, want > 0", h.Sum())
	}

	// The same ladder parked on a Flag record (every FOLL/ROLL park).
	var f Flag
	f.Set(true)
	done = make(chan struct{})
	go func() {
		f.Wait(pol, 0, nil)
		close(done)
	}()
	for f.parked.Load() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	f.Clear()
	<-done
	if h = st.Hist(obs.ParkWait); h.Count() != 2 {
		t.Fatalf("park.wait count after flag park = %d, want 2", h.Count())
	}

	// Sleep-ladder path: cond stays false long enough to exhaust the
	// hot spin and yield budgets.
	calls := 0
	WaitCond(pol, 0, nil, func() bool {
		calls++
		return calls > hotSpinBudget+yieldBudget+8
	})
	h = st.Hist(obs.ParkWait)
	if h.Count() != 3 {
		t.Fatalf("park.wait count after sleep ladder = %d, want 3", h.Count())
	}
	if got, want := st.Count(obs.ParkPark), st.Count(obs.ParkUnpark); got != want {
		t.Fatalf("park/unpark unbalanced: %d/%d", got, want)
	}
}

// TestParkDurationZeroAllocStatsOff is the statsguard for the duration
// sampling: with no stats block attached, a WaitCond that walks the
// full spin → yield → sleep ladder (park.wait's recording site) must
// not allocate — the timing reads are gated behind Enabled, so the
// stats-off path stays branch-only.
func TestParkDurationZeroAllocStatsOff(t *testing.T) {
	pol := New(ModeAdaptive)
	if n := testing.AllocsPerRun(10, func() {
		calls := 0
		WaitCond(pol, 0, nil, func() bool {
			calls++
			return calls > hotSpinBudget+yieldBudget+8
		})
	}); n != 0 {
		t.Fatalf("stats-off WaitCond sleep path allocates %.1f/op, want 0", n)
	}
}
