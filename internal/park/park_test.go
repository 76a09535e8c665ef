package park

import (
	"sync"
	"testing"
	"time"

	"ollock/internal/obs"
)

func policies(t *testing.T) map[string]*Policy {
	t.Helper()
	return map[string]*Policy{
		"nil":      nil,
		"spin":     New(ModeSpin),
		"adaptive": New(ModeAdaptive),
	}
}

// TestWaiterRoundTrip drives one Wait/Signal/Reset cycle per mode,
// twice, to cover both the fresh and the re-armed waiter.
func TestWaiterRoundTrip(t *testing.T) {
	for name, pol := range policies(t) {
		t.Run(name, func(t *testing.T) {
			var w Waiter
			for round := 0; round < 2; round++ {
				done := make(chan struct{})
				go func() {
					w.Wait(pol, 0, nil)
					close(done)
				}()
				time.Sleep(time.Millisecond)
				w.Signal()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: waiter never woke", round)
				}
				if !w.Signaled() {
					t.Fatal("Signaled() false after Signal")
				}
				w.Reset()
			}
		})
	}
}

// TestWaiterSignalBeforeWait pins the fast path: a pre-signaled waiter
// returns immediately under every mode.
func TestWaiterSignalBeforeWait(t *testing.T) {
	for name, pol := range policies(t) {
		t.Run(name, func(t *testing.T) {
			var w Waiter
			w.Signal()
			w.Wait(pol, 0, nil) // must not block
		})
	}
}

// TestWaiterAdaptiveParksAndCounts forces a long wait so the adaptive
// waiter walks the full spin → yield → park ladder, and checks the
// park.* counters witnessed it.
func TestWaiterAdaptiveParksAndCounts(t *testing.T) {
	st := obs.New(obs.WithScopes("park"))
	pol := New(ModeAdaptive, WithStats(st))
	var w Waiter
	done := make(chan struct{})
	go func() {
		w.Wait(pol, 0, nil)
		close(done)
	}()
	// Wait until the waiter has actually parked (state wParked), then
	// signal: this exercises the channel hand-off, not the spin phase.
	for w.state.Load() != wParked {
		time.Sleep(100 * time.Microsecond)
	}
	w.Signal()
	<-done
	if st.Count(obs.ParkPark) != 1 || st.Count(obs.ParkUnpark) != 1 {
		t.Fatalf("park/unpark = %d/%d, want 1/1",
			st.Count(obs.ParkPark), st.Count(obs.ParkUnpark))
	}
	if st.Count(obs.ParkYield) != 1 {
		t.Fatalf("park.yield = %d, want 1", st.Count(obs.ParkYield))
	}
}

// TestFlagRoundTrip drives Set/Wait/Clear per mode with several
// concurrent waiters on one flag (the FOLL reader-group shape: every
// group member waits on the same node's flag).
func TestFlagRoundTrip(t *testing.T) {
	for name, pol := range policies(t) {
		t.Run(name, func(t *testing.T) {
			var f Flag
			for round := 0; round < 3; round++ {
				f.Set(true)
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						f.Wait(pol, id, nil)
					}(i)
				}
				time.Sleep(time.Millisecond)
				f.Clear()
				waitDone(t, &wg, "flag waiters")
				if f.Blocked() {
					t.Fatal("flag still blocked after Clear")
				}
			}
		})
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never woke", what)
	}
}

// TestFlagMissedWakeHandStepped is the deterministic regression test
// for the push-then-recheck protocol, hand-stepping both sides of the
// claim/cancel race instead of hoping a hammer hits it.
func TestFlagMissedWakeHandStepped(t *testing.T) {
	// Step A — granter claims: a record is on the list when Clear runs.
	// Clear must claim it and leave exactly one token in its channel
	// (the waiter, about to block, consumes it without deadlock).
	var f Flag
	f.Set(true)
	r := &parkRec{sem: make(chan struct{}, 1)}
	f.parked.Store(r)
	f.Clear()
	if got := r.state.Load(); got != recClaimed {
		t.Fatalf("record state = %d after Clear, want claimed(%d)", got, recClaimed)
	}
	select {
	case <-r.sem:
	default:
		t.Fatal("claimed record has no wake token: this is the missed-wake bug")
	}

	// Step B — waiter cancels: the record is pushed after Clear's sweep
	// (the waiter's re-check sees the flag cleared and cancels). A later
	// generation's Clear must skip the canceled record and must not
	// send on its channel.
	f.Set(true)
	f.Clear() // generation ends with an empty list
	stale := &parkRec{sem: make(chan struct{}, 1)}
	if !stale.state.CompareAndSwap(recWaiting, recCanceled) {
		t.Fatal("cancel CAS failed on fresh record")
	}
	f.parked.Store(stale)
	f.Set(true)
	f.Clear()
	select {
	case <-stale.sem:
		t.Fatal("Clear sent a wake to a canceled record")
	default:
	}
	if f.parked.Load() != nil {
		t.Fatal("Clear left records on the parked list")
	}
}

// TestWaitCond exercises the condition-wait ladder per mode, including
// the timed-sleep tail (the condition flips only after the yield
// budget is exhausted).
func TestWaitCond(t *testing.T) {
	for name, pol := range policies(t) {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			flipped := false
			go func() {
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				flipped = true
				mu.Unlock()
			}()
			WaitCond(pol, 0, nil, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return flipped
			})
		})
	}
}

// TestLadderSpinMatchesBackoff pins the nil-policy Ladder to the legacy
// Backoff behavior (the spin path must stay byte-identical), and checks
// the adaptive ladder escalates without hanging.
func TestLadderSpinMatchesBackoff(t *testing.T) {
	var ld Ladder // nil policy = spin
	for i := 0; i < 20; i++ {
		ld.Pause()
	}
	adaptive := New(ModeAdaptive).Ladder()
	for i := 0; i < yieldBudget+4; i++ {
		adaptive.Pause() // must reach the sleep tail without panicking
	}
	if adaptive.sleep == 0 {
		t.Fatal("adaptive ladder never escalated to the sleep tail")
	}
	adaptive.Reset()
	if adaptive.sleep != 0 || adaptive.yields != 0 {
		t.Fatal("Reset did not restore the ladder's hot phase")
	}
}
