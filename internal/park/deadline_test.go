package park

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ollock/internal/obs"
)

func TestDeadlineBasics(t *testing.T) {
	var zero Deadline
	if !zero.None() || zero.Expired() || zero.Canceled() {
		t.Fatal("zero deadline is not the no-bound value")
	}
	past := DeadlineAfter(-time.Second)
	if past.None() || !past.Expired() || past.Canceled() {
		t.Fatal("past deadline did not expire")
	}
	if past.Err() != context.DeadlineExceeded {
		t.Fatalf("expired-by-clock Err = %v", past.Err())
	}
	future := DeadlineAt(time.Now().Add(time.Hour))
	if future.None() || future.Expired() {
		t.Fatal("future deadline expired early")
	}
	ctx, cancel := context.WithCancel(context.Background())
	dl := DeadlineCtx(ctx)
	if dl.None() || dl.Expired() {
		t.Fatal("live context deadline misbehaved")
	}
	cancel()
	if !dl.Expired() || !dl.Canceled() || dl.Err() != context.Canceled {
		t.Fatal("canceled context did not expire the deadline as a cancel")
	}
	// A context with its own deadline is captured so the spin phases can
	// poll the clock instead of calling ctx.Err.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel2()
	if dl2 := DeadlineCtx(ctx2); dl2.when == noClock {
		t.Fatal("DeadlineCtx dropped the context's own deadline")
	}
	// The zero time and out-of-range expiries keep their meanings in
	// the one-word clock: no bound, and never-by-clock.
	if !DeadlineAt(time.Time{}).None() {
		t.Fatal("DeadlineAt(zero time) is not the no-bound value")
	}
	if far := DeadlineAfter(1<<63 - 1); far.None() || far.Expired() {
		t.Fatal("saturated deadline misbehaved")
	}
	if base := DeadlineAt(clockBase); base.None() || !base.Expired() {
		t.Fatal("deadline on the clock base collapsed into the no-bound value")
	}
}

// lateCtx is a context whose deadline has passed but whose own timer
// has not fired yet: Err is still nil, Done still open. Real contexts
// sit in this state for the scheduling delay of their timer goroutine.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestCtxDeadlineClassifiedAsCancel pins the *.cancel / *.timeout rule:
// the bound's source decides, not which clock fires first. The captured
// copy of a context's deadline can expire before ctx.Err turns non-nil,
// and that abandonment is still a cancellation.
func TestCtxDeadlineClassifiedAsCancel(t *testing.T) {
	ctx := lateCtx{context.Background()}
	if ctx.Err() != nil {
		t.Fatal("stub context reports an error")
	}
	dl := DeadlineCtx(ctx)
	if !dl.Expired() {
		t.Fatal("passed context deadline did not expire the wait")
	}
	if !dl.Canceled() {
		t.Fatal("context-driven expiry classified as a timeout")
	}
	if err := dl.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", err)
	}
	var f Flag
	f.Set(true)
	if f.WaitUntil(nil, 0, nil, dl) {
		t.Fatal("raised flag reported granted")
	}
	if DeadlineAfter(-time.Second).Canceled() {
		t.Fatal("clock-only expiry classified as a cancel")
	}
}

func TestParkTimeout(t *testing.T) {
	sem := make(chan struct{}, 1)
	sem <- struct{}{}
	if !DeadlineAfter(time.Hour).ParkTimeout(sem) {
		t.Fatal("available token not consumed")
	}
	if DeadlineAfter(time.Millisecond).ParkTimeout(sem) {
		t.Fatal("empty channel reported a token")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if DeadlineCtx(ctx).ParkTimeout(sem) {
		t.Fatal("canceled context reported a token")
	}
}

// TestWaiterWaitUntil drives the timed waiter through timeout and grant
// under every mode, and pins the re-arm invariant: after a false return
// the same cell must complete a normal Wait/Signal round.
func TestWaiterWaitUntil(t *testing.T) {
	for name, pol := range policies(t) {
		t.Run(name, func(t *testing.T) {
			var w Waiter
			if w.WaitUntil(pol, 0, nil, DeadlineAfter(2*time.Millisecond)) {
				t.Fatal("unsignaled waiter reported granted")
			}
			// Re-armed: a fresh Signal/Wait round on the same cell works.
			done := make(chan struct{})
			go func() {
				w.Wait(pol, 0, nil)
				close(done)
			}()
			time.Sleep(time.Millisecond)
			w.Signal()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("cell not re-armed after timeout: Wait hung")
			}
			w.Reset()

			// Pre-signaled: granted immediately even with an expired bound.
			w.Signal()
			if !w.WaitUntil(pol, 0, nil, DeadlineAfter(-time.Second)) {
				t.Fatal("pre-signaled waiter reported timeout")
			}
			w.Reset()

			// Zero deadline selects the untimed path and always grants.
			w.Signal()
			if !w.WaitUntil(pol, 0, nil, Deadline{}) {
				t.Fatal("no-bound WaitUntil reported timeout")
			}
		})
	}
}

// TestWaiterWaitUntilCtxCancel pins the context leg: cancellation during
// the park wakes the waiter with a timeout, not a hang.
func TestWaiterWaitUntilCtxCancel(t *testing.T) {
	pol := New(ModeAdaptive)
	var w Waiter
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan bool, 1)
	go func() {
		res <- w.WaitUntil(pol, 0, nil, DeadlineCtx(ctx))
	}()
	time.Sleep(2 * time.Millisecond) // let it reach the park
	cancel()
	select {
	case granted := <-res:
		if granted {
			t.Fatal("canceled wait reported granted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not wake the parked waiter")
	}
}

// TestWaiterTimeoutCounts checks a timed-out wait increments
// park.timeout and a granted one does not.
func TestWaiterTimeoutCounts(t *testing.T) {
	st := obs.New(obs.WithScopes("park"))
	pol := New(ModeAdaptive, WithStats(st))
	var w Waiter
	w.WaitUntil(pol, 0, nil, DeadlineAfter(time.Millisecond))
	if st.Count(obs.ParkTimeout) != 1 {
		t.Fatalf("park.timeout = %d after timeout, want 1", st.Count(obs.ParkTimeout))
	}
	w.Signal()
	w.WaitUntil(pol, 0, nil, DeadlineAfter(time.Hour))
	if st.Count(obs.ParkTimeout) != 1 {
		t.Fatalf("park.timeout = %d after grant, want 1", st.Count(obs.ParkTimeout))
	}
}

// TestWaiterTimeoutSignalRaceHandStepped hand-steps both outcomes of the
// token-validation race the deadline doc describes: the timed-out waiter
// CASes wParked→wIdle while Signal swaps the word and sends only if it
// observed wParked. Exactly one side may own the round.
func TestWaiterTimeoutSignalRaceHandStepped(t *testing.T) {
	// Step A — timeout wins the word: the CAS lands before Signal's
	// swap, so Signal must see wIdle and send nothing (a send here would
	// strand a token for the cell's next round).
	var w Waiter
	w.sem = make(chan struct{}, 1)
	w.state.Store(wParked)
	if !w.disarm(nil) {
		t.Fatal("timeout CAS failed with no signaler")
	}
	w.Signal()
	select {
	case <-w.sem:
		t.Fatal("Signal sent a token after losing the state word: stale token")
	default:
	}
	if w.state.Load() != wSignaled {
		t.Fatal("late Signal did not leave the cell signaled")
	}

	// Step B — Signal wins the word: the swap observed wParked, so a
	// send is committed; the waiter's CAS must fail and the token must
	// be there to consume (dropping it is the lost-wakeup bug).
	var w2 Waiter
	w2.sem = make(chan struct{}, 1)
	w2.state.Store(wParked)
	w2.Signal()
	if w2.disarm(nil) {
		t.Fatal("timeout CAS won after Signal committed")
	}
	select {
	case <-w2.sem:
	default:
		t.Fatal("committed Signal left no token: this is the lost wakeup")
	}
}

// TestFlagTimeoutRaceHandStepped hand-steps the Flag analogue: the
// timed-out waiter cancels its parked record; the granter's sweep only
// sends on records it claimed.
func TestFlagTimeoutRaceHandStepped(t *testing.T) {
	// Timeout wins: record canceled before the sweep. Clear must skip it.
	var f Flag
	f.Set(true)
	r := &parkRec{sem: make(chan struct{}, 1)}
	f.parked.Store(r)
	if !f.disarm(r) {
		t.Fatal("cancel CAS failed with no granter")
	}
	f.Clear()
	select {
	case <-r.sem:
		t.Fatal("sweep sent a wake to a timed-out record")
	default:
	}

	// Granter wins: the sweep claims the record first, so the waiter's
	// cancel CAS fails and the send is there to consume.
	f.Set(true)
	r2 := &parkRec{sem: make(chan struct{}, 1)}
	f.parked.Store(r2)
	f.Clear()
	if f.disarm(r2) {
		t.Fatal("cancel CAS won after the sweep claimed the record")
	}
	select {
	case <-r2.sem:
	default:
		t.Fatal("claimed record has no token: lost wakeup")
	}
}

// TestFlagWaitUntil drives the timed flag wait per mode: timeout on a
// raised flag, then a normal Clear round on the same flag (the canceled
// record must not wedge later generations).
func TestFlagWaitUntil(t *testing.T) {
	for name, pol := range policies(t) {
		t.Run(name, func(t *testing.T) {
			var f Flag
			f.Set(true)
			if f.WaitUntil(pol, 0, nil, DeadlineAfter(2*time.Millisecond)) {
				t.Fatal("raised flag reported granted")
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.Wait(pol, 0, nil)
			}()
			time.Sleep(time.Millisecond)
			f.Clear()
			waitDone(t, &wg, "post-timeout flag waiter")

			// A cleared flag grants instantly even with an expired bound.
			if !f.WaitUntil(pol, 0, nil, DeadlineAfter(-time.Second)) {
				t.Fatal("cleared flag reported timeout")
			}
		})
	}
}

// TestWaitCondUntil covers the condition ladder's timed variant: expiry
// with the condition false, success with it flipping mid-wait.
func TestWaitCondUntil(t *testing.T) {
	for name, pol := range policies(t) {
		t.Run(name, func(t *testing.T) {
			if WaitCondUntil(pol, 0, nil, func() bool { return false }, DeadlineAfter(2*time.Millisecond)) {
				t.Fatal("false condition reported granted")
			}
			var mu sync.Mutex
			flipped := false
			go func() {
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				flipped = true
				mu.Unlock()
			}()
			if !WaitCondUntil(pol, 0, nil, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return flipped
			}, DeadlineAfter(time.Hour)) {
				t.Fatal("flipping condition reported timeout")
			}
		})
	}
}

// TestWaiterTimeoutHammer races tight deadlines against concurrent
// Signals, per policy, under -race. Every round ends with the signal
// delivered: a waiter that timed out must still be able to Wait out the
// in-flight grant on the re-armed cell, and a stranded or stale token
// would surface as a hang or a spurious early grant in a later round.
func TestWaiterTimeoutHammer(t *testing.T) {
	for _, pol := range []*Policy{New(ModeSpin), New(ModeAdaptive)} {
		pol := pol
		t.Run(pol.Mode().String(), func(t *testing.T) {
			t.Parallel()
			const waiters = 8
			rounds := hammerRounds(t)
			var wg sync.WaitGroup
			for g := 0; g < waiters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g) + 100))
					var w Waiter
					for i := 0; i < rounds; i++ {
						// Draw all randomness before spawning: the rng is
						// not safe to share with the signaler goroutine.
						jitter := rng.Intn(3)
						sleep := time.Duration(rng.Intn(50)) * time.Microsecond
						// Deadlines from "already expired" to "past the
						// signal jitter" so timeouts land in every ladder
						// phase, including mid-park.
						d := time.Duration(rng.Intn(60)-10) * time.Microsecond
						done := make(chan struct{})
						go func() {
							switch jitter {
							case 0:
							case 1:
								runtime.Gosched()
							case 2:
								time.Sleep(sleep)
							}
							w.Signal()
							close(done)
						}()
						if !w.WaitUntil(pol, g, nil, DeadlineAfter(d)) {
							w.Wait(pol, g, nil) // grant still in flight; must arrive
						}
						<-done
						w.Reset()
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestFlagTimeoutHammer is the queue-node shape under deadlines: a gang
// descends on one flag with tight expiries, the granter clears at a
// random point, and every waiter must retry its way to a grant each
// round — canceled records accumulating on the list must never cost a
// wake.
func TestFlagTimeoutHammer(t *testing.T) {
	for _, pol := range []*Policy{New(ModeAdaptive)} {
		pol := pol
		t.Run(pol.Mode().String(), func(t *testing.T) {
			t.Parallel()
			const waiters = 6
			rounds := hammerRounds(t) / 3
			var f Flag
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < rounds; i++ {
				f.Set(true)
				var wg sync.WaitGroup
				for g := 0; g < waiters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						grng := rand.New(rand.NewSource(int64(i*waiters + g)))
						for {
							d := time.Duration(grng.Intn(40)-5) * time.Microsecond
							if f.WaitUntil(pol, g, nil, DeadlineAfter(d)) {
								return
							}
						}
					}(g)
				}
				switch rng.Intn(3) {
				case 0:
				case 1:
					runtime.Gosched()
				case 2:
					time.Sleep(time.Duration(rng.Intn(30)) * time.Microsecond)
				}
				f.Clear()
				waitDone(t, &wg, "timed flag waiters")
			}
		})
	}
}
