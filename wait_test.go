package ollock_test

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ollock"
)

// waitKinds are the lock kinds that accept a wait policy.
var waitKinds = []ollock.Kind{
	ollock.GOLL, ollock.FOLL, ollock.ROLL,
	ollock.KindBravoGOLL, ollock.KindBravoROLL, ollock.Central,
}

// TestWithWaitAllCombos drives every (kind, wait mode) pair through a
// mixed read/write workload: the lock must stay correct whether waiters
// spin or park on channels.
func TestWithWaitAllCombos(t *testing.T) {
	for _, kind := range waitKinds {
		for _, mode := range ollock.WaitModes() {
			kind, mode := kind, mode
			t.Run(string(kind)+"/"+string(mode), func(t *testing.T) {
				t.Parallel()
				const goroutines, iters = 6, 300
				l, err := ollock.New(kind, goroutines, ollock.WithWait(mode))
				if err != nil {
					t.Fatal(err)
				}
				counter := 0
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p := l.NewProc()
						for i := 0; i < iters; i++ {
							if i%5 == 0 {
								p.Lock()
								counter++
								p.Unlock()
							} else {
								p.RLock()
								_ = counter
								p.RUnlock()
							}
						}
					}()
				}
				wg.Wait()
				if counter != goroutines*iters/5 {
					t.Fatalf("counter = %d, want %d", counter, goroutines*iters/5)
				}
			})
		}
	}
}

func TestWithWaitRejections(t *testing.T) {
	// "array" was a mode once (DESIGN.md §3, the wait axis): it is an
	// unknown name now, not an alias.
	for _, mode := range []ollock.WaitMode{"no-such-mode", "array"} {
		_, err := ollock.New(ollock.GOLL, 1, ollock.WithWait(mode))
		if err == nil || !strings.Contains(err.Error(), "unknown wait mode") {
			t.Fatalf("WithWait(%q): err = %v, want unknown wait mode", mode, err)
		}
	}
	if got := ollock.WaitModes(); !reflect.DeepEqual(got, []ollock.WaitMode{ollock.WaitSpin, ollock.WaitAdaptive}) {
		t.Fatalf("WaitModes() = %v, want [spin adaptive]", got)
	}
	if _, err := ollock.New(ollock.KSUH, 1, ollock.WithWait(ollock.WaitAdaptive)); err == nil {
		t.Fatal("expected error for wait policy on a fixed-waiting kind")
	}
	// The default mode is accepted everywhere (it is a no-op).
	if _, err := ollock.New(ollock.KSUH, 1, ollock.WithWait(ollock.WaitSpin)); err != nil {
		t.Fatal(err)
	}
}

// TestWithWaitComposesWithIndicator exercises the deepest stack the
// facade can build: BRAVO bias over an OLL lock over a sharded
// indicator, all waiting through one shared policy.
func TestWithWaitComposesWithIndicator(t *testing.T) {
	for _, mode := range []ollock.WaitMode{ollock.WaitAdaptive} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			l, err := ollock.New(ollock.GOLL, 4,
				ollock.WithWait(mode), ollock.WithBias(), ollock.WithIndicator(ollock.IndicatorSharded))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := l.NewProc()
					for i := 0; i < 200; i++ {
						if i%7 == 0 {
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
		})
	}
}

// TestWithWaitParkCounters checks the observable difference between the
// modes: under WaitAdaptive a reader blocked behind a long write must
// eventually park (park.park/park.unpark count), and under the default
// spin mode the park.* names must not exist at all, keeping the
// historical counter set intact.
func TestWithWaitParkCounters(t *testing.T) {
	l, err := ollock.New(ollock.GOLL, 2, ollock.WithWait(ollock.WaitAdaptive), ollock.WithStats(""))
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewProc()
	w.Lock()
	done := make(chan struct{})
	go func() {
		r := l.NewProc()
		r.RLock()
		r.RUnlock()
		close(done)
	}()
	// Long enough for the reader to burn its spin and yield budgets and
	// park; the ladder reaches the park step within microseconds, so
	// this sleep is generous, not load-bearing.
	time.Sleep(50 * time.Millisecond)
	w.Unlock()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("reader never granted")
	}
	sn, ok := ollock.SnapshotOf(l)
	if !ok {
		t.Fatal("instrumented lock has no snapshot")
	}
	if sn.Counters["park.park"] == 0 || sn.Counters["park.unpark"] == 0 {
		t.Fatalf("reader blocked for 50ms never parked: park.park=%d park.unpark=%d",
			sn.Counters["park.park"], sn.Counters["park.unpark"])
	}

	spin := ollock.MustNew(ollock.GOLL, 2, ollock.WithStats(""))
	p := spin.NewProc()
	p.Lock()
	p.Unlock()
	sn, _ = ollock.SnapshotOf(spin)
	for name := range sn.Counters {
		if len(name) >= 5 && name[:5] == "park." {
			t.Fatalf("default spin lock exposes %s; park scope must be opt-in", name)
		}
	}
}

// TestParkWaitObservedPerUnpark pins what METRICS.md promises and the
// doctor's park-storm rule quotes as evidence: every park that ends in
// a wake feeds the park.wait histogram exactly once, whichever cell the
// waiter parked on — a GOLL queue entry (park.Waiter) or a FOLL/ROLL
// node flag (park.Flag). Six writers whose critical section outlasts
// the yield budget make the parks certain.
func TestParkWaitObservedPerUnpark(t *testing.T) {
	for _, kind := range []ollock.Kind{ollock.GOLL, ollock.FOLL, ollock.ROLL} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			const writers, iters = 6, 60
			l := ollock.MustNew(kind, writers, ollock.WithWait(ollock.WaitAdaptive), ollock.WithStats(""))
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := l.NewProc()
					for i := 0; i < iters; i++ {
						p.Lock()
						time.Sleep(20 * time.Microsecond)
						p.Unlock()
					}
				}()
			}
			wg.Wait()
			sn, _ := ollock.SnapshotOf(l)
			unparks := sn.Counters["park.unpark"]
			if unparks == 0 {
				t.Fatal("contended run never parked; the check below would be vacuous")
			}
			if got := sn.Hists["park.wait"].Count; got != unparks {
				t.Fatalf("park.wait count = %d, park.unpark = %d; every wake must be observed once", got, unparks)
			}
		})
	}
}

// TestWithWaitOversubscribed runs a 4x-GOMAXPROCS read-heavy workload
// under each mode — the regime the parking modes exist for. This is a
// liveness/correctness check, not a benchmark: it must finish.
func TestWithWaitOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription soak skipped in -short")
	}
	goroutines := 4 * runtime.GOMAXPROCS(0)
	for _, mode := range ollock.WaitModes() {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			l := ollock.MustNew(ollock.ROLL, goroutines, ollock.WithWait(mode))
			counter := 0
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := l.NewProc()
					for i := 0; i < 200; i++ {
						if i%20 == 0 {
							p.Lock()
							counter++
							p.Unlock()
						} else {
							p.RLock()
							_ = counter
							p.RUnlock()
						}
					}
				}()
			}
			wg.Wait()
			if counter != goroutines*200/20 {
				t.Fatalf("counter = %d, want %d", counter, goroutines*200/20)
			}
		})
	}
}
