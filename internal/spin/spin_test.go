package spin

import (
	"sync"
	"testing"
	"time"

	"ollock/internal/park"
)

func TestMutexExclusion(t *testing.T) {
	var m Mutex
	counter := 0
	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates => exclusion violated)", counter, goroutines*iters)
	}
}

func TestMutexTryLock(t *testing.T) {
	var m Mutex
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex must succeed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex must fail")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock must succeed")
	}
	m.Unlock()
}

// TestMutexLockWith drives the policy-aware slow path under each wait
// mode: exclusion must hold whether contenders pause by spinning,
// yielding, or sleeping.
func TestMutexLockWith(t *testing.T) {
	for _, pol := range []*park.Policy{nil, park.New(park.ModeAdaptive)} {
		pol := pol
		t.Run(pol.Mode().String(), func(t *testing.T) {
			var m Mutex
			counter := 0
			const goroutines, iters = 8, 1000
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						m.LockWith(pol)
						counter++
						m.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != goroutines*iters {
				t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
			}
		})
	}
}

func TestWaiterSignalBeforeWait(t *testing.T) {
	var w Waiter
	w.Signal()
	w.Wait() // must return immediately
}

func TestWaiterSignalAfterWait(t *testing.T) {
	var w Waiter
	done := make(chan struct{})
	go func() {
		w.Wait()
		close(done)
	}()
	w.Signal()
	<-done
}

func TestWaiterReset(t *testing.T) {
	var w Waiter
	w.Signal()
	w.Wait()
	w.Reset()
	done := make(chan struct{})
	go func() {
		w.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait returned after Reset without a Signal")
	default:
	}
	w.Signal()
	<-done
}

func TestMutexManyCycles(t *testing.T) {
	// Rapid lock/unlock cycles from two goroutines, checking alternation
	// never corrupts state.
	var m Mutex
	var held bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				m.Lock()
				if held {
					t.Error("mutex held by two goroutines")
				}
				held = true
				held = false
				m.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestMutexSlowPath forces the contended path: a goroutine must enter
// the backoff loop while the mutex is held, then acquire after release.
func TestMutexSlowPath(t *testing.T) {
	var m Mutex
	m.Lock()
	acquired := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		m.Lock() // must spin: lock is held
		close(acquired)
		m.Unlock()
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let it reach the spin loop
	select {
	case <-acquired:
		t.Fatal("acquired while held")
	default:
	}
	m.Unlock()
	select {
	case <-acquired:
	case <-time.After(20 * time.Second):
		t.Fatal("never acquired after release")
	}
}

// TestWaiterWaitSpinsThenYields covers the parked-wait path: Signal
// arrives only after the waiter has entered its yield loop.
func TestWaiterLongWait(t *testing.T) {
	var w Waiter
	done := make(chan struct{})
	go func() {
		w.Wait()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond) // waiter is in the yield phase
	w.Signal()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("waiter stuck")
	}
}
