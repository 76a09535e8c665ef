package park

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Race hammers for the parking protocol. Run with -race; the scenarios
// aim the granter's clear-then-sweep directly at the waiter's
// push-then-recheck so the claim/cancel CAS race actually fires.

func hammerRounds(t *testing.T) int {
	if testing.Short() {
		return 300
	}
	return 3000
}

// TestWaiterHammer drives concurrent Wait/Signal rounds per policy,
// with the signaler racing the waiter's descent down the ladder.
func TestWaiterHammer(t *testing.T) {
	for _, pol := range []*Policy{New(ModeAdaptive)} {
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
					rng := rand.New(rand.NewSource(int64(g)))
					var w Waiter
					for i := 0; i < rounds; i++ {
						done := make(chan struct{})
						go func() {
							// Jitter so signals land in every ladder
							// phase: immediate, mid-spin, mid-yield,
							// and (occasionally) after the park.
							switch rng.Intn(3) {
							case 0:
							case 1:
								runtime.Gosched()
							case 2:
								time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
							}
							w.Signal()
							close(done)
						}()
						w.Wait(pol, g, nil)
						<-done
						w.Reset()
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestFlagHammer is the queue-node shape: each round raises one flag,
// a gang of waiters descends on it, and a single granter clears it at
// a random point in their descent. Every waiter must wake every round
// (a single missed wake hangs the test).
func TestFlagHammer(t *testing.T) {
	for _, pol := range []*Policy{New(ModeAdaptive)} {
		pol := pol
		t.Run(pol.Mode().String(), func(t *testing.T) {
			t.Parallel()
			const waiters = 6
			rounds := hammerRounds(t)
			var f Flag
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < rounds; i++ {
				f.Set(true)
				var wg sync.WaitGroup
				for g := 0; g < waiters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						f.Wait(pol, g, nil)
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
				waitDone(t, &wg, "hammer flag waiters")
			}
		})
	}
}

// TestWaitCondHammer races condition flips against the ladder's sleep
// tail under oversubscription (more goroutines than procs).
func TestWaitCondHammer(t *testing.T) {
	pol := New(ModeAdaptive)
	goroutines := 4 * runtime.GOMAXPROCS(0)
	rounds := hammerRounds(t) / 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var word sync.Map
			for i := 0; i < rounds; i++ {
				key := i
				go func() {
					runtime.Gosched()
					word.Store(key, true)
				}()
				WaitCond(pol, g, nil, func() bool {
					_, ok := word.Load(key)
					return ok
				})
			}
		}(g)
	}
	wg.Wait()
}
