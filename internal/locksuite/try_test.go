package locksuite

import (
	"sync"
	"sync/atomic"
	"testing"

	"ollock/internal/xrand"
)

// conservativeTry marks the queue-per-holder baselines whose tries
// succeed only on an empty queue: an active reader keeps its node
// queued, so a second try-read is guaranteed to fail instead of
// guaranteed to succeed.
var conservativeTry = map[string]bool{"ksuh": true, "mcs-rw": true}

// TestTrySemantics pins the non-blocking acquisition contract for every
// implementation: tries succeed on a free lock, fail under an
// exclusion-violating holder, never block, and leave the lock fully
// functional for blocking acquirers afterwards.
func TestTrySemantics(t *testing.T) {
	for _, impl := range Locks {
		impl := impl
		t.Run(impl.Name, func(t *testing.T) {
			mk := impl.New(4)
			p1, ok := mk().(TryProc)
			if !ok {
				t.Fatalf("%s proc does not implement TryProc", impl.Name)
			}
			p2 := mk().(TryProc)
			p3 := mk().(TryProc)

			// Fresh lock: try-write must succeed outright.
			if !p1.TryLock() {
				t.Fatal("TryLock failed on a fresh lock")
			}
			if p2.TryLock() {
				t.Fatal("TryLock succeeded while write-held")
			}
			if p2.TryRLock() {
				t.Fatal("TryRLock succeeded while write-held")
			}
			p1.Unlock()

			// Released: try-read must succeed again.
			if !p1.TryRLock() {
				t.Fatal("TryRLock failed on a free lock")
			}
			overlapped := p2.TryRLock()
			if conservativeTry[impl.Name] {
				if overlapped {
					t.Fatal("conservative try unexpectedly joined an active reader")
				}
			} else if !overlapped {
				t.Fatal("TryRLock failed alongside an active reader")
			}
			if p3.TryLock() {
				t.Fatal("TryLock succeeded while read-held")
			}
			if overlapped {
				p2.RUnlock()
			}
			p1.RUnlock()

			// Liveness: blocking acquisitions still work after the try
			// traffic (a try that corrupted queue or indicator state
			// would wedge or violate here).
			p3.Lock()
			p3.Unlock()
			p1.RLock()
			p2.RLock()
			p2.RUnlock()
			p1.RUnlock()

			// Free after reads: whatever the readers left behind (FOLL and
			// ROLL rest on the drained group, still enqueued), the lock is
			// free, and both tries must say so.
			if !p3.TryLock() {
				t.Fatal("TryLock failed on a lock free after reads")
			}
			p3.Unlock()
			p1.RLock()
			p1.RUnlock()
			if !p3.TryRLock() {
				t.Fatal("TryRLock failed on a lock free after reads")
			}
			p3.RUnlock()
		})
	}
}

// TestTryHammer races try-only acquirers on every implementation: tries
// never block, so the test cannot deadlock, and every success runs the
// exclusion invariant body. This is the only concurrent coverage for
// the baselines the chaos torture's cancellable matrix skips.
func TestTryHammer(t *testing.T) {
	const threads, ops = 4, 3000
	for _, impl := range Locks {
		impl := impl
		t.Run(impl.Name, func(t *testing.T) {
			t.Parallel()
			mk := impl.New(threads)
			var readers, writers atomic.Int32
			var violations atomic.Int64
			var successes atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p := mk().(TryProc)
					rng := xrand.New(uint64(id)*0x9E3779B9 + 77)
					for i := 0; i < ops; i++ {
						if rng.Bool(0.7) {
							if p.TryRLock() {
								successes.Add(1)
								readers.Add(1)
								if writers.Load() != 0 {
									violations.Add(1)
								}
								readers.Add(-1)
								p.RUnlock()
							}
						} else {
							if p.TryLock() {
								successes.Add(1)
								if writers.Add(1) != 1 || readers.Load() != 0 {
									violations.Add(1)
								}
								writers.Add(-1)
								p.Unlock()
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if v := violations.Load(); v != 0 {
				t.Errorf("%d exclusion violations", v)
			}
			if successes.Load() == 0 {
				t.Error("no try ever succeeded — tries are not making progress")
			}
		})
	}
}
