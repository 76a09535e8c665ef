package locksuite

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock/internal/foll"
	"ollock/internal/lockcore"
	"ollock/internal/rind"
	"ollock/internal/roll"
	"ollock/internal/xrand"
)

// forEachLock runs f as a subtest per lock implementation.
func forEachLock(t *testing.T, f func(t *testing.T, impl Impl)) {
	for _, impl := range Locks {
		impl := impl
		t.Run(impl.Name, func(t *testing.T) {
			t.Parallel()
			f(t, impl)
		})
	}
}

func TestWriterWriterExclusion(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		const goroutines, iters = 8, 1500
		mk := impl.New(goroutines)
		counter := 0 // unsynchronized: exclusion must protect it
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := mk()
				for i := 0; i < iters; i++ {
					p.Lock()
					counter++
					p.Unlock()
				}
			}()
		}
		wg.Wait()
		if counter != goroutines*iters {
			t.Fatalf("counter = %d, want %d (writer exclusion violated)", counter, goroutines*iters)
		}
	})
}

func TestReaderWriterExclusion(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		const goroutines, iters = 8, 1200
		mk := impl.New(goroutines)
		var readers, writers atomic.Int32
		var violations atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := mk()
				r := xrand.New(uint64(id)*2654435761 + 1)
				for i := 0; i < iters; i++ {
					if r.Bool(0.7) {
						p.RLock()
						readers.Add(1)
						if writers.Load() != 0 {
							violations.Add(1)
						}
						readers.Add(-1)
						p.RUnlock()
					} else {
						p.Lock()
						if w := writers.Add(1); w != 1 {
							violations.Add(1)
						}
						if readers.Load() != 0 {
							violations.Add(1)
						}
						writers.Add(-1)
						p.Unlock()
					}
				}
			}(g)
		}
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d exclusion violations observed", v)
		}
	})
}

// TestReaderConcurrency verifies readers genuinely overlap: one reader
// holds the lock until a second reader has also acquired it.
func TestReaderConcurrency(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		mk := impl.New(2)
		firstIn := make(chan struct{})
		secondIn := make(chan struct{})
		done := make(chan struct{})
		go func() {
			p := mk()
			p.RLock()
			close(firstIn)
			<-secondIn // only reachable if the second reader overlaps us
			p.RUnlock()
			close(done)
		}()
		go func() {
			p := mk()
			<-firstIn
			p.RLock()
			close(secondIn)
			p.RUnlock()
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("readers failed to hold the lock concurrently")
		}
	})
}

// TestWriterBlocksReaders verifies a reader cannot acquire while a
// writer holds the lock.
func TestWriterBlocksReaders(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		mk := impl.New(2)
		w := mk()
		w.Lock()
		acquired := make(chan struct{})
		go func() {
			r := mk()
			r.RLock()
			close(acquired)
			r.RUnlock()
		}()
		select {
		case <-acquired:
			t.Fatal("reader acquired while writer held the lock")
		case <-time.After(50 * time.Millisecond):
		}
		w.Unlock()
		select {
		case <-acquired:
		case <-time.After(20 * time.Second):
			t.Fatal("reader never acquired after writer release")
		}
	})
}

// TestReaderBlocksWriter verifies a writer cannot acquire while readers
// hold the lock.
func TestReaderBlocksWriter(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		mk := impl.New(2)
		r := mk()
		r.RLock()
		acquired := make(chan struct{})
		go func() {
			w := mk()
			w.Lock()
			close(acquired)
			w.Unlock()
		}()
		select {
		case <-acquired:
			t.Fatal("writer acquired while a reader held the lock")
		case <-time.After(50 * time.Millisecond):
		}
		r.RUnlock()
		select {
		case <-acquired:
		case <-time.After(20 * time.Second):
			t.Fatal("writer never acquired after reader release")
		}
	})
}

// TestMixedStress hammers the lock with a random mix and validates the
// exclusion invariant via a guarded shared structure: each critical
// section checks and perturbs a multi-word value that only exclusion
// keeps consistent.
// mixedStress runs goroutines procs of mk through iters random
// acquisitions each at the given read ratio, checking a writer-guarded
// pair on every one.
func mixedStress(t *testing.T, mk ProcMaker, goroutines, iters int, ratio float64) {
	t.Helper()
	var a, b int64 // writer keeps a == b; readers verify
	var wg sync.WaitGroup
	var violations atomic.Int32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := mk()
			r := xrand.New(uint64(id+1) * 977)
			for i := 0; i < iters; i++ {
				if r.Bool(ratio) {
					p.RLock()
					if a != b {
						violations.Add(1)
					}
					p.RUnlock()
				} else {
					p.Lock()
					a++
					if a != b+1 {
						violations.Add(1)
					}
					b++
					p.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("read ratio %v: %d invariant violations", ratio, v)
	}
	if a != b {
		t.Fatalf("read ratio %v: final a=%d b=%d", ratio, a, b)
	}
}

func TestMixedStress(t *testing.T) {
	readRatios := []float64{0.0, 0.5, 0.95, 1.0}
	forEachLock(t, func(t *testing.T, impl Impl) {
		for _, ratio := range readRatios {
			const goroutines, iters = 10, 800
			mixedStress(t, impl.New(goroutines), goroutines, iters, ratio)
		}
	})
}

// TestQueueLocksRestAfterStress is the quiescence check of the
// ring-pool locks, over every read indicator: once the mixed stress
// drains, at most the resting reader group's node is still out of the
// pool, and the lock is idle — which for FOLL and ROLL includes every
// free ring node being back at rest, the state their enqueue sites'
// elided reset stores rely on.
func TestQueueLocksRestAfterStress(t *testing.T) {
	type pool interface {
		NodesInUse() int
		Idle() bool
	}
	const goroutines, iters = 10, 800
	for _, ind := range append([]string{"csnzi"}, lockcore.MatrixIndicators()...) {
		f := rind.CSNZIFactory()
		if ind != "csnzi" {
			f = matrixFactory(ind)
		}
		fl := foll.New(goroutines, foll.WithIndicator(f))
		rl := roll.New(goroutines, roll.WithIndicator(f))
		for name, c := range map[string]struct {
			mk ProcMaker
			l  pool
		}{
			"foll-" + ind: {func() Proc { return fl.NewProc() }, fl},
			"roll-" + ind: {func() Proc { return rl.NewProc() }, rl},
		} {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				mixedStress(t, c.mk, goroutines, iters, 0.5)
				if n := c.l.NodesInUse(); n > 1 {
					t.Fatalf("%d ring nodes in use at quiescence, want <= 1", n)
				}
				if !c.l.Idle() {
					t.Fatal("not idle at quiescence (queue occupied, or a free ring node not at rest)")
				}
			})
		}
	}
}

// TestOversubscription checks progress with many more goroutines than
// GOMAXPROCS (busy-wait loops must yield).
func TestOversubscription(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		const goroutines, iters = 32, 150
		mk := impl.New(goroutines)
		var total atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := mk()
				r := xrand.New(uint64(id+1) * 31337)
				for i := 0; i < iters; i++ {
					if r.Bool(0.9) {
						p.RLock()
						total.Add(1)
						p.RUnlock()
					} else {
						p.Lock()
						total.Add(1)
						p.Unlock()
					}
				}
			}(g)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("stalled: %d/%d operations completed", total.Load(), goroutines*iters)
		}
		if total.Load() != goroutines*iters {
			t.Fatalf("total = %d, want %d", total.Load(), goroutines*iters)
		}
	})
}

// TestAlternatingHandoff drives the worst case for hand-off logic:
// strict alternation between a reader group and writers.
func TestAlternatingHandoff(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		const rounds = 300
		mk := impl.New(4)
		var wg sync.WaitGroup
		var inWriter atomic.Bool
		var violations atomic.Int32
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := mk()
				for i := 0; i < rounds; i++ {
					p.RLock()
					if inWriter.Load() {
						violations.Add(1)
					}
					p.RUnlock()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := mk()
			for i := 0; i < rounds; i++ {
				p.Lock()
				inWriter.Store(true)
				inWriter.Store(false)
				p.Unlock()
			}
		}()
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d reader-during-writer violations", v)
		}
	})
}

// TestSequentialReuse exercises repeated acquire/release cycles from one
// goroutine, including kind switching, which stresses node reuse paths.
func TestSequentialReuse(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		mk := impl.New(1)
		p := mk()
		for i := 0; i < 500; i++ {
			p.RLock()
			p.RUnlock()
			p.Lock()
			p.Unlock()
			p.RLock()
			p.RUnlock()
		}
	})
}

// TestUpgradeDowngrade exercises the GOLL-specific upgrade/downgrade
// operations under contention.
func TestUpgradeDowngrade(t *testing.T) {
	for _, impl := range Locks {
		if !impl.Upgradable {
			continue
		}
		impl := impl
		t.Run(impl.Name, func(t *testing.T) {
			const goroutines, iters = 6, 400
			mk := impl.New(goroutines)
			var writers atomic.Int32
			var violations atomic.Int32
			var upgrades, failures atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p := mk()
					u := p.(Upgrader)
					r := xrand.New(uint64(id+1) * 7919)
					for i := 0; i < iters; i++ {
						p.RLock()
						if r.Bool(0.5) && u.TryUpgrade() {
							upgrades.Add(1)
							if w := writers.Add(1); w != 1 {
								violations.Add(1)
							}
							writers.Add(-1)
							if r.Bool(0.5) {
								u.Downgrade()
								p.RUnlock()
							} else {
								p.Unlock()
							}
						} else {
							failures.Add(1)
							p.RUnlock()
						}
					}
				}(g)
			}
			wg.Wait()
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d upgrade exclusion violations", v)
			}
			t.Logf("%s: %d upgrades, %d reads kept", impl.Name, upgrades.Load(), failures.Load())
		})
	}
}

// TestManyLocksIndependent verifies two lock instances do not interfere.
func TestManyLocksIndependent(t *testing.T) {
	forEachLock(t, func(t *testing.T, impl Impl) {
		mkA := impl.New(2)
		mkB := impl.New(2)
		a, b := mkA(), mkB()
		a.Lock()
		// Lock B must still be acquirable for writing while A is held.
		done := make(chan struct{})
		go func() {
			b.Lock()
			b.Unlock()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("independent lock blocked")
		}
		a.Unlock()
	})
}
