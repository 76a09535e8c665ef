package ollock_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ollock"
)

func TestNewAllKinds(t *testing.T) {
	for _, kind := range ollock.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			l, err := ollock.New(kind, 8)
			if err != nil {
				t.Fatal(err)
			}
			p := l.NewProc()
			p.RLock()
			p.RUnlock()
			p.Lock()
			p.Unlock()
		})
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := ollock.New("no-such-lock", 1); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	ollock.MustNew("bogus", 1)
}

func TestKindsCoverNew(t *testing.T) {
	if len(ollock.Kinds()) != 10 {
		t.Fatalf("Kinds() has %d entries, want 10", len(ollock.Kinds()))
	}
}

func TestWithBiasWrapsAnyKind(t *testing.T) {
	for _, kind := range []ollock.Kind{ollock.GOLL, ollock.FOLL, ollock.ROLL, ollock.Central} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			l := ollock.MustNew(kind, 4, ollock.WithBias())
			bl, ok := l.(*ollock.BravoLock)
			if !ok {
				t.Fatalf("WithBias returned %T, want *BravoLock", l)
			}
			if !bl.Biased() {
				t.Fatal("new biased lock is not read-biased")
			}
			p := bl.NewProc().(*ollock.BravoProc)
			p.RLock()
			if !p.ReadFastPath() {
				t.Fatal("first read under bias did not take the fast path")
			}
			p.RUnlock()
			p.Lock()
			p.Unlock()
			if bl.Biased() {
				t.Fatal("bias still armed after a write revoked it")
			}
		})
	}
}

func TestBravoKindsMatchWithBias(t *testing.T) {
	for _, kind := range []ollock.Kind{ollock.KindBravoGOLL, ollock.KindBravoROLL} {
		l := ollock.MustNew(kind, 4)
		if _, ok := l.(*ollock.BravoLock); !ok {
			t.Fatalf("New(%s) returned %T, want *BravoLock", kind, l)
		}
	}
}

func TestWithIndicatorAllCombos(t *testing.T) {
	for _, kind := range []ollock.Kind{ollock.GOLL, ollock.FOLL, ollock.ROLL, ollock.KindBravoGOLL, ollock.KindBravoROLL} {
		for _, ind := range ollock.IndicatorKinds() {
			kind, ind := kind, ind
			t.Run(string(kind)+"/"+string(ind), func(t *testing.T) {
				l, err := ollock.New(kind, 4, ollock.WithIndicator(ind))
				if err != nil {
					t.Fatal(err)
				}
				p := l.NewProc()
				p.RLock()
				p.RUnlock()
				p.Lock()
				p.Unlock()
			})
		}
	}
}

func TestWithIndicatorRejections(t *testing.T) {
	if _, err := ollock.New(ollock.GOLL, 1, ollock.WithIndicator("no-such-indicator")); err == nil {
		t.Fatal("expected error for unknown indicator kind")
	}
	if _, err := ollock.New(ollock.KSUH, 1, ollock.WithIndicator(ollock.IndicatorSharded)); err == nil {
		t.Fatal("expected error for indicator on a fixed-tracking kind")
	}
	// The default indicator is accepted everywhere (it is a no-op).
	if _, err := ollock.New(ollock.KSUH, 1, ollock.WithIndicator(ollock.IndicatorCSNZI)); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCounterAllKinds(t *testing.T) {
	for _, kind := range ollock.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			const goroutines, iters = 6, 400
			l := ollock.MustNew(kind, goroutines)
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

func TestGOLLProcImplementsUpgrader(t *testing.T) {
	l := ollock.NewGOLL()
	p := l.NewProc()
	u, ok := p.(ollock.Upgrader)
	if !ok {
		t.Fatal("GOLL proc does not implement Upgrader")
	}
	p.RLock()
	if !u.TryUpgrade() {
		t.Fatal("upgrade failed for sole reader")
	}
	u.Downgrade()
	p.RUnlock()
}

func TestCSNZIPublicSurface(t *testing.T) {
	c := ollock.NewCSNZI(ollock.CSNZIWithLeaves(8), ollock.CSNZIWithFanout(4))
	tk := c.Arrive(0)
	if !tk.Arrived() {
		t.Fatal("arrive failed on open C-SNZI")
	}
	if nz, open := c.Query(); !nz || !open {
		t.Fatal("query mismatch")
	}
	if !c.Depart(tk) {
		t.Fatal("depart from open C-SNZI returned false")
	}
	if !c.CloseIfEmpty() {
		t.Fatal("close-if-empty failed on drained C-SNZI")
	}
	c.Open()
}

func TestMCSMutexPublicSurface(t *testing.T) {
	m := ollock.NewMCSMutex()
	const goroutines, iters = 6, 800
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := m.NewProc()
			for i := 0; i < iters; i++ {
				p.Lock()
				counter++
				p.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

func TestReaderParallelismAllKinds(t *testing.T) {
	// Readers must overlap for every kind: reader A holds until reader B
	// arrives.
	for _, kind := range ollock.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			l := ollock.MustNew(kind, 2)
			var overlapped atomic.Bool
			aIn := make(chan struct{})
			done := make(chan struct{})
			go func() {
				p := l.NewProc()
				p.RLock()
				close(aIn)
				for !overlapped.Load() {
					runtime.Gosched()
				}
				p.RUnlock()
				close(done)
			}()
			go func() {
				p := l.NewProc()
				<-aIn
				p.RLock()
				overlapped.Store(true)
				p.RUnlock()
			}()
			<-done
		})
	}
}

func ExampleGOLLLock() {
	l := ollock.NewGOLL()
	p := l.NewProc()

	p.RLock()
	fmt.Println("reading")
	p.RUnlock()

	p.Lock()
	fmt.Println("writing")
	p.Unlock()
	// Output:
	// reading
	// writing
}

func ExampleGOLLProc_TryUpgrade() {
	l := ollock.NewGOLL()
	p := l.NewProc().(*ollock.GOLLProc)

	p.RLock()
	if p.TryUpgrade() {
		fmt.Println("upgraded to writer")
		p.Unlock()
	} else {
		p.RUnlock()
	}
	// Output:
	// upgraded to writer
}

func ExampleNew() {
	l := ollock.MustNew(ollock.ROLL, 4)
	var wg sync.WaitGroup
	sum := 0
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			p := l.NewProc()
			p.Lock()
			sum += v
			p.Unlock()
		}(i)
	}
	wg.Wait()
	fmt.Println(sum)
	// Output:
	// 10
}
