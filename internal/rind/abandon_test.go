package rind

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestAbandonDrainExactlyOnce is the sealed-drain exactness property
// under abandonment, for every indicator kind: a writer closes the
// indicator against a churn of readers that all ABANDON (rather than
// release) their arrivals, and per close cycle exactly one abandoner
// inherits the drain hand-off. This is the accounting the lock-layer
// cancellation paths depend on — a cancelled reader is a departure
// like any other, and the exactly-once hand-off survives any mix of
// cancellations and normal releases.
func TestAbandonDrainExactlyOnce(t *testing.T) {
	for name := range implsUnderTest() {
		t.Run(name, func(t *testing.T) {
			const readers = 8
			const cycles = 1500
			ind := implsUnderTest()[name]
			var inherits atomic.Int64
			handoff := make(chan struct{}, readers)
			var stop atomic.Bool

			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for !stop.Load() {
						tk := ind.Arrive(id)
						if !tk.Arrived() {
							continue
						}
						// Simulated deadline expiry: every arrival is
						// abandoned instead of departed normally.
						if Abandon(ind, tk) {
							inherits.Add(1)
							handoff <- struct{}{}
						}
					}
				}(r)
			}

			var expect int64
			for c := 0; c < cycles; c++ {
				if !ind.Close() {
					<-handoff // exactly one abandoner must inherit
					expect++
				}
				if nonzero, open := ind.Query(); nonzero || open {
					t.Fatalf("cycle %d: Query=(%v,%v) while write-acquired", c, nonzero, open)
				}
				ind.Open()
			}
			stop.Store(true)
			wg.Wait()
			if got := inherits.Load(); got != expect {
				t.Fatalf("observed %d drain inheritances, want %d", got, expect)
			}
			if len(handoff) != 0 {
				t.Fatalf("%d surplus hand-off signals", len(handoff))
			}
			wantNoTree(t, name, ind)
		})
	}
}

// TestAbandonMixedWithDepart interleaves abandoning and normally
// departing readers against the closer: the drain must still be
// observed exactly once per cycle regardless of which flavour of
// departure takes the surplus to zero.
func TestAbandonMixedWithDepart(t *testing.T) {
	for name := range implsUnderTest() {
		t.Run(name, func(t *testing.T) {
			const readers = 6
			const cycles = 1000
			ind := implsUnderTest()[name]
			var drains atomic.Int64
			handoff := make(chan struct{}, readers)
			var stop atomic.Bool

			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					abandoner := id%2 == 0
					for !stop.Load() {
						tk := ind.Arrive(id)
						if !tk.Arrived() {
							continue
						}
						var inherited bool
						if abandoner {
							inherited = Abandon(ind, tk)
						} else {
							inherited = !ind.Depart(tk)
						}
						if inherited {
							drains.Add(1)
							handoff <- struct{}{}
						}
					}
				}(r)
			}

			var expect int64
			for c := 0; c < cycles; c++ {
				if !ind.Close() {
					<-handoff
					expect++
				}
				ind.Open()
			}
			stop.Store(true)
			wg.Wait()
			if got := drains.Load(); got != expect {
				t.Fatalf("observed %d drains, want %d", got, expect)
			}
			wantNoTree(t, name, ind)
		})
	}
}

// TestAbandonSequentialContract pins the return-value contract: while
// the indicator is open (or closed with remaining surplus) Abandon
// reports no inheritance; the abandonment that takes a closed
// indicator to zero reports inheritance.
func TestAbandonSequentialContract(t *testing.T) {
	for name, ind := range implsUnderTest() {
		t.Run(name, func(t *testing.T) {
			t1 := ind.Arrive(0)
			t2 := ind.Arrive(1)
			if !t1.Arrived() || !t2.Arrived() {
				t.Fatal("arrivals on open indicator failed")
			}
			if Abandon(ind, t1) {
				t.Fatal("Abandon on open indicator reported inheritance")
			}
			if ind.Close() {
				t.Fatal("Close acquired with surplus outstanding")
			}
			if !Abandon(ind, t2) {
				t.Fatal("last abandoner out of closed indicator did not inherit the drain")
			}
			ind.Open()
		})
	}
}
