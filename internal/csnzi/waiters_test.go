package csnzi

import (
	"sync"
	"sync/atomic"
	"testing"
)

// White-box tests of the waiters flag against the raw root word: which
// transitions set, keep and clear bit 62, and that no drain test is
// fooled by it. The behavioural contract is tabulated once for every
// indicator in internal/rind.

func TestRootWordTransitionsUnderWaitersFlag(t *testing.T) {
	steps := []struct {
		name string
		from uint64
		op   func(c *CSNZI) bool
		ok   bool
		to   uint64
	}{
		{"mark on open", 0, (*CSNZI).MarkWaiters, false, 0},
		{"mark on open with surplus", 2, (*CSNZI).MarkWaiters, false, 2},
		{"mark on write-acquired", closedBit, (*CSNZI).MarkWaiters, true, closedBit | waitersBit},
		{"mark twice", closedBit | waitersBit, (*CSNZI).MarkWaiters, true, closedBit | waitersBit},
		{"mark on closed with surplus", closedBit | treeOne | 1, (*CSNZI).MarkWaiters, true, closedBit | waitersBit | treeOne | 1},
		{"close-and-mark on free", 0, (*CSNZI).CloseAndMark, true, closedBit},
		{"close-and-mark over readers", 3, (*CSNZI).CloseAndMark, false, closedBit | waitersBit | 3},
		{"close-and-mark on closed", closedBit, (*CSNZI).CloseAndMark, false, closedBit | waitersBit},
		{"close-and-mark on marked", closedBit | waitersBit | 1, (*CSNZI).CloseAndMark, false, closedBit | waitersBit | 1},
		{"release unmarked", closedBit, (*CSNZI).OpenIfNoWaiters, true, 0},
		{"release marked", closedBit | waitersBit, (*CSNZI).OpenIfNoWaiters, false, closedBit | waitersBit},
		{"release open", 0, (*CSNZI).OpenIfNoWaiters, false, 0},
		{"release with surplus", closedBit | 1, (*CSNZI).OpenIfNoWaiters, false, closedBit | 1},
		{"upgrade marked", closedBit | waitersBit | 1, (*CSNZI).TryUpgrade, true, closedBit | waitersBit},
		{"upgrade unmarked", closedBit | 1, (*CSNZI).TryUpgrade, true, closedBit},
		{"upgrade open", 1, (*CSNZI).TryUpgrade, true, closedBit},
		{"last direct depart, marked", closedBit | waitersBit | 1, func(c *CSNZI) bool { return c.DepartRoot() }, false, closedBit | waitersBit},
		{"direct depart, marked, surplus left", closedBit | waitersBit | 2, func(c *CSNZI) bool { return c.DepartRoot() }, true, closedBit | waitersBit | 1},
		{"last tree depart, marked", closedBit | waitersBit | treeOne, func(c *CSNZI) bool { return c.rootTreeDepart() }, false, closedBit | waitersBit},
		{"tree arrival refused on write-acquired, marked", closedBit | waitersBit, func(c *CSNZI) bool { return c.rootTreeArrive() }, false, closedBit | waitersBit},
		{"tree arrival joins closed surplus, marked", closedBit | waitersBit | 1, func(c *CSNZI) bool { return c.rootTreeArrive() }, true, closedBit | waitersBit | treeOne | 1},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			c := New()
			c.root.Store(s.from)
			if got := s.op(c); got != s.ok {
				t.Errorf("returned %v, want %v", got, s.ok)
			}
			if got := c.root.Load(); got != s.to {
				t.Errorf("root word %#x -> %#x, want %#x", s.from, got, s.to)
			}
		})
	}
}

func TestOpensClearAndKeepWaitersFlag(t *testing.T) {
	c := New()
	c.root.Store(closedBit | waitersBit)
	c.Open()
	if w := c.root.Load(); w != 0 {
		t.Fatalf("Open left %#x", w)
	}
	c.root.Store(closedBit | waitersBit)
	c.OpenWithArrivals(3, false)
	if w := c.root.Load(); w != 3 {
		t.Fatalf("OpenWithArrivals(3, false) left %#x", w)
	}
	c.root.Store(closedBit | waitersBit)
	c.OpenWithArrivals(3, true)
	if w := c.root.Load(); w != closedBit|waitersBit|3 {
		t.Fatalf("OpenWithArrivals(3, true) on a marked word left %#x", w)
	}
	c.root.Store(closedBit)
	c.OpenWithArrivals(3, true)
	if w := c.root.Load(); w != closedBit|3 {
		t.Fatalf("OpenWithArrivals(3, true) on an unmarked word left %#x", w)
	}
	if got := c.Describe(); got != "C-SNZI{state=CLOSED direct=3 tree=0}" {
		t.Fatalf("Describe = %s", got)
	}
	c.MarkWaiters()
	if got := c.Describe(); got != "C-SNZI{state=CLOSED+WAITERS direct=3 tree=0}" {
		t.Fatalf("Describe = %s", got)
	}
}

// TestMarkRacesRelease: a marker and the owner's one-CAS release race
// on a write-acquired word. Exactly one of "the release succeeded" and
// "the marker found the word closed" holds each round — never neither
// (a lost wake-up) and never both (a released word still marked).
func TestMarkRacesRelease(t *testing.T) {
	const rounds = 20000
	c := New()
	var marks, releases atomic.Int64
	for i := 0; i < rounds; i++ {
		if !c.CloseIfEmpty() {
			t.Fatalf("round %d: word %#x not free", i, c.root.Load())
		}
		var wg sync.WaitGroup
		var markedIt, released bool
		wg.Add(2)
		go func() { defer wg.Done(); markedIt = c.MarkWaiters() }()
		go func() { defer wg.Done(); released = c.OpenIfNoWaiters() }()
		wg.Wait()
		if markedIt == released {
			t.Fatalf("round %d: marked=%v released=%v, word %#x", i, markedIt, released, c.root.Load())
		}
		if markedIt {
			marks.Add(1)
			c.Open()
		} else {
			releases.Add(1)
		}
	}
	t.Logf("mark won %d rounds, release %d", marks.Load(), releases.Load())
}
