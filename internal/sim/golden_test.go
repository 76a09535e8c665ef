package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// The golden schedule pins what the engine owes its callers: which
// thread runs each step, and so every clock, count and traced event.
// testdata/golden_schedule.txt was recorded before the engine moved from
// goroutines and channels to coroutines, and an engine change must pass
// it unedited; only a change to the cost model may rewrite it.

// goldenProgram exercises, on the jitter-free small() machine: steps of
// different threads at equal clocks (threads 6 and 7 run the same Work
// sequence), one store waking three watchers, a thread finishing while
// others are parked, a watcher that re-blocks, and LoadStream.
func goldenProgram(m *Machine) {
	gate := m.NewWord(0)
	ctr := m.NewWord(0)
	slots := []*Word{m.NewWord(0), m.NewWord(0), m.NewWord(0)}
	waiter := func(slot int) func(*Ctx) {
		return func(c *Ctx) {
			c.SpinUntil(gate, func(v uint64) bool { return v == 1 })
			c.Add(ctr, 1)
			c.Store(slots[slot], uint64(c.ID()))
		}
	}
	m.Spawn(func(c *Ctx) { // 0: opens the gate, then waits for everyone
		c.Work(50)
		c.Store(gate, 1)
		c.LoadStream(slots)
		c.SpinUntil(ctr, func(v uint64) bool { return v == 18 })
		c.LoadStream(slots)
	})
	m.Spawn(waiter(0))     // 1
	m.Spawn(waiter(1))     // 2
	m.Spawn(func(c *Ctx) { // 3: finishes while 1, 2 and 5 are parked
		c.Work(5)
	})
	m.Spawn(func(c *Ctx) { // 4: contends on ctr from the other chip
		for j := 0; j < 5; j++ {
			c.Add(ctr, 1)
			c.Work(10)
		}
	})
	m.Spawn(waiter(2)) // 5
	lockstep := func(c *Ctx) {
		for j := 0; j < 4; j++ {
			c.Work(7)
		}
		if !c.CAS(ctr, 0, 99) { // fails: ctr is already non-zero
			c.Swap(gate, 1) // unchanged value: wakes nobody
		}
		for j := 0; j < 5; j++ {
			c.Add(ctr, 1)
		}
		c.Load(gate)
	}
	m.Spawn(lockstep) // 6
	m.Spawn(lockstep) // 7
}

func TestGoldenSchedule(t *testing.T) {
	m := New(small())
	var b strings.Builder
	m.SetTrace(func(e Event) {
		fmt.Fprintf(&b, "%d t%d %v w%d =%d waker=%d\n", e.Time, e.Thread, e.Kind, e.Word, e.Value, e.Waker)
	})
	goldenProgram(m)
	end := m.Run()
	fmt.Fprintf(&b, "end=%d steps=%d\n", end, m.Steps())
	for _, st := range m.ThreadStats() {
		fmt.Fprintf(&b, "%+v\n", st)
	}
	const path = "testdata/golden_schedule.txt"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i, g := range gl {
		w := "<end of file>"
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("schedule differs from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
	t.Fatalf("schedule has %d lines, %s has %d", len(gl), path, len(wl))
}

// TestEqualClocksRunInIDOrder checks the tie rule from outside the
// engine: every step is granted in strictly increasing (clock, id)
// order of the clock the thread asked at. The bodies are Work calls
// only, so the clock a step was granted at is Now() minus the work, and
// every amount is a multiple of CostOp, so clocks collide constantly.
// Both ways of choosing the next thread must meet a tie: thread 0,
// stepping every CostOp cycles, stays on ahead of thread 1 whenever the
// latter's long Work ends; once thread 2 starts stepping at the same
// pace, thread 0 takes over from it at every clock.
func TestEqualClocksRunInIDOrder(t *testing.T) {
	type grant struct {
		clock int64
		id    int
	}
	var grants []grant
	m := New(small())
	spawn := func(steps int, work func(j int) int64) {
		m.Spawn(func(c *Ctx) {
			for j := 0; j < steps; j++ {
				w := work(j)
				c.Work(w)
				grants = append(grants, grant{c.Now() - w, c.ID()})
			}
		})
	}
	spawn(60, func(int) int64 { return 0 })
	spawn(6, func(int) int64 { return 27 })
	spawn(20, func(j int) int64 {
		if j == 0 {
			return 99
		}
		return 0
	})
	m.Run()
	var stayed, tookOver int
	for i := 2; i < len(grants); i++ {
		a, b := grants[i-1], grants[i]
		if b.clock < a.clock || (b.clock == a.clock && b.id <= a.id) {
			t.Fatalf("step %d granted at (clock %d, thread %d) after (clock %d, thread %d)", i, b.clock, b.id, a.clock, a.id)
		}
		if b.clock != a.clock {
			continue
		}
		// a and b tied and a, with the lower id, went first: as the
		// thread already running, or taking over from another?
		if grants[i-2].id == a.id {
			stayed++
		} else {
			tookOver++
		}
	}
	if stayed == 0 || tookOver == 0 {
		t.Fatalf("ties: the running thread stayed on %d times, a lower id took over %d times; want both", stayed, tookOver)
	}
}
