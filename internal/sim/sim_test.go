package sim

import (
	"runtime"
	"testing"
)

func small() Config {
	return Config{
		Chips: 2, ThreadsPerChip: 4, ThreadsPerCore: 2,
		CostLocal: 1, CostCore: 5, CostShared: 30, CostRemote: 120, CostOp: 3,
		MaxSteps: 10_000_000,
	}
}

func TestSingleThreadWork(t *testing.T) {
	m := New(small())
	m.Spawn(func(c *Ctx) {
		c.Work(100)
	})
	end := m.Run()
	// sync (announce) + Work's sync charge CostOp each, plus 100 cycles.
	want := int64(2*3 + 100)
	if end != want {
		t.Fatalf("end clock = %d, want %d", end, want)
	}
}

func TestLoadCosts(t *testing.T) {
	m := New(small())
	w := m.NewWord(7)
	var first, second, third uint64
	var c1, c2, c3 int64
	m.Spawn(func(c *Ctx) {
		t0 := c.Now()
		first = c.Load(w) // memory fetch: remote cost
		c1 = c.Now() - t0
		t0 = c.Now()
		second = c.Load(w) // cached: local cost
		c2 = c.Now() - t0
		t0 = c.Now()
		c.Store(w, 9) // sole sharer upgrade: local cost
		third = c.Load(w)
		c3 = c.Now() - t0
	})
	m.Run()
	if first != 7 || second != 7 || third != 9 {
		t.Fatalf("values %d,%d,%d", first, second, third)
	}
	cfg := small()
	if c1 != cfg.CostOp+cfg.CostRemote {
		t.Fatalf("first load cost %d, want %d", c1, cfg.CostOp+cfg.CostRemote)
	}
	if c2 != cfg.CostOp+cfg.CostLocal {
		t.Fatalf("cached load cost %d, want %d", c2, cfg.CostOp+cfg.CostLocal)
	}
	if c3 != 2*(cfg.CostOp+cfg.CostLocal) {
		t.Fatalf("upgrade store + cached load cost %d, want %d", c3, 2*(cfg.CostOp+cfg.CostLocal))
	}
}

func TestTransferCostTiers(t *testing.T) {
	cfg := small() // 2 threads/core, 4 threads/chip: id0 core0, id1 core0, id2 core1/chip0, id4 chip1
	m := New(cfg)
	w := m.NewWord(0)
	var costCore, costChip, costRemote int64
	order := m.NewWord(0)
	m.Spawn(func(c *Ctx) { // id 0: writer, core 0, chip 0
		c.Store(w, 42)
		c.Store(order, 1)
	})
	m.Spawn(func(c *Ctx) { // id 1: same core as writer
		c.SpinUntil(order, func(v uint64) bool { return v == 3 })
		t0 := c.Now()
		c.Load(w)
		costCore = c.Now() - t0
	})
	m.Spawn(func(c *Ctx) { // id 2: same chip, different core
		c.SpinUntil(order, func(v uint64) bool { return v == 2 })
		t0 := c.Now()
		c.Load(w)
		costChip = c.Now() - t0
		c.Store(order, 3)
	})
	m.Spawn(func(c *Ctx) {}) // id 3
	m.Spawn(func(c *Ctx) {   // id 4: different chip
		c.SpinUntil(order, func(v uint64) bool { return v == 1 })
		t0 := c.Now()
		c.Load(w)
		costRemote = c.Now() - t0
		c.Store(order, 2)
	})
	m.Run()
	if costRemote != cfg.CostOp+cfg.CostRemote {
		t.Fatalf("cross-chip read cost %d, want %d", costRemote, cfg.CostOp+cfg.CostRemote)
	}
	if costChip != cfg.CostOp+cfg.CostShared {
		t.Fatalf("same-chip read cost %d, want %d", costChip, cfg.CostOp+cfg.CostShared)
	}
	if costCore != cfg.CostOp+cfg.CostCore {
		t.Fatalf("same-core read cost %d, want %d", costCore, cfg.CostOp+cfg.CostCore)
	}
}

func TestCASSemantics(t *testing.T) {
	m := New(small())
	w := m.NewWord(5)
	var ok1, ok2 bool
	var final uint64
	m.Spawn(func(c *Ctx) {
		ok1 = c.CAS(w, 5, 6)
		ok2 = c.CAS(w, 5, 7)
		final = c.Load(w)
	})
	m.Run()
	if !ok1 || ok2 || final != 6 {
		t.Fatalf("CAS semantics wrong: %v %v %d", ok1, ok2, final)
	}
}

func TestSwapChain(t *testing.T) {
	m := New(small())
	w := m.NewWord(0)
	results := make([]uint64, 4)
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn(func(c *Ctx) {
			results[i] = c.Swap(w, uint64(i+1))
		})
	}
	m.Run()
	// The four swap returns must be distinct and include the initial 0
	// (FetchAndStore chain property).
	seen := map[uint64]bool{}
	for _, v := range results {
		seen[v] = true
	}
	if !seen[0] {
		t.Fatal("initial value 0 never returned by any swap")
	}
	if len(seen) != 4 {
		t.Fatalf("swap returns not distinct: %v", results)
	}
}

func TestAddAtomicity(t *testing.T) {
	m := New(small())
	w := m.NewWord(0)
	for i := 0; i < 8; i++ {
		m.Spawn(func(c *Ctx) {
			for j := 0; j < 100; j++ {
				c.Add(w, 1)
			}
		})
	}
	m.Run()
	if w.val != 800 {
		t.Fatalf("final = %d, want 800", w.val)
	}
}

func TestSpinUntilWakesAtWriterTime(t *testing.T) {
	cfg := small()
	m := New(cfg)
	w := m.NewWord(0)
	var wakeClock, writeClock int64
	m.Spawn(func(c *Ctx) { // waiter
		c.SpinUntil(w, func(v uint64) bool { return v == 1 })
		wakeClock = c.Now()
	})
	m.Spawn(func(c *Ctx) { // writer
		c.Work(1000)
		c.Store(w, 1)
		writeClock = c.Now()
	})
	m.Run()
	if wakeClock < writeClock {
		t.Fatalf("waiter woke at %d before writer finished at %d", wakeClock, writeClock)
	}
	// The waiter's extra cost beyond the writer's finish is one re-check
	// (CostOp + transfer).
	if wakeClock > writeClock+cfg.CostOp+cfg.CostRemote+cfg.CostShared {
		t.Fatalf("wake cost too high: woke %d, write at %d", wakeClock, writeClock)
	}
}

// TestWordsShareOneLine: words made with NewWordOn share their line's
// coherence state — an access to one is charged as an access to the
// other would be — and keep their own values and watchers.
func TestWordsShareOneLine(t *testing.T) {
	cfg := small() // id 0 on core 0, id 2 on core 1, same chip
	m := New(cfg)
	a := m.NewWord(0)
	b := m.NewWordOn(a, 0)
	c3 := m.NewWordOn(b, 0) // made on a secondary word: lands on a's line
	order := m.NewWord(0)
	if b.line != a || c3.line != a {
		t.Fatal("NewWordOn did not resolve to the first word's line")
	}
	var hit, miss, missViaSecondary int64
	var wakes []Event
	m.SetTrace(func(e Event) {
		if e.Kind == EvSpinWake && e.Word != order.ID() {
			wakes = append(wakes, e)
		}
	})
	m.Spawn(func(c *Ctx) {
		c.Store(a, 1)
		t0 := c.Now()
		c.Load(b) // the store to a brought the line here
		hit = c.Now() - t0
		c.Store(order, 1)
		c.SpinUntil(order, func(v uint64) bool { return v == 2 })
		t0 = c.Now()
		c.Load(a) // core 1's store to b invalidated this copy
		miss = c.Now() - t0
		c.Store(order, 3)
		c.SpinUntil(a, func(v uint64) bool { return v == 2 }) // not woken by b
		c.SpinUntil(order, func(v uint64) bool { return v == 4 })
		t0 = c.Now()
		c.Load(a)
		missViaSecondary = c.Now() - t0
	})
	m.Spawn(func(c *Ctx) {})
	m.Spawn(func(c *Ctx) {
		c.SpinUntil(order, func(v uint64) bool { return v == 1 })
		c.Store(b, 7)
		c.Store(order, 2)
		c.SpinUntil(order, func(v uint64) bool { return v == 3 })
		c.Store(b, 8)
		c.Store(a, 2)
		c.Store(c3, 9)
		c.Store(order, 4)
	})
	m.Run()
	if hit != cfg.CostOp+cfg.CostLocal {
		t.Errorf("load of a word on the line the thread just stored to cost %d, want a private hit %d", hit, cfg.CostOp+cfg.CostLocal)
	}
	if want := cfg.CostOp + cfg.CostShared; miss != want || missViaSecondary != want {
		t.Errorf("loads after another core stored to the line cost %d and %d, want the on-chip transfer %d", miss, missViaSecondary, want)
	}
	if len(wakes) != 1 || wakes[0].Word != a.ID() || wakes[0].Value != 2 {
		t.Errorf("wakes on the shared line = %+v, want one, by the store of 2 to a", wakes)
	}
	if a.Value() != 2 || b.Value() != 8 || c3.Value() != 9 {
		t.Errorf("values a=%d b=%d c3=%d, want 2 8 9", a.Value(), b.Value(), c3.Value())
	}
}

// TestSpinnerReloadsSharedLine: a store to one word of a line
// invalidates the copy of a thread spinning on another word of it; the
// spinner reloads the line at once, so the next store to the line pays
// to invalidate it again. Here the MCS hand-off: B (chip 1) spins on its
// flag, C (chip 0) links behind B on the same line, then A (chip 0)
// grants B. A's store must cost the cross-chip invalidation of B's copy,
// not only the on-chip fetch from C — whichever word of the line B spins
// on.
func TestSpinnerReloadsSharedLine(t *testing.T) {
	for _, spinOnSecondary := range []bool{true, false} {
		cfg := small() // ids 0 and 2 on chip 0 (cores 0, 1), id 4 on chip 1
		m := New(cfg)
		link := m.NewWord(0)
		flag := m.NewWordOn(link, 0)
		if !spinOnSecondary {
			link, flag = flag, link
		}
		order := m.NewWord(0)
		var grant int64
		m.Spawn(func(c *Ctx) { // A
			c.SpinUntil(order, func(v uint64) bool { return v == 1 })
			t0 := c.Now()
			c.Store(flag, 1)
			grant = c.Now() - t0
		})
		m.Spawn(func(c *Ctx) {})
		m.Spawn(func(c *Ctx) { // C
			c.Work(1000)
			c.Store(link, 1)
			c.Store(order, 1)
		})
		m.Spawn(func(c *Ctx) {})
		m.Spawn(func(c *Ctx) { // B
			c.SpinUntil(flag, func(v uint64) bool { return v == 1 })
		})
		m.Run()
		if want := cfg.CostOp + cfg.CostRemote; grant != want {
			t.Errorf("spin on secondary word %v: grant cost %d, want %d (invalidate the spinner's reloaded copy)",
				spinOnSecondary, grant, want)
		}
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deadlock did not panic")
		}
	}()
	m := New(small())
	w := m.NewWord(0)
	m.Spawn(func(c *Ctx) {
		c.SpinUntil(w, func(v uint64) bool { return v == 1 }) // never satisfied
	})
	m.Run()
}

func TestMaxStepsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxSteps did not panic")
		}
	}()
	cfg := small()
	cfg.MaxSteps = 10
	m := New(cfg)
	m.Spawn(func(c *Ctx) {
		for {
			c.Work(1)
		}
	})
	m.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, []Stats) {
		m := New(small())
		w := m.NewWord(0)
		lockWord := m.NewWord(0)
		for i := 0; i < 8; i++ {
			m.Spawn(func(c *Ctx) {
				for j := 0; j < 50; j++ {
					// spin lock: CAS 0->1, increment, release
					for !c.CAS(lockWord, 0, 1) {
						c.SpinUntil(lockWord, func(v uint64) bool { return v == 0 })
					}
					c.Store(w, c.Load(w)+1)
					c.Store(lockWord, 0)
				}
			})
		}
		end := m.Run()
		return end, m.ThreadStats()
	}
	end1, st1 := run()
	end2, st2 := run()
	if end1 != end2 {
		t.Fatalf("end times differ: %d vs %d", end1, end2)
	}
	for i := range st1 {
		if st1[i] != st2[i] {
			t.Fatalf("thread %d stats differ: %+v vs %+v", i, st1[i], st2[i])
		}
	}
}

func TestSpinLockProgramCorrect(t *testing.T) {
	m := New(small())
	counter := m.NewWord(0)
	lockWord := m.NewWord(0)
	const threads, iters = 8, 200
	for i := 0; i < threads; i++ {
		m.Spawn(func(c *Ctx) {
			for j := 0; j < iters; j++ {
				for !c.CAS(lockWord, 0, 1) {
					c.SpinUntil(lockWord, func(v uint64) bool { return v == 0 })
				}
				c.Store(counter, c.Load(counter)+1)
				c.Store(lockWord, 0)
			}
		})
	}
	m.Run()
	if counter.val != threads*iters {
		t.Fatalf("counter = %d, want %d (simulated exclusion broken)", counter.val, threads*iters)
	}
}

func TestThreadPlacement(t *testing.T) {
	m := New(small())
	chips := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		m.Spawn(func(c *Ctx) {
			chips[i] = c.Chip()
			if c.ID() != i {
				t.Errorf("thread %d has ID %d", i, c.ID())
			}
		})
	}
	m.Run()
	for i, chip := range chips {
		if want := i / 4; chip != want {
			t.Fatalf("thread %d on chip %d, want %d", i, chip, want)
		}
	}
}

func TestSpawnBeyondCapacityPanics(t *testing.T) {
	m := New(Config{Chips: 1, ThreadsPerChip: 1, CostLocal: 1, CostShared: 2, CostRemote: 3, CostOp: 1})
	m.Spawn(func(c *Ctx) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Spawn(func(c *Ctx) {})
}

func TestT5440Shape(t *testing.T) {
	cfg := T5440()
	if cfg.Chips != 4 || cfg.ThreadsPerChip != 64 || cfg.ThreadsPerCore != 8 {
		t.Fatal("T5440 topology wrong")
	}
	if !(cfg.CostLocal < cfg.CostCore && cfg.CostCore < cfg.CostShared && cfg.CostShared < cfg.CostRemote) {
		t.Fatal("cost ordering wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	m := New(Config{Chips: 1, ThreadsPerChip: 4, CostLocal: 1, CostShared: 10, CostRemote: 50, CostOp: 1})
	cfg := m.Config()
	if cfg.ThreadsPerCore != 4 {
		t.Fatalf("ThreadsPerCore default = %d, want ThreadsPerChip", cfg.ThreadsPerCore)
	}
	if cfg.CostCore != 10 {
		t.Fatalf("CostCore default = %d, want CostShared", cfg.CostCore)
	}
}

func TestConfigBadCoreSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ThreadsPerCore not dividing ThreadsPerChip")
		}
	}()
	New(Config{Chips: 1, ThreadsPerChip: 4, ThreadsPerCore: 3, CostLocal: 1, CostCore: 2, CostShared: 10, CostRemote: 50, CostOp: 1})
}

func TestContentionSlowsSharedCounter(t *testing.T) {
	// Sanity for the scaling experiments: per-op cost of a shared
	// atomic counter grows with thread count, while per-op cost of
	// per-thread counters stays flat.
	perOp := func(threads int, shared bool) float64 {
		m := New(small())
		words := make([]*Word, threads)
		sharedWord := m.NewWord(0)
		for i := 0; i < threads; i++ {
			if shared {
				words[i] = sharedWord
			} else {
				words[i] = m.NewWord(0)
			}
		}
		const iters = 200
		for i := 0; i < threads; i++ {
			w := words[i]
			m.Spawn(func(c *Ctx) {
				for j := 0; j < iters; j++ {
					c.Add(w, 1)
				}
			})
		}
		end := m.Run()
		return float64(end) / float64(iters)
	}
	sharedCost := perOp(8, true)
	privateCost := perOp(8, false)
	if sharedCost < 4*privateCost {
		t.Fatalf("shared counter per-op %v not clearly slower than private %v", sharedCost, privateCost)
	}
}

// settledGoroutines waits out goroutines still exiting from earlier
// tests and returns the count. One of them may yet exit later, so a leak
// shows as a count above this one, not merely different from it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, i = m, 0
		}
	}
	return n
}

func TestBodyPanicReachesRunCaller(t *testing.T) {
	before := settledGoroutines()
	m := New(small())
	w := m.NewWord(0)
	for i := 0; i < 3; i++ {
		m.Spawn(func(c *Ctx) {
			c.SpinUntil(w, func(v uint64) bool { return v == 1 }) // parked when the panic comes
		})
	}
	m.Spawn(func(c *Ctx) {
		c.Work(100)
		panic("boom")
	})
	m.Spawn(func(c *Ctx) { // ready, never started or mid-run, when the panic comes
		for {
			c.Work(1000)
		}
	})
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("Run's caller recovered %v, want the body's panic value", p)
			}
		}()
		m.Run()
	}()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the panic, %d before Run", after, before)
	}
}

func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	m := New(small())
	w := m.NewWord(0)
	unwound := 0
	for i := 0; i < 8; i++ {
		m.Spawn(func(c *Ctx) {
			defer func() { unwound++ }()
			c.SpinUntil(w, func(v uint64) bool { return v == 1 }) // never satisfied
		})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("deadlock did not panic")
			}
		}()
		m.Run()
	}()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the deadlock, %d before Run", after, before)
	}
	if unwound != 8 {
		t.Fatalf("%d of 8 parked bodies were unwound", unwound)
	}
}
