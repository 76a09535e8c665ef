package sim

import "math/bits"

// Word is one simulated shared-memory word, assumed to occupy its own
// cache line (the real lock implementations pad their hot words the same
// way). Its coherence metadata tracks which threads hold valid copies so
// each access can be charged the right latency.
//
// Words must be created by Machine.NewWord and accessed only through Ctx
// primitives during Run.
type Word struct {
	id  int
	val uint64
	// Coherence is tracked at core granularity: the hardware threads of
	// one core share a cache (the T2+ L1), so a line resident in a core
	// is a hit for every thread of that core.
	//
	// ownerCore is the core holding the line exclusively (-1 none).
	ownerCore int32
	// lastWriterCore is the core of the last writer (-1 = only memory
	// has it); a missing copy is sourced from there.
	lastWriterCore int32
	// lastToucher is the thread that last accessed the line; a repeat
	// access by the same thread is a private hit (CostLocal), while a
	// same-core hit by a different thread costs CostCore.
	lastToucher int32
	// sharers is a bitset over core ids holding a valid shared copy.
	sharers []uint64
	// watchers are threads parked in SpinUntil on this word.
	watchers []*thread
	// lineFreeAt is the virtual time at which the line finishes its
	// current transfer: ownership transfers and writes of one line
	// serialize (a line has one owner at a time), which is the physical
	// mechanism behind "serializing updates to central data structures".
	lineFreeAt int64
}

// NewWord allocates a word initialized to val, resident only in memory.
func (m *Machine) NewWord(val uint64) *Word {
	m.words++
	cores := m.cfg.Chips * m.cfg.ThreadsPerChip / m.cfg.ThreadsPerCore
	return &Word{
		id:             m.words - 1,
		val:            val,
		ownerCore:      -1,
		lastWriterCore: -1,
		lastToucher:    -1,
		sharers:        make([]uint64, (cores+63)/64),
	}
}

// Words returns how many words have been allocated (diagnostic).
func (m *Machine) Words() int { return m.words }

// ID returns the word's allocation index, the identifier used in traced
// events.
func (w *Word) ID() int { return w.id }

// Init sets a word's value during setup, before Machine.Run, at no
// simulated cost. It must not be called once the simulation is running.
func (w *Word) Init(v uint64) { w.val = v }

// Value returns the word's current value without simulation accounting;
// for assertions in tests and post-run inspection.
func (w *Word) Value() uint64 { return w.val }

func (w *Word) sharerHas(id int) bool {
	return w.sharers[id/64]&(1<<(id%64)) != 0
}

func (w *Word) sharerAdd(id int) {
	w.sharers[id/64] |= 1 << (id % 64)
}

func (w *Word) sharersClear() {
	for i := range w.sharers {
		w.sharers[i] = 0
	}
}

func (w *Word) sharersEmptyExcept(id int) bool {
	for i, bits := range w.sharers {
		if i == id/64 {
			bits &^= 1 << (id % 64)
		}
		if bits != 0 {
			return false
		}
	}
	return true
}

// Transfer distance classes (between cores).
const (
	distNone   = 0 // no cached copy involved
	distChip   = 1 // between cores of one chip (L2)
	distRemote = 2 // across chips (coherency hubs) or memory
)

// coreDistance classifies a transfer from core `from` to thread `to`;
// from < 0 means the data comes from memory.
func (m *Machine) coreDistance(from int, to *thread) int {
	if from < 0 {
		return distRemote
	}
	coresPerChip := m.cfg.ThreadsPerChip / m.cfg.ThreadsPerCore
	if from/coresPerChip == to.chip {
		return distChip
	}
	return distRemote
}

// distCost maps a distance class to its latency.
func (m *Machine) distCost(d int) int64 {
	if d == distChip {
		return m.cfg.CostShared
	}
	return m.cfg.CostRemote
}

// hitCost is the latency of an access served by the caller's own core:
// a private hit if this thread touched the line last, otherwise an
// intra-core (shared L1) hit.
func (m *Machine) hitCost(w *Word, t *thread) int64 {
	if int(w.lastToucher) == t.id {
		return m.cfg.CostLocal
	}
	return m.cfg.CostCore
}

// maxSharerDistance returns the worst transfer class needed to
// invalidate every cached copy outside the writer's core.
func (w *Word) maxSharerDistance(m *Machine, writer *thread) int {
	worst := distNone
	if w.ownerCore >= 0 && int(w.ownerCore) != writer.core {
		worst = m.coreDistance(int(w.ownerCore), writer)
	}
	for i, word := range w.sharers {
		for word != 0 {
			idx := i*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if idx == writer.core {
				continue
			}
			d := m.coreDistance(idx, writer)
			if d > worst {
				worst = d
				if worst == distRemote {
					return worst
				}
			}
		}
	}
	return worst
}

// Ctx is a simulated thread's handle for shared-memory access. One Ctx
// is passed to each spawned body; it must not be used from any other
// goroutine.
type Ctx struct {
	m *Machine
	t *thread
	// yield parks the thread's coroutine, returning control to Run; it
	// reports false if Run has since stopped the thread.
	yield func(struct{}) bool
}

// ID returns the simulated thread's id (0-based, packed onto chips in
// order).
func (c *Ctx) ID() int { return c.t.id }

// Chip returns the chip this thread runs on.
func (c *Ctx) Chip() int { return c.t.chip }

// Now returns the thread's current virtual clock (cycles).
func (c *Ctx) Now() int64 { return c.t.clock }

// sync asks for this thread's next step, charging the per-primitive
// instruction cost plus jitter, and returns when the step is granted.
// The running thread is the only ready thread not in the heap, so if it
// is still (clock, id)-before the heap's root it is the thread Run
// would pick next: the step is counted and the thread simply carries
// on. Otherwise it parks, and Run puts it in the heap in the root's
// place.
func (c *Ctx) sync() {
	t, m := c.t, c.m
	t.clock += m.cfg.CostOp + c.jitter()
	if len(m.heap) == 0 || (heapEntry{t.clock, t}).before(m.heap[0]) {
		m.countStep()
		return
	}
	c.park()
}

// park returns control to Run until the thread is next resumed. A
// thread that Run stops instead (the run is over: deadlock, MaxSteps, a
// panic elsewhere) unwinds its body from here.
func (c *Ctx) park() {
	if !c.yield(struct{}{}) {
		panic(errStopped)
	}
}

// jitter returns this primitive's deterministic pseudo-random extra
// cycles (0..Config.Jitter), from a per-thread splitmix64 stream.
func (c *Ctx) jitter() int64 {
	j := c.m.cfg.Jitter
	if j <= 0 {
		return 0
	}
	z := c.t.rng + 0x9E3779B97F4A7C15
	c.t.rng = z
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z % uint64(j+1))
}

// charge advances the thread's clock by cost; accesses that move or
// mutate the line (occupy=true) additionally serialize through the
// line's transfer queue.
func (c *Ctx) charge(w *Word, cost int64, occupy bool) {
	t := c.t
	if occupy {
		start := t.clock
		if w.lineFreeAt > start {
			start = w.lineFreeAt
		}
		t.clock = start + cost
		w.lineFreeAt = t.clock
	} else {
		t.clock += cost
	}
}

// readCost charges the latency of reading w and updates its coherence
// metadata. Reads never occupy the line: once a written line is
// re-shared, refills are served in parallel (banked L2s, cache-to-cache
// forwarding); only ownership transfers serialize.
func (c *Ctx) readCost(w *Word) {
	t := c.t
	t.accesses++
	if int(w.ownerCore) == t.core || w.sharerHas(t.core) {
		c.charge(w, c.m.hitCost(w, t), false)
	} else {
		d := c.m.coreDistance(int(w.lastWriterCore), t)
		c.charge(w, c.m.distCost(d), false)
		if d == distRemote {
			t.remote++
		}
	}
	// The line becomes shared; a previous exclusive owner core is
	// downgraded.
	if w.ownerCore >= 0 && int(w.ownerCore) != t.core {
		w.sharerAdd(int(w.ownerCore))
		w.ownerCore = -1
	}
	w.sharerAdd(t.core)
	w.lastToucher = int32(t.id)
}

// writeCost charges the latency of gaining exclusive ownership of w for
// the caller's core (read-for-ownership + invalidations) and updates its
// metadata.
func (c *Ctx) writeCost(w *Word) {
	t := c.t
	t.accesses++
	switch {
	case int(w.ownerCore) == t.core:
		c.charge(w, c.m.hitCost(w, t), true)
	case w.sharerHas(t.core) && w.sharersEmptyExcept(t.core) && w.ownerCore < 0:
		// Sole sharing core upgrading to exclusive: no transfer needed.
		c.charge(w, c.m.hitCost(w, t), true)
	default:
		// Fetch the line from its last writer core (or memory) and
		// invalidate every other copy; charge the worst transfer.
		d := c.m.coreDistance(int(w.lastWriterCore), t)
		if inv := w.maxSharerDistance(c.m, t); inv > d {
			d = inv
		}
		c.charge(w, c.m.distCost(d), true)
		if d == distRemote {
			t.remote++
		}
	}
	w.ownerCore = int32(t.core)
	w.lastWriterCore = int32(t.core)
	w.lastToucher = int32(t.id)
	w.sharersClear()
	w.sharerAdd(t.core)
}

// wake unparks every watcher of w at the writer's current time.
func (c *Ctx) wake(w *Word) {
	if len(w.watchers) == 0 {
		return
	}
	for _, watcher := range w.watchers {
		if watcher.clock < c.t.clock {
			watcher.clock = c.t.clock
		}
		watcher.state = stateReady
		c.m.emitWake(watcher, w, c.t)
		c.m.push(watcher)
	}
	w.watchers = w.watchers[:0]
}

// Load returns the word's value.
func (c *Ctx) Load(w *Word) uint64 {
	c.sync()
	c.readCost(w)
	c.emit(EvLoad, w, w.val)
	return w.val
}

// Store sets the word's value.
func (c *Ctx) Store(w *Word, v uint64) {
	c.sync()
	c.writeCost(w)
	changed := w.val != v
	w.val = v
	c.emit(EvStore, w, v)
	if changed {
		c.wake(w)
	}
}

// CAS atomically compares-and-swaps the word, reporting success. Failed
// CAS still acquires the line exclusively (read-for-ownership), exactly
// the traffic pattern that makes contended CAS loops expensive on real
// hardware.
func (c *Ctx) CAS(w *Word, old, new uint64) bool {
	c.sync()
	c.writeCost(w)
	if w.val != old {
		c.emit(EvCASFail, w, w.val)
		return false
	}
	changed := w.val != new
	w.val = new
	c.emit(EvCASSuccess, w, new)
	if changed {
		c.wake(w)
	}
	return true
}

// Swap atomically stores v and returns the previous value (the MCS
// FetchAndStore).
func (c *Ctx) Swap(w *Word, v uint64) uint64 {
	c.sync()
	c.writeCost(w)
	prev := w.val
	changed := prev != v
	w.val = v
	c.emit(EvSwap, w, v)
	if changed {
		c.wake(w)
	}
	return prev
}

// Add atomically adds delta (two's complement for subtraction) and
// returns the new value.
func (c *Ctx) Add(w *Word, delta uint64) uint64 {
	c.sync()
	c.writeCost(w)
	w.val += delta
	c.emit(EvAdd, w, w.val)
	c.wake(w)
	return w.val
}

// SpinUntil blocks (parking the thread, costing no simulation work)
// until pred holds for the word's value, and returns that value. Each
// evaluation charges a read; the thread is woken at the virtual time of
// any write that changes the value.
func (c *Ctx) SpinUntil(w *Word, pred func(uint64) bool) uint64 {
	c.sync()
	for {
		c.readCost(w)
		if pred(w.val) {
			return w.val
		}
		c.emit(EvSpinBlock, w, w.val)
		c.t.state = stateBlocked
		w.watchers = append(w.watchers, c.t)
		c.park()
		c.t.clock += c.m.cfg.CostOp
	}
}

// LoadStream reads a batch of independent words as one streaming scan
// and returns their values. Unlike a sequence of Load calls — which
// charges each word a full dependent-load latency plus per-primitive
// instruction cost, the right model for pointer-chasing — LoadStream
// models the memory-level parallelism of scanning a contiguous array:
// the individual misses overlap, so the scan is charged the single
// worst transfer latency plus one issue cycle per word. Coherence
// metadata is updated per word exactly as for Load.
//
// It exists for bulk scans over arrays of hot words (e.g. the BRAVO
// revocation scan over the visible-readers table); algorithms must not
// use it for loads whose addresses depend on prior results.
func (c *Ctx) LoadStream(ws []*Word) []uint64 {
	c.sync()
	t := c.t
	var worst int64
	out := make([]uint64, len(ws))
	for i, w := range ws {
		t.accesses++
		var cost int64
		if int(w.ownerCore) == t.core || w.sharerHas(t.core) {
			cost = c.m.hitCost(w, t)
		} else {
			d := c.m.coreDistance(int(w.lastWriterCore), t)
			cost = c.m.distCost(d)
			if d == distRemote {
				t.remote++
			}
		}
		if cost > worst {
			worst = cost
		}
		if w.ownerCore >= 0 && int(w.ownerCore) != t.core {
			w.sharerAdd(int(w.ownerCore))
			w.ownerCore = -1
		}
		w.sharerAdd(t.core)
		w.lastToucher = int32(t.id)
		out[i] = w.val
		c.emit(EvLoad, w, w.val)
	}
	t.clock += worst + int64(len(ws))
	return out
}

// Work advances the thread's clock by the given number of cycles of
// purely local computation.
func (c *Ctx) Work(cycles int64) {
	c.sync()
	c.t.clock += cycles
	c.emit(EvWork, nil, uint64(cycles))
}
