// Package sim is a deterministic discrete-event simulator of a
// multi-chip shared-memory machine, built to reproduce the paper's
// evaluation platform — a Sun SPARC Enterprise T5440 with 4 chips × 64
// hardware threads — on hosts that cannot exhibit its behaviour (see
// DESIGN.md §4).
//
// Simulated threads are ordinary Go functions that perform their shared
// memory accesses through a Ctx (Load, Store, CAS, Swap, SpinUntil,
// Work). The simulator runs threads one at a time in virtual-time order:
// each primitive charges the calling thread a latency from a cache
// coherence cost model (hit in own cache, transfer from a same-chip
// cache, transfer across chips), so contention manifests exactly as it
// does on hardware — as serialized ownership transfers of hot cache
// lines whose cost jumps when the communicating threads sit on different
// chips.
//
// Busy-wait loops use SpinUntil, which parks the thread as a watcher on
// the word and wakes it at the writer's virtual time, so waiting costs
// no simulation work. Runs are fully deterministic: same program + same
// seeds => identical final clocks, access counts, and results.
//
// Each simulated thread is a coroutine (iter.Pull), so the package needs
// a Go >= 1.23 toolchain; see DESIGN.md §4, "Engine".
package sim

import (
	"errors"
	"fmt"
)

// Config describes the simulated machine.
type Config struct {
	// Chips is the number of processor chips.
	Chips int
	// ThreadsPerChip is the number of hardware thread slots per chip.
	// Simulated threads are packed onto chips in id order, so thread
	// counts <= ThreadsPerChip stay on one chip (the paper's on-chip
	// regime).
	ThreadsPerChip int
	// ThreadsPerCore is the number of hardware threads sharing one core
	// (and hence its L1 cache); 8 on the UltraSPARC T2+. It must divide
	// ThreadsPerChip.
	ThreadsPerCore int
	// CostLocal is the latency (cycles) of an access that hits the
	// thread's own cached copy.
	CostLocal int64
	// CostCore is the latency of a transfer between hardware threads of
	// the same core (effectively an L1 hit on a CMT core).
	CostCore int64
	// CostShared is the latency of a transfer between cores on the same
	// chip (the shared L2 of the T2+).
	CostShared int64
	// CostRemote is the latency of a transfer across chips (through the
	// coherence hubs) or from memory.
	CostRemote int64
	// CostOp is the instruction-stream cost charged per primitive,
	// modeling the non-memory work between shared accesses.
	CostOp int64
	// Jitter adds a deterministic pseudo-random 0..Jitter extra cycles
	// to each primitive, modeling the issue-slot noise of multithreaded
	// cores. Without it, perfectly symmetric costs phase-lock simulated
	// threads into patterns (e.g. a reader group draining in lockstep)
	// that hardware noise breaks up.
	Jitter int64
	// MaxSteps aborts the run (panic) after this many scheduler steps;
	// 0 means no limit. A safety net for accidental livelock in
	// simulated algorithms.
	MaxSteps int64
}

// T5440 returns the configuration modeling the paper's evaluation
// machine: 4 chips × 8 cores × 8 hardware threads at 1.4 GHz, with
// same-core communication through the core's L1, on-chip communication
// through the shared L2, and off-chip through coherency hubs. The
// latency ratios (1 : 3 : 30 : 120) follow the usual L1-hit :
// same-core : L2-transfer : cross-chip-hub ordering for that system
// class; the paper's curves depend on the ratios, not the absolute
// values.
func T5440() Config {
	return Config{
		Chips:          4,
		ThreadsPerChip: 64,
		ThreadsPerCore: 8,
		CostLocal:      1,
		CostCore:       3,
		CostShared:     30,
		CostRemote:     120,
		CostOp:         3,
		Jitter:         4,
	}
}

// ClockHz is the modeled clock rate used to convert virtual cycles to
// seconds (the T5440 runs at 1.4 GHz).
const ClockHz = 1.4e9

// Thread states.
const (
	stateReady = iota
	stateBlocked
	stateFinished
)

type thread struct {
	id, core, chip int
	clock          int64
	state          int
	rng            uint64 // per-thread jitter state
	// accounting
	accesses int64
	remote   int64
	// The thread's coroutine, which exists only while Run does: resume
	// runs the body until it next parks, stop unwinds a parked body.
	resume func() (struct{}, bool)
	stop   func()
}

// heapEntry is a ready thread keyed by the clock it asks to run at. A
// thread's clock cannot change while it waits in the heap, so the key
// is carried by value and an ordering comparison touches the thread
// itself only on a tie.
type heapEntry struct {
	clock int64
	t     *thread
}

func (a heapEntry) before(b heapEntry) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.t.id < b.t.id)
}

// Machine is one simulation instance. Create with New, add programs with
// Spawn, then call Run exactly once.
type Machine struct {
	cfg     Config
	threads []*thread
	bodies  []func(*Ctx)
	heap    []heapEntry // ready threads other than the running one
	words   int
	trace   func(Event)
	// Accounting available after Run.
	steps int64
}

// New returns a machine with the given configuration. A zero
// ThreadsPerCore defaults to ThreadsPerChip (one core per chip); a zero
// CostCore defaults to CostShared.
func New(cfg Config) *Machine {
	if cfg.Chips <= 0 || cfg.ThreadsPerChip <= 0 {
		panic("sim: Chips and ThreadsPerChip must be positive")
	}
	if cfg.ThreadsPerCore == 0 {
		cfg.ThreadsPerCore = cfg.ThreadsPerChip
	}
	if cfg.CostCore == 0 {
		cfg.CostCore = cfg.CostShared
	}
	if cfg.ThreadsPerCore <= 0 || cfg.ThreadsPerChip%cfg.ThreadsPerCore != 0 {
		panic("sim: ThreadsPerCore must be positive and divide ThreadsPerChip")
	}
	if cfg.CostLocal <= 0 || cfg.CostCore <= 0 || cfg.CostShared <= 0 || cfg.CostRemote <= 0 {
		panic("sim: costs must be positive")
	}
	return &Machine{cfg: cfg}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Spawn registers a simulated thread running body. Threads are packed
// onto chips in spawn order (64 per chip for the T5440 config). Spawn
// panics if the machine is full or already running.
func (m *Machine) Spawn(body func(*Ctx)) int {
	id := len(m.threads)
	if id >= m.cfg.Chips*m.cfg.ThreadsPerChip {
		panic("sim: machine full")
	}
	t := &thread{
		id:   id,
		core: id / m.cfg.ThreadsPerCore,
		chip: id / m.cfg.ThreadsPerChip,
		rng:  uint64(id)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
	}
	m.threads = append(m.threads, t)
	m.bodies = append(m.bodies, body)
	return id
}

// Threads returns the number of spawned threads.
func (m *Machine) Threads() int { return len(m.threads) }

// errStopped is the panic value that unwinds the body of a thread Run
// stopped before it finished; it never leaves the thread's coroutine.
var errStopped = errors.New("sim: thread stopped by Run")

// Run executes all spawned threads to completion and returns the final
// virtual time (the maximum thread clock, in cycles). It panics on
// deadlock (all unfinished threads blocked) or when MaxSteps is
// exceeded, and a panic in a thread's body surfaces from Run as well;
// however Run ends, no thread's coroutine outlives it.
//
// Every step goes to the ready thread with the least (clock, id). Run
// resumes that thread's coroutine; the thread then keeps running, step
// after step, for as long as it is still the least (Ctx.sync), and
// parks only when another thread is due first, when it blocks in
// SpinUntil, or when its body returns.
func (m *Machine) Run() int64 {
	n := len(m.threads)
	if n == 0 {
		return 0
	}
	defer func() {
		for _, t := range m.threads {
			t.stop()
			t.resume, t.stop = nil, nil
		}
	}()
	for i, t := range m.threads {
		c := &Ctx{m: m, t: t}
		body := m.bodies[i]
		t.resume, t.stop = pull(func(yield func(struct{}) bool) {
			c.yield = yield
			defer func() {
				if p := recover(); p != nil && p != errStopped {
					panic(p)
				}
			}()
			body(c)
			t.state = stateFinished
		})
		// Every thread asks for its first step before any runs.
		t.clock += m.cfg.CostOp + c.jitter()
		m.push(t)
	}
	finished := 0
	t := m.pop()
	for {
		m.countStep()
		t.resume()
		if t.state == stateReady {
			// Parked in sync: the heap's root is due before t.
			t = m.replaceRoot(t)
			continue
		}
		// t finished, or blocked as a watcher, to be pushed when woken.
		if t.state == stateFinished {
			if finished++; finished == n {
				break
			}
		}
		if t = m.pop(); t == nil {
			panic(fmt.Sprintf("sim: deadlock — %d of %d threads blocked forever", n-finished, n))
		}
	}
	var max int64
	for _, t := range m.threads {
		if t.clock > max {
			max = t.clock
		}
	}
	return max
}

// countStep accounts for one scheduler step: the grant of one
// primitive to one thread.
func (m *Machine) countStep() {
	m.steps++
	if m.cfg.MaxSteps > 0 && m.steps > m.cfg.MaxSteps {
		panic(fmt.Sprintf("sim: exceeded MaxSteps=%d (livelock?)", m.cfg.MaxSteps))
	}
}

// Steps returns the number of scheduler steps executed (diagnostic).
func (m *Machine) Steps() int64 { return m.steps }

// Stats summarizes one thread's memory behaviour after Run.
type Stats struct {
	Thread   int
	Chip     int
	Clock    int64
	Accesses int64
	Remote   int64 // accesses that crossed chips
}

// ThreadStats returns per-thread statistics, in thread id order.
func (m *Machine) ThreadStats() []Stats {
	out := make([]Stats, len(m.threads))
	for i, t := range m.threads {
		out[i] = Stats{Thread: t.id, Chip: t.chip, Clock: t.clock, Accesses: t.accesses, Remote: t.remote}
	}
	return out
}

// --- min-heap on (clock, id) ---
//
// Entries move by hole-sifting: the entry being placed is held aside
// while the entries on its path shift by one level, and is stored once.

func (m *Machine) push(t *thread) {
	e := heapEntry{t.clock, t}
	m.heap = append(m.heap, e)
	h := m.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the least thread, nil if none is ready.
func (m *Machine) pop() *thread {
	last := len(m.heap) - 1
	if last < 0 {
		return nil
	}
	t := m.heap[0].t
	e := m.heap[last]
	m.heap = m.heap[:last]
	if last > 0 {
		m.siftFromRoot(e)
	}
	return t
}

// replaceRoot is push(t) followed by pop, for a t that is known not to
// be the least: one sift instead of two. The heap must not be empty.
func (m *Machine) replaceRoot(t *thread) *thread {
	root := m.heap[0].t
	m.siftFromRoot(heapEntry{t.clock, t})
	return root
}

// siftFromRoot places e in a heap whose root slot is vacant.
func (m *Machine) siftFromRoot(e heapEntry) {
	h := m.heap
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}
