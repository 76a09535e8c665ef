// Package foll implements the FOLL lock — the FIFO distributed-queue
// OLL reader-writer lock of §4.2 (Figure 4) of "Scalable Reader-Writer
// Locks".
//
// FOLL extends the MCS queue-lock idea: writers enqueue per-thread
// nodes and spin locally, but successive readers share a single queue
// node through a per-node C-SNZI, so under read-only workloads readers
// never write the tail pointer — they just arrive at and depart from the
// C-SNZI of the reader node at the tail. A writer enqueuing behind a
// reader node closes that node's C-SNZI, which simultaneously blocks
// later readers from joining the node and arranges for the last reader
// to signal the writer.
//
// Reader nodes outlive the acquisition of the thread that enqueued them
// (the enqueuer need not be the last to depart), so they are recycled
// through a ring pool of N nodes for N threads, per the availability
// argument of §4.2.1: a node is freed exactly once per allocation,
// either by the thread that allocated but never enqueued it, or by the
// unique thread that observed the node's C-SNZI become closed with zero
// surplus (the last departing reader, or the closing writer when no
// readers were present).
package foll

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"ollock/internal/atomicx"
	"ollock/internal/lockcore"
	"ollock/internal/rind"
)

// Node kinds.
const (
	kindReader uint32 = iota
	kindWriter
)

// Node allocation states (reader nodes only).
const (
	allocFree uint32 = iota
	allocInUse
)

// Node grant states: the one-word race between a hand-off and an
// abandonment. A node enters the queue gLive; whoever hands the lock to
// it first CASes gLive→gGranted and only then clears its flag, while a
// writer abandoning a timed acquisition CASes gLive→gAbandoned and
// walks away. Exactly one CAS wins, so a grant is never delivered to an
// abandoned node (the granter skips it; see grant) and an abandonment
// never swallows an in-flight grant (the canceler that loses the race
// must collect the acquisition and release it normally). Reader nodes
// enter the queue gLive like any other (see reset) but are never
// abandoned — canceling readers leave through the indicator's Depart
// accounting, which keeps the §4.2.1 pool invariant intact.
const (
	gLive uint32 = iota
	gGranted
	gAbandoned
)

// Node is a queue node. Writer nodes belong to one thread each; reader
// nodes live in the lock's ring pool and are shared by groups of
// readers.
type Node struct {
	kind  uint32 // immutable
	qNext atomicx.PaddedPointer[Node]
	// flag is the node's grant flag (the "spin" boolean of Figure 4),
	// policy-aware so blocked threads can yield or park instead of
	// burning CPU; see internal/park via lockcore.
	flag lockcore.Flag
	// gstate is the grant/abandon race word (see the g* constants).
	gstate atomic.Uint32
	// Reader-node-only fields.
	ind        rind.Indicator // closed whenever the node is not enqueued
	allocState atomic.Uint32
	ringNext   *Node // immutable ring pointer for the pool
}

// reset brings a private node — a proc's own writer node between
// acquisitions, or a ring node between allocation and enqueue — to the
// canonical state every node enters the queue in: no successor, grant
// word live. The flag is the enqueue site's to set (Flag.Set follows
// the same rule). Each word is loaded and stored only if it differs:
// an atomic store is a locked instruction, a node almost always comes
// back clean (release paths clear qNext; only a delivered grant
// dirties gstate), and the node is private, so eliding a store of the
// value already there is unobservable. Every enqueue site goes through
// here, so the empty-queue writer path is one Swap and one CAS.
func (n *Node) reset() {
	if n.qNext.Load() != nil {
		n.qNext.Store(nil)
	}
	if n.gstate.Load() != gLive {
		n.gstate.Store(gLive)
	}
}

// RWLock is a FOLL reader-writer lock for up to a fixed number of
// participating goroutines. Use New, then create one Proc per goroutine.
type RWLock struct {
	tail    atomicx.PaddedPointer[Node]
	ring    []Node
	procs   atomic.Int64
	factory rind.Factory
	// in is the instrumentation bundle (zero = all off): the stats
	// block is shared with every ring node's indicator, and the wait
	// policy routes every blocking site.
	in lockcore.Instr
}

// Proc is a per-goroutine handle. It carries the thread-local state of
// the paper's pseudocode (default reader node, writer node, last arrival
// ticket). A Proc supports one outstanding acquisition at a time.
type Proc struct {
	l          *RWLock
	id         int
	rNode      *Node // default ring start for allocation
	wNode      *Node
	departFrom *Node
	ticket     rind.Ticket
	// pi is the proc's instrumentation view (buffered counters +
	// flight-recorder ring); one predictable branch per site when off.
	pi lockcore.ProcInstr
}

// Option configures the lock.
type Option func(*RWLock)

// WithIndicator substitutes a read-indicator factory (see
// internal/rind) for the per-node C-SNZIs. A factory rather than an
// instance: every ring-pool node carries its own indicator, and
// recycled nodes then recycle indicators of the chosen kind.
func WithIndicator(f rind.Factory) Option { return func(l *RWLock) { l.factory = f } }

// WithInstr attaches the instrumentation bundle (see internal/lockcore):
// the stats block (foll.* join/enqueue/recycle counters, shared with
// every ring node's csnzi.* counters), the flight-recorder handle
// (queue/group/hand-off lifecycle events), and the wait policy that
// makes node grant flags parking-capable. The zero bundle (the default)
// spins exactly as the paper does, uninstrumented.
func WithInstr(in lockcore.Instr) Option { return func(l *RWLock) { l.in = in } }

// New returns a FOLL lock sized for maxProcs participating goroutines
// (the ring pool holds exactly maxProcs reader nodes, which §4.2.1
// proves sufficient).
func New(maxProcs int, opts ...Option) *RWLock {
	if maxProcs <= 0 {
		panic("foll: maxProcs must be positive")
	}
	l := &RWLock{ring: make([]Node, maxProcs)}
	for _, o := range opts {
		o(l)
	}
	if l.factory == nil {
		l.factory = rind.CSNZIFactory()
	}
	for i := range l.ring {
		n := &l.ring[i]
		n.kind = kindReader
		n.ringNext = &l.ring[(i+1)%maxProcs]
		n.ind = rind.Instrument(l.factory(), l.in.Stats)
		// Fresh nodes start closed with no surplus (§4.2: "when just
		// allocated, has a closed C-SNZI"): a node's indicator is open
		// only while the node is enqueued.
		n.ind.CloseIfEmpty()
	}
	l.in.AddDumper(l)
	return l
}

// NewProc registers a goroutine with the lock; it panics if more than
// maxProcs handles are created. Each handle gets a distinct default
// ring node, which keeps allocation contention low.
func (l *RWLock) NewProc() *Proc {
	id := int(l.procs.Add(1)) - 1
	if id >= len(l.ring) {
		panic("foll: more procs than maxProcs")
	}
	return &Proc{
		l:     l,
		id:    id,
		rNode: &l.ring[id],
		wNode: &Node{kind: kindWriter},
		pi:    l.in.NewProc(id),
	}
}

// allocReaderNode returns a free reader node, walking the ring from the
// proc's default node. Availability is guaranteed by the §4.2.1
// accounting (N nodes, N threads), so the walk terminates.
func (p *Proc) allocReaderNode() *Node {
	cur := p.rNode
	for {
		if cur.allocState.Load() == allocFree &&
			cur.allocState.CompareAndSwap(allocFree, allocInUse) {
			return cur
		}
		cur = cur.ringNext
		if cur == p.rNode {
			// Full loop without success: another thread is between
			// freeing and reallocating; yield and retry.
			runtime.Gosched()
		}
	}
}

// freeReaderNode returns a node to the pool. At most one thread frees a
// node per allocation (the §4.2.1 argument), so a plain store suffices.
func freeReaderNode(n *Node) {
	n.allocState.Store(allocFree)
}

// grant hands the lock to n, skipping nodes whose writers abandoned
// their acquisition. Every hand-off site routes through here: winning
// the gstate CAS commits the grant before the flag is cleared, and
// losing it means the node's writer timed out, so ownership passes to
// the successor instead — waiting for the enqueue/link race to settle
// exactly as Unlock does, and emptying the queue if the abandoned node
// was the tail. Skipped writer nodes are garbage (their procs already
// replaced them); reader nodes are never abandoned, so for them the
// CAS always succeeds.
func (l *RWLock) grant(n *Node, id int, tr *lockcore.TraceLocal) {
	for {
		if n.gstate.CompareAndSwap(gLive, gGranted) {
			n.flag.Clear(l.in.Wait)
			return
		}
		succ := n.qNext.Load()
		if succ == nil {
			if l.tail.CompareAndSwap(n, nil) {
				return // abandoned tail: the queue is now empty
			}
			lockcore.WaitCond(l.in.Wait, id, tr, func() bool { return n.qNext.Load() != nil })
			succ = n.qNext.Load()
		}
		n.qNext.Store(nil)
		n = succ
	}
}

// RLock acquires the lock for reading.
func (p *Proc) RLock() { p.rlock(lockcore.Deadline{}) }

// awaitGroup waits for the grant of reader group n, which the caller
// has joined with ticket t, or retracts the arrival when dl expires
// first; it reports whether the group was granted. The wait call — and
// the Deadline it carries — is reached only when the inlined Blocked
// load says the group is still waiting.
func (p *Proc) awaitGroup(n *Node, t rind.Ticket, dl lockcore.Deadline) bool {
	p.pi.Begin(lockcore.PhaseSpinWait)
	if n.flag.WaitUntil(p.l.in.Wait, p.id, p.pi.TR, dl) {
		return true
	}
	p.departAbandoned(n, t)
	p.abandon(lockcore.PhaseSpinWait, dl)
	return false
}

// unalloc returns a ring node that was allocated for an enqueue that
// never happened (nil when there is none). A failed enqueue CAS behind
// a writer leaves the node's flag raised; it is lowered so the node
// rests clean like any other free node.
func unalloc(rNode *Node) {
	if rNode != nil {
		rNode.flag.Set(false)
		freeReaderNode(rNode)
	}
}

// rlock is the read-acquisition core, shared by RLock (zero deadline,
// which never expires) and the timed variants in deadline.go. It
// reports whether the lock was acquired.
func (p *Proc) rlock(dl lockcore.Deadline) bool {
	l := p.l
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	slow := false
	var rNode *Node
	for {
		if dl.Expired() {
			// Not enqueued and holding no arrival: just walk away.
			unalloc(rNode)
			p.abandon(0, dl)
			return false
		}
		tail := l.tail.Load()
		switch {
		case tail == nil:
			// Empty queue: enqueue a fresh reader node with spin=false
			// (its readers may run immediately), then open its C-SNZI
			// and join it.
			if rNode == nil {
				rNode = p.allocReaderNode()
			}
			rNode.reset()
			rNode.flag.Set(false)
			if !l.tail.CompareAndSwap(nil, rNode) {
				slow = true
				continue // tail changed; retry (keep rNode)
			}
			p.pi.Inc(lockcore.FOLLReadEnqueue)
			p.pi.Emit(lockcore.KindGroupEnqueue, 0, 0)
			rNode.ind.Open()
			t := rNode.ind.ArriveLocal(p.id, p.pi.LC)
			if t.Arrived() {
				p.departFrom = rNode
				p.ticket = t
				p.pi.Acquired(lockcore.KindReadAcquired, t0, t.TraceRoute())
				p.pi.ProfAcquired(pt, slow)
				return true
			}
			// A writer closed the node between Open and Arrive. The node
			// is in the queue; the closer owns its cleanup. Retry with a
			// new node.
			p.pi.Emit(lockcore.KindArriveFail, 0, 0)
			slow = true
			rNode = nil

		case tail.kind == kindWriter:
			// Enqueue a fresh reader node behind the writer, waiting
			// (spin=true) until the writer's release.
			if rNode == nil {
				rNode = p.allocReaderNode()
			}
			rNode.reset()
			rNode.flag.Set(true)
			if !l.tail.CompareAndSwap(tail, rNode) {
				slow = true
				continue
			}
			p.pi.Inc(lockcore.FOLLReadEnqueue)
			p.pi.Emit(lockcore.KindGroupEnqueue, 0, 1)
			tail.qNext.Store(rNode)
			rNode.ind.Open()
			t := rNode.ind.ArriveLocal(p.id, p.pi.LC)
			if t.Arrived() {
				if rNode.flag.Blocked() && !p.awaitGroup(rNode, t, dl) {
					return false
				}
				p.departFrom = rNode
				p.ticket = t
				p.pi.Acquired(lockcore.KindReadAcquired, t0, t.TraceRoute())
				p.pi.ProfAcquired(pt, true)
				return true
			}
			p.pi.Emit(lockcore.KindArriveFail, 0, 0)
			slow = true
			rNode = nil

		default:
			// Tail is a reader node: join it.
			t := tail.ind.ArriveLocal(p.id, p.pi.LC)
			if t.Arrived() {
				p.pi.Inc(lockcore.FOLLReadJoin)
				unalloc(rNode)
				blocked := tail.flag.Blocked()
				if blocked && !p.awaitGroup(tail, t, dl) {
					return false
				}
				p.departFrom = tail
				p.ticket = t
				p.pi.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
				p.pi.ProfAcquired(pt, slow || blocked)
				return true
			}
			// Arrive failed: a writer closed the node after enqueuing
			// behind it, so the tail must have changed. Retry.
			p.pi.Emit(lockcore.KindArriveFail, 0, 0)
			slow = true
		}
	}
}

// RUnlock releases a read acquisition. If this thread is the last to
// depart a closed C-SNZI, it signals the writer that closed it and
// recycles the reader node.
func (p *Proc) RUnlock() {
	n := p.departFrom
	if n.ind.Depart(p.ticket) {
		p.pi.Released(lockcore.KindReadReleased)
		p.pi.ProfReleased()
		return
	}
	// Last departer: the closing writer linked itself before closing, so
	// qNext is set.
	p.pi.Emit(lockcore.KindIndDrain, 0, 0)
	succ := n.qNext.Load()
	p.l.grant(succ, p.id, p.pi.TR)
	n.qNext.Store(nil) // clean up before recycling
	freeReaderNode(n)
	p.pi.Inc(lockcore.FOLLNodeRecycle)
	p.pi.Emit(lockcore.KindHandoff, 0, lockcore.PackHandoff(1, true))
	p.pi.Released(lockcore.KindReadReleased)
	p.pi.ProfReleased()
}

// Lock acquires the lock for writing, exactly as in the MCS mutex except
// for the reader-node predecessor handling.
func (p *Proc) Lock() { p.lock(lockcore.Deadline{}) }

// lock is the write-acquisition core, shared by Lock (zero deadline)
// and the timed variants in deadline.go. It reports whether the lock
// was acquired.
func (p *Proc) lock(dl lockcore.Deadline) bool {
	l := p.l
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	w0 := l.in.SpanStart()
	w := p.wNode
	w.reset()
	oldTail := l.tail.Swap(w)
	if oldTail == nil {
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.pi.ProfAcquired(pt, false)
		l.in.SpanObserve(lockcore.FOLLWriteWait, p.id, w0)
		return true // free lock acquired
	}
	w.flag.Set(true)
	oldTail.qNext.Store(w)
	p.pi.Emit(lockcore.KindQueueEnqueue, 0, 1)
	if oldTail.kind == kindWriter {
		p.pi.BeginAt(t0, lockcore.PhaseQueueWait)
		if w.flag.Blocked() && !w.flag.WaitUntil(l.in.Wait, p.id, p.pi.TR, dl) {
			return p.cancelWriteWait(dl, t0, pt, lockcore.PhaseQueueWait)
		}
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
		p.pi.ProfAcquired(pt, true)
		l.in.SpanObserve(lockcore.FOLLWriteWait, p.id, w0)
		return true
	}
	// Reader predecessor. Its C-SNZI may not be open yet (the enqueuer
	// opens it just after the enqueue; see also node recycling): wait
	// until it is, then close it to stop further readers joining. This
	// wait is deliberately unbounded even on timed paths — the enqueuer
	// opens the indicator within a few instructions of the enqueue.
	p.pi.BeginAt(t0, lockcore.PhaseDrainWait)
	lockcore.WaitCond(l.in.Wait, p.id, p.pi.TR, func() bool {
		_, open := oldTail.ind.Query()
		return open
	})
	closedEmpty := oldTail.ind.Close()
	p.pi.Emit(lockcore.KindIndClose, 0, 0)
	if closedEmpty {
		// Closed empty: no readers will signal us. Wait for the
		// predecessor node's own grant and recycle it ourselves.
		if oldTail.flag.Blocked() && !oldTail.flag.WaitUntil(l.in.Wait, p.id, p.pi.TR, dl) {
			// Duty-phase abandonment: closing the predecessor committed
			// us to recycling it and to the write acquisition that
			// follows — neither can be unwound. Detach both onto a
			// reaper that finishes the protocol verbatim and releases.
			p.wNode = &Node{kind: kindWriter}
			go l.reapClosedEmpty(w, oldTail, p.id)
			p.abandon(lockcore.PhaseDrainWait, dl)
			return false
		}
		oldTail.qNext.Store(nil)
		freeReaderNode(oldTail)
		l.in.Inc(lockcore.FOLLNodeRecycle, p.id)
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.pi.ProfAcquired(pt, true)
		l.in.SpanObserve(lockcore.FOLLWriteWait, p.id, w0)
		return true
	}
	// Readers exist: the last departer will signal us.
	if w.flag.Blocked() && !w.flag.WaitUntil(l.in.Wait, p.id, p.pi.TR, dl) {
		return p.cancelWriteWait(dl, t0, pt, lockcore.PhaseDrainWait)
	}
	p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
	p.pi.ProfAcquired(pt, true)
	l.in.SpanObserve(lockcore.FOLLWriteWait, p.id, w0)
	return true
}

// Unlock releases a write acquisition.
func (p *Proc) Unlock() {
	l := p.l
	w := p.wNode
	if w.qNext.Load() == nil {
		if l.tail.CompareAndSwap(w, nil) {
			p.pi.Released(lockcore.KindWriteReleased)
			p.pi.ProfReleased()
			return
		}
		lockcore.WaitCond(l.in.Wait, p.id, p.pi.TR, func() bool { return w.qNext.Load() != nil })
	}
	succ := w.qNext.Load()
	l.grant(succ, p.id, p.pi.TR)
	w.qNext.Store(nil) // clean up
	p.pi.Emit(lockcore.KindHandoff, 0, lockcore.PackHandoff(1, succ.kind == kindWriter))
	p.pi.Released(lockcore.KindWriteReleased)
	p.pi.ProfReleased()
}

// unlockNode is the release protocol on an explicit node, for reapers
// releasing an acquisition whose proc already walked away (the proc's
// wNode was replaced, so p.Unlock no longer reaches the queued node).
func (l *RWLock) unlockNode(w *Node, id int, tr *lockcore.TraceLocal) {
	if w.qNext.Load() == nil {
		if l.tail.CompareAndSwap(w, nil) {
			return
		}
		lockcore.WaitCond(l.in.Wait, id, tr, func() bool { return w.qNext.Load() != nil })
	}
	succ := w.qNext.Load()
	l.grant(succ, id, tr)
	w.qNext.Store(nil)
}

// MaxProcs returns the ring size (diagnostic).
func (l *RWLock) MaxProcs() int { return len(l.ring) }

// DumpLockState renders the live queue for the trace watchdog: the tail
// node plus every in-use ring node. All fields involved are atomics (or
// immutable), so the racy read is safe, merely advisory.
func (l *RWLock) DumpLockState(w io.Writer) {
	tail := l.tail.Load()
	if tail == nil {
		fmt.Fprintf(w, "foll: queue empty (lock free)\n")
		return
	}
	fmt.Fprintf(w, "foll: tail node: %s\n", l.describeNode(tail))
	for i := range l.ring {
		n := &l.ring[i]
		if n.allocState.Load() == allocInUse && n != tail {
			fmt.Fprintf(w, "foll: ring node %d: %s\n", i, l.describeNode(n))
		}
	}
}

func (l *RWLock) describeNode(n *Node) string {
	if n.kind == kindWriter {
		return fmt.Sprintf("writer spin=%v", n.flag.Blocked())
	}
	return fmt.Sprintf("reader spin=%v ind=%s", n.flag.Blocked(), rind.Describe(n.ind))
}
