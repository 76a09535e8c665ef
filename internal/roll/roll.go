// Package roll implements the ROLL lock — the reader-preference
// distributed-queue OLL reader-writer lock of §4.3 of "Scalable
// Reader-Writer Locks".
//
// ROLL is the FOLL lock with the wait queue converted into a doubly
// linked list: a reader that finds a writer at the tail walks backward
// looking for a reader node whose group is still waiting (spin flag
// true), and joins it — overtaking the intervening writers — instead of
// enqueuing a new node at the tail. Because all readers follow this
// procedure, at most one such waiting reader node exists at a time, so
// under a steady trickle of writers all readers coalesce onto one node
// rather than fragmenting into one group per writer. A lock-level
// lastReader hint caches the most recently joined waiting node to skip
// the backward search (§4.3's optimization).
//
// Joins are validated by the node's C-SNZI, not by queue position: a
// node's C-SNZI is open only while the node is enqueued, so a successful
// Arrive proves membership even if the backward walk raced with node
// recycling; a failed Arrive simply falls back to enqueuing a new node
// (FOLL behaviour).
//
// One consequence the paper leaves implicit: a ROLL writer enqueuing
// behind a reader node must NOT close the node's C-SNZI at enqueue time
// (as a FOLL writer does) — that would make every waiting group
// unjoinable the moment a writer queued behind it, defeating the
// overtaking entirely. Instead the writer defers the close until the
// group is activated (its spin flag clears), the point after which no
// searching reader targets the node anyway.
package roll

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

// Node grant states — the one-word hand-off/abandonment race, identical
// to the FOLL protocol: granters CAS gLive→gGranted before clearing the
// flag, canceling writers CAS gLive→gAbandoned and walk away, and the
// loser of the word defers to the winner (see grant). Reader nodes
// enter the queue gLive like any other (see reset) but are never
// abandoned; canceling readers leave through Depart accounting.
const (
	gLive uint32 = iota
	gGranted
	gAbandoned
)

// searchLimit bounds the backward walk. Stale prev pointers through
// recycled nodes can mislead the walk; bounding it keeps the fallback
// (enqueue a fresh node, i.e. FOLL behaviour) prompt.
const searchLimit = 256

// Node is a queue node with both forward (qNext) and backward (qPrev)
// links.
type Node struct {
	kind  uint32 // immutable
	qNext atomicx.PaddedPointer[Node]
	qPrev atomicx.PaddedPointer[Node]
	// flag is the node's grant flag ("spin" in the paper), policy-aware
	// so blocked threads can yield or park; see internal/park via
	// lockcore. Its Blocked bit doubles as the "group still waiting"
	// join condition.
	flag lockcore.Flag
	// gstate is the grant/abandon race word (see the g* constants).
	gstate atomic.Uint32
	// Reader-node-only fields.
	ind        rind.Indicator // closed whenever the node is not enqueued
	allocState atomic.Uint32
	ringNext   *Node
}

// reset brings a private node — a proc's own writer node between
// acquisitions, or a ring node between allocation and enqueue — to the
// canonical state every node enters the queue in: no successor, grant
// word live, qPrev the predecessor it is about to be linked behind
// (nil at the head; a writer learns its predecessor only from the
// Swap, and stores it then). The flag is the enqueue site's to set
// (Flag.Set follows the same rule). Each word is loaded and stored only
// if it differs: an atomic store is a locked instruction, a node almost
// always comes back clean (release paths clear qNext, a grant clears
// qPrev; only a delivered grant dirties gstate), and the node is
// private, so eliding a store of the value already there is
// unobservable. Every enqueue site goes through here, so the
// empty-queue writer path is one Swap and one CAS.
func (n *Node) reset(prev *Node) {
	if n.qNext.Load() != nil {
		n.qNext.Store(nil)
	}
	if n.gstate.Load() != gLive {
		n.gstate.Store(gLive)
	}
	if n.qPrev.Load() != prev {
		n.qPrev.Store(prev)
	}
}

// RWLock is a ROLL reader-writer lock for up to a fixed number of
// participating goroutines. Use New, then one Proc per goroutine.
type RWLock struct {
	tail       atomicx.PaddedPointer[Node]
	lastReader atomicx.PaddedPointer[Node] // hint: last known waiting reader node
	ring       []Node
	procs      atomic.Int64
	factory    rind.Factory
	// in is the instrumentation bundle (zero = all off): the stats
	// block is shared with every ring node's indicator, and the wait
	// policy routes every blocking site.
	in lockcore.Instr
}

// Proc is a per-goroutine handle (one outstanding acquisition at a
// time).
type Proc struct {
	l          *RWLock
	id         int
	rNode      *Node
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
// internal/rind) for the per-node C-SNZIs; every ring-pool node gets
// its own indicator of the chosen kind.
func WithIndicator(f rind.Factory) Option { return func(l *RWLock) { l.factory = f } }

// WithInstr attaches the instrumentation bundle (see internal/lockcore):
// the stats block (roll.* join/overtake/hint counters, shared with
// every ring node's csnzi.* counters), the flight-recorder handle
// (queue/overtake/hint lifecycle events), and the wait policy that
// makes node grant flags parking-capable. The zero bundle (the default)
// spins exactly as the paper does, uninstrumented.
func WithInstr(in lockcore.Instr) Option { return func(l *RWLock) { l.in = in } }

// New returns a ROLL lock sized for maxProcs participating goroutines.
func New(maxProcs int, opts ...Option) *RWLock {
	if maxProcs <= 0 {
		panic("roll: maxProcs must be positive")
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
		n.ind.CloseIfEmpty() // not enqueued => closed
	}
	l.in.AddDumper(l)
	return l
}

// NewProc registers a goroutine with the lock; panics beyond maxProcs.
func (l *RWLock) NewProc() *Proc {
	id := int(l.procs.Add(1)) - 1
	if id >= len(l.ring) {
		panic("roll: more procs than maxProcs")
	}
	return &Proc{
		l:     l,
		id:    id,
		rNode: &l.ring[id],
		wNode: &Node{kind: kindWriter},
		pi:    l.in.NewProc(id),
	}
}

func (p *Proc) allocReaderNode() *Node {
	cur := p.rNode
	for {
		if cur.allocState.Load() == allocFree &&
			cur.allocState.CompareAndSwap(allocFree, allocInUse) {
			return cur
		}
		cur = cur.ringNext
		if cur == p.rNode {
			runtime.Gosched()
		}
	}
}

func freeReaderNode(n *Node) {
	n.allocState.Store(allocFree)
}

// grant hands the lock to n, skipping nodes whose writers abandoned
// their acquisition (the FOLL grant protocol plus ROLL's backward
// link: the node actually granted becomes the queue head, so its qPrev
// is cleared before its flag). Skipped writer nodes are garbage — their
// procs already replaced them; reader nodes are never abandoned, so
// for them the CAS always succeeds.
func (l *RWLock) grant(n *Node, id int, tr *lockcore.TraceLocal) {
	for {
		if n.gstate.CompareAndSwap(gLive, gGranted) {
			n.qPrev.Store(nil) // n becomes head
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

// Join attempt outcomes (tryJoinWaiting).
const (
	joinNo       = iota // node not joinable; keep looking
	joinAcquired        // joined and acquired
	joinCanceled        // joined, then the deadline expired
)

// tryJoinWaiting attempts to join the waiting reader group at n. It
// joins only if n's group is still waiting (spin set) and its C-SNZI
// is open (n is enqueued); the caller holds the lock once the group's
// spin flag clears, unless the deadline expires first.
func (p *Proc) tryJoinWaiting(n *Node, t0, pt int64, dl lockcore.Deadline) int {
	if n.kind != kindReader || !n.flag.Blocked() {
		return joinNo
	}
	t := n.ind.ArriveLocal(p.id, p.pi.LC)
	if !t.Arrived() {
		return joinNo
	}
	p.pi.Inc(lockcore.ROLLOvertake)
	p.pi.Emit(lockcore.KindOvertake, 0, 0)
	// Refresh the hint only when it actually changes: with one waiting
	// group at a time, an unconditional store would make the hint word a
	// globally contended line written by every joining reader.
	if p.l.lastReader.Load() != n {
		p.l.lastReader.Store(n)
	}
	if n.flag.Blocked() && !p.awaitGroup(n, t, dl) {
		return joinCanceled
	}
	p.departFrom = n
	p.ticket = t
	p.pi.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
	p.pi.ProfAcquired(pt, true)
	return joinAcquired
}

// RLock acquires the lock for reading, preferring to join an existing
// waiting reader group over enqueuing behind writers.
func (p *Proc) RLock() { p.rlock(lockcore.Deadline{}) }

// unalloc returns a ring node that was allocated for an enqueue that
// never happened (nil when there is none): every way out of rlock that
// does not leave rNode in the queue passes through here. A failed
// enqueue CAS behind a writer leaves the node linked to that writer
// with its flag raised; both are undone so the node rests clean like
// any other free node.
func unalloc(rNode *Node) {
	if rNode != nil {
		rNode.reset(nil)
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
	var rNode *Node // allocated, not (yet) enqueued
	for {
		if dl.Expired() {
			// Not enqueued and holding no arrival: just walk away.
			unalloc(rNode)
			p.abandon(0, dl)
			return false
		}
		// Fast path: the hint points at the last known waiting group.
		if h := l.lastReader.Load(); h != nil {
			if st := p.tryJoinWaiting(h, t0, pt, dl); st != joinNo {
				unalloc(rNode)
				if st == joinAcquired {
					p.pi.Inc(lockcore.ROLLHintHit)
					p.pi.Emit(lockcore.KindHintHit, 0, 0)
				}
				return st == joinAcquired
			}
			p.pi.Inc(lockcore.ROLLHintMiss)
			p.pi.Emit(lockcore.KindHintMiss, 0, 0)
			l.lastReader.CompareAndSwap(h, nil)
		}
		tail := l.tail.Load()
		switch {
		case tail == nil:
			if rNode == nil {
				rNode = p.allocReaderNode()
			}
			rNode.reset(nil)
			rNode.flag.Set(false)
			if !l.tail.CompareAndSwap(nil, rNode) {
				slow = true
				continue
			}
			p.pi.Inc(lockcore.ROLLReadEnqueue)
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
			p.pi.Emit(lockcore.KindArriveFail, 0, 0)
			slow = true
			rNode = nil // in queue; the closing writer recycles it

		case tail.kind == kindReader:
			// Tail is a reader node: join it directly (same as FOLL).
			t := tail.ind.ArriveLocal(p.id, p.pi.LC)
			if t.Arrived() {
				p.pi.Inc(lockcore.ROLLReadJoin)
				unalloc(rNode)
				blocked := tail.flag.Blocked()
				if blocked {
					if l.lastReader.Load() != tail {
						l.lastReader.Store(tail)
					}
					if !p.awaitGroup(tail, t, dl) {
						return false
					}
				}
				p.departFrom = tail
				p.ticket = t
				p.pi.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
				p.pi.ProfAcquired(pt, slow || blocked)
				return true
			}
			// Closed: tail changed; retry.
			p.pi.Emit(lockcore.KindArriveFail, 0, 0)
			slow = true

		default:
			// Tail is a writer: search backward for a waiting reader
			// group to overtake into.
			cur := tail.qPrev.Load()
			for steps := 0; cur != nil && steps < searchLimit; steps++ {
				if cur.kind == kindReader {
					if st := p.tryJoinWaiting(cur, t0, pt, dl); st != joinNo {
						unalloc(rNode)
						return st == joinAcquired
					}
					break // reader node found but not joinable
				}
				cur = cur.qPrev.Load()
			}
			// No joinable group: enqueue a fresh waiting reader node at
			// the tail (FOLL behaviour), which becomes the new group.
			if rNode == nil {
				rNode = p.allocReaderNode()
			}
			rNode.reset(tail)
			rNode.flag.Set(true)
			if !l.tail.CompareAndSwap(tail, rNode) {
				slow = true
				continue
			}
			p.pi.Inc(lockcore.ROLLReadEnqueue)
			p.pi.Emit(lockcore.KindGroupEnqueue, 0, 1)
			tail.qNext.Store(rNode)
			rNode.ind.Open()
			t := rNode.ind.ArriveLocal(p.id, p.pi.LC)
			if t.Arrived() {
				l.lastReader.Store(rNode)
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
			rNode = nil // in queue; the closing writer recycles it
		}
	}
}

// RUnlock releases a read acquisition, signalling the closing writer if
// this thread departed last and recycling the group's node.
func (p *Proc) RUnlock() {
	n := p.departFrom
	if n.ind.Depart(p.ticket) {
		p.pi.Released(lockcore.KindReadReleased)
		p.pi.ProfReleased()
		return
	}
	p.pi.Emit(lockcore.KindIndDrain, 0, 0)
	succ := n.qNext.Load()
	p.l.grant(succ, p.id, p.pi.TR)
	n.qNext.Store(nil)
	freeReaderNode(n)
	p.pi.Inc(lockcore.ROLLNodeRecycle)
	p.pi.Emit(lockcore.KindHandoff, 0, lockcore.PackHandoff(1, succ.kind == kindWriter))
	p.pi.Released(lockcore.KindReadReleased)
	p.pi.ProfReleased()
}

// Lock acquires the lock for writing.
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
	w.reset(nil)
	oldTail := l.tail.Swap(w)
	if oldTail == nil {
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.pi.ProfAcquired(pt, false)
		l.in.SpanObserve(lockcore.ROLLWriteWait, p.id, w0)
		return true
	}
	w.qPrev.Store(oldTail)
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
		l.in.SpanObserve(lockcore.ROLLWriteWait, p.id, w0)
		return true
	}
	// Reader-node predecessor. First wait out the enqueue/Open window
	// (node recycling: the C-SNZI is closed until the enqueuer opens it).
	// Deliberately unbounded even on timed paths — the enqueuer opens
	// the indicator within a few instructions of the enqueue.
	p.pi.BeginAt(t0, lockcore.PhaseDrainWait)
	lockcore.WaitCond(l.in.Wait, p.id, p.pi.TR, func() bool {
		_, open := oldTail.ind.Query()
		return open
	})
	// ROLL's key difference from FOLL: do NOT close the group's C-SNZI
	// yet. While the group is still waiting (spin set), readers arriving
	// later must be able to join it — that is the reader preference. We
	// close only once the group is activated, after which no waiting
	// reader targets it (the backward search joins only spin==true
	// nodes).
	if oldTail.flag.Blocked() && !oldTail.flag.WaitUntil(l.in.Wait, p.id, p.pi.TR, dl) {
		// Duty-phase abandonment: nobody else will ever close this
		// group's indicator (the deferred close belongs to this queue
		// position), so the duty cannot be dropped — detach it onto a
		// reaper that finishes the protocol verbatim and releases.
		p.wNode = &Node{kind: kindWriter}
		go l.reapWriterDrain(w, oldTail, p.id)
		p.abandon(lockcore.PhaseDrainWait, dl)
		return false
	}
	closedEmpty := oldTail.ind.Close()
	p.pi.Emit(lockcore.KindIndClose, 0, 0)
	if closedEmpty {
		// Group already drained: no reader will signal us; the grant we
		// just observed (spin false) is ours to take over.
		w.qPrev.Store(nil) // we are the head now
		oldTail.qNext.Store(nil)
		freeReaderNode(oldTail)
		l.in.Inc(lockcore.ROLLNodeRecycle, p.id)
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.pi.ProfAcquired(pt, true)
		l.in.SpanObserve(lockcore.ROLLWriteWait, p.id, w0)
		return true
	}
	if w.flag.Blocked() && !w.flag.WaitUntil(l.in.Wait, p.id, p.pi.TR, dl) {
		return p.cancelWriteWait(dl, t0, pt, lockcore.PhaseDrainWait)
	}
	p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
	p.pi.ProfAcquired(pt, true)
	l.in.SpanObserve(lockcore.ROLLWriteWait, p.id, w0)
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
	w.qNext.Store(nil)
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

// DumpLockState renders the live queue for the trace watchdog: the
// lastReader hint, then the backward chain from the tail (bounded like
// the overtaking search). All fields read are atomics, so the racy walk
// is safe, merely advisory.
func (l *RWLock) DumpLockState(w io.Writer) {
	if h := l.lastReader.Load(); h != nil {
		fmt.Fprintf(w, "roll: lastReader hint: %s\n", l.describeNode(h))
	} else {
		fmt.Fprintf(w, "roll: lastReader hint: unset\n")
	}
	tail := l.tail.Load()
	if tail == nil {
		fmt.Fprintf(w, "roll: queue empty (lock free)\n")
		return
	}
	cur := tail
	for steps := 0; cur != nil && steps < searchLimit; steps++ {
		pos := "tail"
		if steps > 0 {
			pos = fmt.Sprintf("tail-%d", steps)
		}
		fmt.Fprintf(w, "roll: queue node %s: %s\n", pos, l.describeNode(cur))
		cur = cur.qPrev.Load()
	}
}

func (l *RWLock) describeNode(n *Node) string {
	if n.kind == kindWriter {
		return fmt.Sprintf("writer spin=%v", n.flag.Blocked())
	}
	return fmt.Sprintf("reader spin=%v ind=%s", n.flag.Blocked(), rind.Describe(n.ind))
}

// HintSet reports whether the lastReader hint is populated (diagnostic,
// used by the hint ablation tests).
func (l *RWLock) HintSet() bool { return l.lastReader.Load() != nil }
