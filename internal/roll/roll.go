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
// searching reader targets the node anyway. A group that is already
// active when the writer arrives is closed at once, and tried empty
// before the writer links behind it, exactly as under FOLL.
//
// The queue, its nodes and ring pool, release, the non-blocking tries
// and the abandonment machinery are internal/qnode's, shared with FOLL.
// This package is what §4.3 adds: the backward links (the substrate's
// QPrev word, which only this policy sets, and which each writer clears
// itself once it holds the lock), the lastReader hint, the
// join-a-waiting-group rule (tryJoinWaiting and the back-walk), and the
// deferred close (the reaper an abandoned one needs is the substrate's
// ReapDrain, which a refused TryLock shares).
package roll

import (
	"context"
	"fmt"
	"io"
	"time"

	"ollock/internal/atomicx"
	"ollock/internal/lockcore"
	"ollock/internal/qnode"
	"ollock/internal/rind"
)

// searchLimit bounds the backward walk. A stale back link can lead the
// walk through released and re-enqueued nodes, even round a cycle;
// bounding it keeps the fallback (enqueue a fresh node, i.e. FOLL
// behaviour) prompt.
const searchLimit = 256

// events is ROLL's counter family for the events the substrate counts.
var events = qnode.Events{
	ReadJoin:    lockcore.ROLLReadJoin,
	ReadEnqueue: lockcore.ROLLReadEnqueue,
	NodeRecycle: lockcore.ROLLNodeRecycle,
	Timeout:     lockcore.ROLLTimeout,
	Cancel:      lockcore.ROLLCancel,
}

// RWLock is a ROLL reader-writer lock for up to a fixed number of
// participating goroutines. Use New, then one Proc per goroutine.
type RWLock struct {
	qnode.Queue
	lastReader atomicx.PaddedPointer[qnode.Node] // hint: last known waiting reader node
}

// Proc is a per-goroutine handle: the substrate's per-proc state and
// release half, plus ROLL's acquisitions (one outstanding acquisition
// at a time).
type Proc struct {
	qnode.Proc
	l *RWLock
}

// Option configures the lock.
type Option func(*RWLock)

// WithIndicator substitutes a read-indicator factory (see
// internal/rind) for the per-node C-SNZIs; every ring-pool node gets
// its own indicator of the chosen kind.
func WithIndicator(f rind.Factory) Option { return func(l *RWLock) { l.Factory = f } }

// WithInstr attaches the instrumentation bundle (see internal/lockcore):
// the stats block (roll.* join/overtake/hint counters, shared with
// every ring node's csnzi.* counters), the flight-recorder handle
// (queue/overtake/hint lifecycle events), and the wait policy that
// makes node grant flags parking-capable. The zero bundle (the default)
// spins exactly as the paper does, uninstrumented.
func WithInstr(in lockcore.Instr) Option { return func(l *RWLock) { l.In = in } }

// New returns a ROLL lock sized for maxProcs participating goroutines.
func New(maxProcs int, opts ...Option) *RWLock {
	l := &RWLock{}
	for _, o := range opts {
		o(l)
	}
	l.Init("roll", events, maxProcs)
	l.In.AddDumper(l)
	return l
}

// NewProc registers a goroutine with the lock; panics beyond maxProcs.
func (l *RWLock) NewProc() *Proc { return &Proc{Proc: l.AddProc(), l: l} }

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
func (p *Proc) tryJoinWaiting(n *qnode.Node, t0, pt int64, dl lockcore.Deadline) int {
	if n.Kind != qnode.Reader || !n.Flag.Blocked() {
		return joinNo
	}
	t := n.Root.ArriveRoot()
	if t.Arrived() {
		p.PI.Inc(lockcore.CSNZIArriveRoot)
	} else {
		t = n.Ind.ArriveLocal(p.ID, p.PI.LC)
	}
	if !t.Arrived() {
		return joinNo
	}
	p.PI.Inc(lockcore.ROLLOvertake)
	p.PI.Emit(lockcore.KindOvertake, 0, 0)
	// Refresh the hint only when it actually changes: with one waiting
	// group at a time, an unconditional store would make the hint word a
	// globally contended line written by every joining reader.
	if p.l.lastReader.Load() != n {
		p.l.lastReader.Store(n)
	}
	if n.Flag.Blocked() && !p.AwaitGroup(n, t, dl) {
		return joinCanceled
	}
	p.Hold(n, t)
	p.PI.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
	p.PI.ProfAcquired(pt, true)
	return joinAcquired
}

// overtake is the backward search from writer node from (a tail the
// caller loaded, possibly stale by now): follow back links through
// writer nodes to the first reader node and try to join its group. It
// stops there whatever the outcome, since a reader node's own link is
// never followed. The links it follows may be stale — a granted writer
// keeps its link until BecomeHead, and may name a node since recycled,
// re-enqueued or released, so the chain can even cycle — which is safe
// because tryJoinWaiting joins only a waiting, open group (an enqueued
// one), and searchLimit ends a cycle.
func (p *Proc) overtake(from *qnode.Node, t0, pt int64, dl lockcore.Deadline) int {
	cur := from.QPrev.Load()
	for steps := 0; cur != nil && steps < searchLimit; steps++ {
		if cur.Kind == qnode.Reader {
			return p.tryJoinWaiting(cur, t0, pt, dl)
		}
		cur = cur.QPrev.Load()
	}
	return joinNo
}

// RLock acquires the lock for reading, preferring to join an existing
// waiting reader group over enqueuing behind writers.
func (p *Proc) RLock() { p.rlock(lockcore.Deadline{}) }

// rlock is the read-acquisition core, shared by RLock (zero deadline,
// which never expires) and the timed variants below. It reports whether
// the lock was acquired.
func (p *Proc) rlock(dl lockcore.Deadline) bool {
	q, hint := p.Q, &p.l.lastReader
	t0 := p.PI.Now()
	pt := p.PI.ProfTick()
	slow := false
	var rNode *qnode.Node // allocated, not (yet) enqueued
	for {
		if dl.Expired() {
			// Not enqueued and holding no arrival: just walk away.
			qnode.Unalloc(rNode)
			p.Abandon(0, dl)
			return false
		}
		// Fast path: the hint points at the last known waiting group.
		if h := hint.Load(); h != nil {
			if st := p.tryJoinWaiting(h, t0, pt, dl); st != joinNo {
				qnode.Unalloc(rNode)
				if st == joinAcquired {
					p.PI.Inc(lockcore.ROLLHintHit)
					p.PI.Emit(lockcore.KindHintHit, 0, 0)
				}
				return st == joinAcquired
			}
			p.PI.Inc(lockcore.ROLLHintMiss)
			p.PI.Emit(lockcore.KindHintMiss, 0, 0)
			hint.CompareAndSwap(h, nil)
		}
		tail := q.Tail.Load()
		switch {
		case tail != nil && tail.Kind == qnode.Reader:
			// Tail is a reader node: join it directly (same as FOLL).
			t := tail.Root.ArriveRoot()
			if t.Arrived() {
				p.PI.Inc(lockcore.CSNZIArriveRoot)
			} else {
				t = tail.Ind.ArriveLocal(p.ID, p.PI.LC)
			}
			if t.Arrived() {
				p.PI.Inc(lockcore.ROLLReadJoin)
				qnode.Unalloc(rNode)
				blocked := tail.Flag.Blocked()
				if blocked {
					if hint.Load() != tail {
						hint.Store(tail)
					}
					if !p.AwaitGroup(tail, t, dl) {
						return false
					}
				}
				p.Hold(tail, t)
				p.PI.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
				p.PI.ProfAcquired(pt, slow || blocked)
				return true
			}
			// Closed: tail changed; retry.
			p.PI.Emit(lockcore.KindArriveFail, 0, 0)
			slow = true

		default:
			// Tail is a writer: search backward for a waiting reader
			// group to overtake into. (An empty queue has nothing to
			// search.)
			if tail != nil {
				if st := p.overtake(tail, t0, pt, dl); st != joinNo {
					qnode.Unalloc(rNode)
					return st == joinAcquired
				}
			}
			// No joinable group: enqueue a fresh reader node at the tail
			// (FOLL behaviour) — running on an empty queue, waiting behind
			// the writer as the new group otherwise.
			if rNode == nil {
				rNode = p.AllocReaderNode()
			}
			rNode.Reset(tail)
			rNode.Flag.Set(tail != nil)
			if !q.Tail.CompareAndSwap(tail, rNode) {
				slow = true
				continue
			}
			p.PI.Inc(lockcore.ROLLReadEnqueue)
			if tail == nil {
				p.PI.Emit(lockcore.KindGroupEnqueue, 0, 0)
			} else {
				p.PI.Emit(lockcore.KindGroupEnqueue, 0, 1)
				tail.QNext.Store(rNode)
				slow = true
			}
			p.OpenArrived(rNode)
			if tail != nil {
				hint.Store(rNode)
			}
			if rNode.Flag.Blocked() && !p.AwaitGroup(rNode, rind.Direct, dl) {
				return false
			}
			p.PI.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteRoot)
			p.PI.ProfAcquired(pt, slow)
			return true
		}
	}
}

// Lock acquires the lock for writing.
func (p *Proc) Lock() { p.lock(lockcore.Deadline{}) }

// lock is the write-acquisition core, shared by Lock (zero deadline)
// and the timed variants below. It reports whether the lock was
// acquired.
func (p *Proc) lock(dl lockcore.Deadline) bool {
	q := p.Q
	t0 := p.PI.Now()
	pt := p.PI.ProfTick()
	w0 := q.In.SpanStart()
	w := p.WNode
	w.Reset(nil)
	oldTail := q.Tail.Swap(w)
	if oldTail == nil {
		p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.PI.ProfAcquired(pt, false)
		q.In.SpanObserve(lockcore.ROLLWriteWait, p.ID, w0)
		return true
	}
	if oldTail.Kind == qnode.Writer {
		w.QPrev.Store(oldTail)
		w.Flag.Set(true)
		oldTail.QNext.Store(w)
		p.PI.Emit(lockcore.KindQueueEnqueue, 0, 1)
		p.PI.BeginAt(t0, lockcore.PhaseQueueWait)
		if w.Flag.Blocked() && !w.Flag.WaitUntil(q.In.Wait, p.ID, p.PI.TR, dl) {
			return p.CancelWriteWait(dl, t0, pt, lockcore.PhaseQueueWait)
		}
		w.BecomeHead()
		p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
		p.PI.ProfAcquired(pt, true)
		q.In.SpanObserve(lockcore.ROLLWriteWait, p.ID, w0)
		return true
	}
	// Reader-node predecessor. An active group is tried empty first,
	// before linking behind it — how the lock rests after any read.
	// Closed with zero surplus, nobody will ever depart it, so nobody
	// will look for its successor, and no overtaking reader can join it:
	// neither link is written, nor the flag a last departer would clear.
	p.PI.Emit(lockcore.KindQueueEnqueue, 0, 1)
	p.PI.BeginAt(t0, lockcore.PhaseDrainWait)
	closedEmpty := false
	if !oldTail.Flag.Blocked() {
		if r := oldTail.Root; r != nil {
			closedEmpty = r.CloseIfEmpty()
		} else {
			closedEmpty = oldTail.Ind.CloseIfEmpty()
		}
	}
	if !closedEmpty {
		// Link, and wait out the enqueue/Open window (node recycling: the
		// C-SNZI is closed until the enqueuer opens it). Deliberately
		// unbounded even on timed paths — the enqueuer opens the
		// indicator within a few instructions of the enqueue.
		w.QPrev.Store(oldTail)
		w.Flag.Set(true)
		oldTail.QNext.Store(w)
		lockcore.WaitCond(q.In.Wait, p.ID, p.PI.TR, func() bool {
			_, open := oldTail.Ind.Query()
			return open
		})
		// ROLL's key difference from FOLL: do NOT close a waiting group's
		// C-SNZI. While the group is still waiting (spin set), readers
		// arriving later must be able to join it — that is the reader
		// preference. We close only once the group is activated, after
		// which no waiting reader targets it (the backward search joins
		// only spin==true nodes).
		if oldTail.Flag.Blocked() && !oldTail.Flag.WaitUntil(q.In.Wait, p.ID, p.PI.TR, dl) {
			// Duty-phase abandonment: nobody else will ever close this
			// group's indicator (the deferred close belongs to this queue
			// position), so the duty cannot be dropped — detach it onto a
			// reaper that finishes the protocol verbatim and releases.
			p.WNode = qnode.NewWriterNode()
			go q.ReapDrain(w, oldTail, p.ID)
			p.Abandon(lockcore.PhaseDrainWait, dl)
			return false
		}
		closedEmpty = oldTail.Ind.Close()
	}
	p.PI.Emit(lockcore.KindIndClose, 0, 0)
	if closedEmpty {
		// Group already drained: no reader will signal us; the grant we
		// observed (spin false) is ours to take over.
		w.BecomeHead()
		p.Recycle(oldTail)
		p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.PI.ProfAcquired(pt, true)
		q.In.SpanObserve(lockcore.ROLLWriteWait, p.ID, w0)
		return true
	}
	if w.Flag.Blocked() && !w.Flag.WaitUntil(q.In.Wait, p.ID, p.PI.TR, dl) {
		return p.CancelWriteWait(dl, t0, pt, lockcore.PhaseDrainWait)
	}
	w.BecomeHead()
	p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
	p.PI.ProfAcquired(pt, true)
	q.In.SpanObserve(lockcore.ROLLWriteWait, p.ID, w0)
	return true
}

// DumpLockState renders the live queue for the trace watchdog: the
// lastReader hint, then the substrate's queue dump.
func (l *RWLock) DumpLockState(w io.Writer) {
	if h := l.lastReader.Load(); h != nil {
		fmt.Fprintf(w, "roll: lastReader hint: %s\n", h)
	} else {
		fmt.Fprintf(w, "roll: lastReader hint: unset\n")
	}
	l.Queue.DumpLockState(w)
}

// HintSet reports whether the lastReader hint is populated (diagnostic,
// used by the hint ablation tests).
func (l *RWLock) HintSet() bool { return l.lastReader.Load() != nil }

// RLockDeadline acquires for reading, abandoning on expiry; it reports
// whether the lock was acquired. A zero deadline never expires.
func (p *Proc) RLockDeadline(dl lockcore.Deadline) bool { return p.rlock(dl) }

// LockDeadline acquires for writing, abandoning on expiry; it reports
// whether the lock was acquired.
func (p *Proc) LockDeadline(dl lockcore.Deadline) bool { return p.lock(dl) }

// RLockFor acquires for reading, giving up after d; an immediate
// attempt comes first (see lockcore.AcquireFor).
func (p *Proc) RLockFor(d time.Duration) bool {
	return lockcore.AcquireFor(d, p.TryRLock, p.rlock)
}

// LockFor acquires for writing, giving up after d.
func (p *Proc) LockFor(d time.Duration) bool {
	return lockcore.AcquireFor(d, p.TryLock, p.lock)
}

// RLockCtx acquires for reading, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (p *Proc) RLockCtx(ctx context.Context) error {
	return lockcore.AcquireCtx(ctx, p.rlock)
}

// LockCtx acquires for writing, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (p *Proc) LockCtx(ctx context.Context) error {
	return lockcore.AcquireCtx(ctx, p.lock)
}
