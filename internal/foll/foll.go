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
// The queue, its nodes and ring pool, release, the non-blocking tries
// and the abandonment machinery are internal/qnode's, shared with ROLL.
// This package is FOLL's acquisition policy over them: readers join
// only the node at the tail, and a writer closes its reader predecessor
// the moment it enqueues behind it — trying it empty before linking: a
// group closed with no surplus has no last departer to find the link.
package foll

import (
	"context"
	"time"

	"ollock/internal/lockcore"
	"ollock/internal/qnode"
	"ollock/internal/rind"
)

// events is FOLL's counter family for the events the substrate counts.
var events = qnode.Events{
	ReadJoin:    lockcore.FOLLReadJoin,
	ReadEnqueue: lockcore.FOLLReadEnqueue,
	NodeRecycle: lockcore.FOLLNodeRecycle,
	Timeout:     lockcore.FOLLTimeout,
	Cancel:      lockcore.FOLLCancel,
}

// RWLock is a FOLL reader-writer lock for up to a fixed number of
// participating goroutines. Use New, then create one Proc per goroutine.
type RWLock struct {
	qnode.Queue
}

// Proc is a per-goroutine handle: the substrate's per-proc state and
// release half, plus FOLL's acquisitions. A Proc supports one
// outstanding acquisition at a time.
type Proc struct {
	qnode.Proc
}

// Option configures the lock.
type Option func(*RWLock)

// WithIndicator substitutes a read-indicator factory (see
// internal/rind) for the per-node C-SNZIs. A factory rather than an
// instance: every ring-pool node carries its own indicator, and
// recycled nodes then recycle indicators of the chosen kind.
func WithIndicator(f rind.Factory) Option { return func(l *RWLock) { l.Factory = f } }

// WithInstr attaches the instrumentation bundle (see internal/lockcore):
// the stats block (foll.* join/enqueue/recycle counters, shared with
// every ring node's csnzi.* counters), the flight-recorder handle
// (queue/group/hand-off lifecycle events), and the wait policy that
// makes node grant flags parking-capable. The zero bundle (the default)
// spins exactly as the paper does, uninstrumented.
func WithInstr(in lockcore.Instr) Option { return func(l *RWLock) { l.In = in } }

// New returns a FOLL lock sized for maxProcs participating goroutines
// (the ring pool holds exactly maxProcs reader nodes, which §4.2.1
// proves sufficient).
func New(maxProcs int, opts ...Option) *RWLock {
	l := &RWLock{}
	for _, o := range opts {
		o(l)
	}
	l.Init("foll", events, maxProcs)
	l.In.AddDumper(l)
	return l
}

// NewProc registers a goroutine with the lock; it panics if more than
// maxProcs handles are created.
func (l *RWLock) NewProc() *Proc { return &Proc{l.AddProc()} }

// RLock acquires the lock for reading.
func (p *Proc) RLock() { p.rlock(lockcore.Deadline{}) }

// rlock is the read-acquisition core, shared by RLock (zero deadline,
// which never expires) and the timed variants below. It reports whether
// the lock was acquired.
func (p *Proc) rlock(dl lockcore.Deadline) bool {
	q := p.Q
	t0 := p.PI.Now()
	pt := p.PI.ProfTick()
	slow := false
	var rNode *qnode.Node
	for {
		if dl.Expired() {
			// Not enqueued and holding no arrival: just walk away.
			qnode.Unalloc(rNode)
			p.Abandon(0, dl)
			return false
		}
		tail := q.Tail.Load()
		switch {
		case tail == nil || tail.Kind == qnode.Writer:
			// Enqueue a fresh reader node — on an empty queue with
			// spin=false (its readers may run immediately), behind a writer
			// waiting (spin=true) until the writer's release — then open
			// its C-SNZI with this reader already inside.
			if rNode == nil {
				rNode = p.AllocReaderNode()
			}
			rNode.Reset(nil)
			rNode.Flag.Set(tail != nil)
			if !q.Tail.CompareAndSwap(tail, rNode) {
				slow = true
				continue // tail changed; retry (keep rNode)
			}
			p.PI.Inc(lockcore.FOLLReadEnqueue)
			if tail == nil {
				p.PI.Emit(lockcore.KindGroupEnqueue, 0, 0)
			} else {
				p.PI.Emit(lockcore.KindGroupEnqueue, 0, 1)
				tail.QNext.Store(rNode)
				slow = true
			}
			p.OpenArrived(rNode)
			if rNode.Flag.Blocked() && !p.AwaitGroup(rNode, rind.Direct, dl) {
				return false
			}
			p.PI.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteRoot)
			p.PI.ProfAcquired(pt, slow)
			return true

		default:
			// Tail is a reader node: join it.
			t := tail.Root.ArriveRoot()
			if t.Arrived() {
				p.PI.Inc(lockcore.CSNZIArriveRoot)
			} else {
				t = tail.Ind.ArriveLocal(p.ID, p.PI.LC)
			}
			if t.Arrived() {
				p.PI.Inc(lockcore.FOLLReadJoin)
				qnode.Unalloc(rNode)
				blocked := tail.Flag.Blocked()
				if blocked && !p.AwaitGroup(tail, t, dl) {
					return false
				}
				p.Hold(tail, t)
				p.PI.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
				p.PI.ProfAcquired(pt, slow || blocked)
				return true
			}
			// Arrive failed: a writer closed the node after enqueuing
			// behind it, so the tail must have changed. Retry.
			p.PI.Emit(lockcore.KindArriveFail, 0, 0)
			slow = true
		}
	}
}

// Lock acquires the lock for writing, exactly as in the MCS mutex except
// for the reader-node predecessor handling.
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
		q.In.SpanObserve(lockcore.FOLLWriteWait, p.ID, w0)
		return true // free lock acquired
	}
	if oldTail.Kind == qnode.Writer {
		w.Flag.Set(true)
		oldTail.QNext.Store(w)
		p.PI.Emit(lockcore.KindQueueEnqueue, 0, 1)
		p.PI.BeginAt(t0, lockcore.PhaseQueueWait)
		if w.Flag.Blocked() && !w.Flag.WaitUntil(q.In.Wait, p.ID, p.PI.TR, dl) {
			return p.CancelWriteWait(dl, t0, pt, lockcore.PhaseQueueWait)
		}
		p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
		p.PI.ProfAcquired(pt, true)
		q.In.SpanObserve(lockcore.FOLLWriteWait, p.ID, w0)
		return true
	}
	// Reader predecessor: close it, to stop further readers joining. Try
	// it empty first, before linking behind it — how the lock rests
	// after any read. Closed with zero surplus, nobody will ever depart
	// the group, so nobody will look for its successor: the links, and
	// the flag a last departer would clear, are never written.
	p.PI.Emit(lockcore.KindQueueEnqueue, 0, 1)
	p.PI.BeginAt(t0, lockcore.PhaseDrainWait)
	var closedEmpty bool
	if r := oldTail.Root; r != nil {
		closedEmpty = r.CloseIfEmpty()
	} else {
		closedEmpty = oldTail.Ind.CloseIfEmpty()
	}
	if !closedEmpty {
		// Readers inside, or the C-SNZI not open yet (the enqueuer opens
		// it just after the enqueue; see also node recycling): link, wait
		// until it is open, and close it under them. This wait is
		// deliberately unbounded even on timed paths — the enqueuer opens
		// the indicator within a few instructions of the enqueue.
		w.Flag.Set(true)
		oldTail.QNext.Store(w)
		lockcore.WaitCond(q.In.Wait, p.ID, p.PI.TR, func() bool {
			_, open := oldTail.Ind.Query()
			return open
		})
		closedEmpty = oldTail.Ind.Close()
	}
	p.PI.Emit(lockcore.KindIndClose, 0, 0)
	if closedEmpty {
		// Closed empty: no readers will signal us. Wait for the
		// predecessor node's own grant and recycle it ourselves.
		if oldTail.Flag.Blocked() && !oldTail.Flag.WaitUntil(q.In.Wait, p.ID, p.PI.TR, dl) {
			// Duty-phase abandonment: closing the predecessor committed
			// us to recycling it and to the write acquisition that
			// follows — neither can be unwound. Detach both onto a
			// reaper that finishes the protocol verbatim and releases.
			p.WNode = qnode.NewWriterNode()
			go reapClosedEmpty(q, w, oldTail, p.ID)
			p.Abandon(lockcore.PhaseDrainWait, dl)
			return false
		}
		p.Recycle(oldTail)
		p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.PI.ProfAcquired(pt, true)
		q.In.SpanObserve(lockcore.FOLLWriteWait, p.ID, w0)
		return true
	}
	// Readers exist: the last departer will signal us.
	if w.Flag.Blocked() && !w.Flag.WaitUntil(q.In.Wait, p.ID, p.PI.TR, dl) {
		return p.CancelWriteWait(dl, t0, pt, lockcore.PhaseDrainWait)
	}
	p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
	p.PI.ProfAcquired(pt, true)
	q.In.SpanObserve(lockcore.FOLLWriteWait, p.ID, w0)
	return true
}

// reapClosedEmpty is the detached duty of a writer that timed out after
// closing its reader predecessor empty: collect the predecessor's
// grant, recycle it, and release the write acquisition the protocol
// forced through.
func reapClosedEmpty(q *qnode.Queue, w, oldTail *qnode.Node, id int) {
	oldTail.Flag.Wait(q.In.Wait, id, nil)
	q.Recycle(oldTail, id)
	q.UnlockNode(w, id)
}

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
