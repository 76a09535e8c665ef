// Timed/cancellable acquisition surface for the FOLL lock. The cores
// live in foll.go (rlock/lock, deadline-threaded); this file adds the
// abandonment machinery — readers retract their arrival through the
// indicator's Depart accounting, writers race a gstate CAS against the
// grant chain (see grant), and duties that cannot be unwound are
// detached onto reaper goroutines that finish the protocol verbatim —
// plus the try/duration/context sugar. See ALGORITHMS.md §17.
package foll

import (
	"context"
	"fmt"
	"time"

	"ollock/internal/lockcore"
	"ollock/internal/rind"
)

// abandon finalizes a failed timed acquisition: the kind's timeout or
// cancel counter (split by expiry cause), one KindCancel trace event,
// and — when ph is nonzero — the open wait-phase span's close.
func (p *Proc) abandon(ph lockcore.Phase, dl lockcore.Deadline) {
	p.l.in.Inc(lockcore.CancelEvent(lockcore.FOLLTimeout, lockcore.FOLLCancel, dl), p.id)
	p.pi.Emit(lockcore.KindCancel, 0, lockcore.CancelArg(dl))
	if ph != 0 {
		p.pi.End(ph)
	}
}

// departAbandoned retracts a read arrival whose wait timed out. The
// common case is a plain Depart. Drawing the group's last ticket from a
// closed indicator instead means this canceler inherited the
// last-departer duty (signal the closing writer, recycle the node):
// discharged inline when the group has already been granted, and handed
// to a reaper that waits out the group's grant otherwise — signaling
// the writer before the lock reaches the group would break mutual
// exclusion.
func (p *Proc) departAbandoned(n *Node, t rind.Ticket) {
	l := p.l
	if n.ind.Depart(t) {
		return
	}
	p.pi.Emit(lockcore.KindIndDrain, 0, 0)
	if !n.flag.Blocked() {
		// Granted: with a closed indicator and zero surplus every other
		// member has departed, so the hand-off duty is ours, now.
		succ := n.qNext.Load()
		l.grant(succ, p.id, p.pi.TR)
		n.qNext.Store(nil)
		freeReaderNode(n)
		p.pi.Inc(lockcore.FOLLNodeRecycle)
		p.pi.Emit(lockcore.KindHandoff, 0, lockcore.PackHandoff(1, true))
		return
	}
	go l.reapReaderGroup(n, p.id)
}

// reapReaderGroup is the detached last-departer duty of an all-canceled
// reader group: wait for the group's grant, pass the lock straight
// through to the closing writer, and recycle the node. No trace ring
// here — rings are single-writer and belong to the proc's goroutine.
func (l *RWLock) reapReaderGroup(n *Node, id int) {
	n.flag.Wait(l.in.Wait, id, nil)
	succ := n.qNext.Load()
	l.grant(succ, id, nil)
	n.qNext.Store(nil)
	freeReaderNode(n)
	l.in.Inc(lockcore.FOLLNodeRecycle, id)
}

// reapClosedEmpty is the detached duty of a writer that timed out after
// closing its reader predecessor empty: collect the predecessor's
// grant, recycle it, and release the write acquisition the protocol
// forced through.
func (l *RWLock) reapClosedEmpty(w, oldTail *Node, id int) {
	oldTail.flag.Wait(l.in.Wait, id, nil)
	oldTail.qNext.Store(nil)
	freeReaderNode(oldTail)
	l.in.Inc(lockcore.FOLLNodeRecycle, id)
	l.unlockNode(w, id, nil)
}

// cancelWriteWait abandons a write acquisition blocked on its own grant
// flag. Winning the gstate race detaches the queued node (the grant
// chain will skip and orphan it, so the proc gets a fresh one); losing
// it means a grant is already in flight — collect the acquisition and
// release it through the normal path. Returns false either way.
func (p *Proc) cancelWriteWait(dl lockcore.Deadline, t0, pt int64, ph lockcore.Phase) bool {
	l := p.l
	w := p.wNode
	if w.gstate.CompareAndSwap(gLive, gAbandoned) {
		p.wNode = &Node{kind: kindWriter}
		p.abandon(ph, dl)
		return false
	}
	w.flag.Wait(l.in.Wait, p.id, p.pi.TR)
	p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
	p.pi.ProfAcquired(pt, true)
	p.Unlock()
	p.abandon(0, dl)
	return false
}

// TryRLock acquires for reading without waiting; it reports success.
func (p *Proc) TryRLock() bool {
	l := p.l
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	tail := l.tail.Load()
	switch {
	case tail == nil:
		rNode := p.allocReaderNode()
		rNode.reset()
		rNode.flag.Set(false)
		if !l.tail.CompareAndSwap(nil, rNode) {
			freeReaderNode(rNode)
			return false
		}
		p.pi.Inc(lockcore.FOLLReadEnqueue)
		p.pi.Emit(lockcore.KindGroupEnqueue, 0, 0)
		rNode.ind.Open()
		t := rNode.ind.ArriveLocal(p.id, p.pi.LC)
		if !t.Arrived() {
			// A writer closed the node already; the closer owns cleanup.
			p.pi.Emit(lockcore.KindArriveFail, 0, 0)
			return false
		}
		p.departFrom, p.ticket = rNode, t
		p.pi.Acquired(lockcore.KindReadAcquired, t0, t.TraceRoute())
		p.pi.ProfAcquired(pt, false)
		return true
	case tail.kind == kindReader && !tail.flag.Blocked():
		t := tail.ind.ArriveLocal(p.id, p.pi.LC)
		if !t.Arrived() {
			p.pi.Emit(lockcore.KindArriveFail, 0, 0)
			return false
		}
		if tail.flag.Blocked() {
			// The node was recycled and re-enqueued waiting between the
			// two loads; we joined a blocked group. Back out.
			p.departAbandoned(tail, t)
			return false
		}
		p.pi.Inc(lockcore.FOLLReadJoin)
		p.departFrom, p.ticket = tail, t
		p.pi.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
		p.pi.ProfAcquired(pt, false)
		return true
	}
	return false
}

// TryLock acquires for writing without waiting; it reports success.
func (p *Proc) TryLock() bool {
	l := p.l
	if l.tail.Load() != nil {
		return false
	}
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	w := p.wNode
	w.reset()
	if !l.tail.CompareAndSwap(nil, w) {
		return false
	}
	p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
	p.pi.ProfAcquired(pt, false)
	return true
}

// RLockDeadline acquires for reading, abandoning on expiry; it reports
// whether the lock was acquired. A zero deadline never expires.
func (p *Proc) RLockDeadline(dl lockcore.Deadline) bool { return p.rlock(dl) }

// LockDeadline acquires for writing, abandoning on expiry; it reports
// whether the lock was acquired.
func (p *Proc) LockDeadline(dl lockcore.Deadline) bool { return p.lock(dl) }

// RLockFor acquires for reading, giving up after d. The try-first shape
// keeps the uncontended timed acquisition at untimed speed: anchoring
// the deadline costs a clock read, which only a failed immediate
// attempt — the one a non-positive d is owed anyway — has to pay.
func (p *Proc) RLockFor(d time.Duration) bool {
	if p.TryRLock() {
		return true
	}
	return p.rlock(lockcore.After(d))
}

// LockFor acquires for writing, giving up after d.
func (p *Proc) LockFor(d time.Duration) bool {
	if p.TryLock() {
		return true
	}
	return p.lock(lockcore.After(d))
}

// RLockCtx acquires for reading, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (p *Proc) RLockCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dl := lockcore.FromContext(ctx)
	if p.rlock(dl) {
		return nil
	}
	return dl.Err()
}

// LockCtx acquires for writing, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (p *Proc) LockCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dl := lockcore.FromContext(ctx)
	if p.lock(dl) {
		return nil
	}
	return dl.Err()
}

// NodesInUse returns the number of allocated ring-pool nodes
// (diagnostic; exact only at quiescence).
func (l *RWLock) NodesInUse() int {
	c := 0
	for i := range l.ring {
		if l.ring[i].allocState.Load() == allocInUse {
			c++
		}
	}
	return c
}

// restFault names the first way n, a node outside the queue — a free
// ring node, or a proc's writer node between acquisitions — departs
// from the resting state ("" if none): no queue link, no abandoned grant
// word, and for a ring node a lowered flag over a closed, drained
// indicator. From rest, reset and Flag.Set make a node canonical
// storing at most the two words a finished acquisition may leave
// behind: the grant word (gGranted after a delivered grant) and the
// flag.
func (n *Node) restFault() string {
	switch {
	case n.qNext.Load() != nil:
		return "stale qNext"
	case n.gstate.Load() == gAbandoned:
		return "abandoned grant word"
	case n.kind == kindWriter:
		return ""
	case n.flag.Blocked():
		return "raised flag"
	}
	if nonzero, open := n.ind.Query(); nonzero || open {
		return "indicator not closed and drained"
	}
	return ""
}

// ringFault names the first free ring node that is not at rest ("" if
// none).
func (l *RWLock) ringFault() string {
	for i := range l.ring {
		if n := &l.ring[i]; n.allocState.Load() == allocFree {
			if f := n.restFault(); f != "" {
				return fmt.Sprintf("free ring node %d: %s", i, f)
			}
		}
	}
	return ""
}

// Idle reports whether the lock is free and its pool clean
// (diagnostic; exact only at quiescence): every free ring node is at
// rest (see restFault), and either the queue is empty, or the tail is
// a drained reader group — an open, zero-surplus, unblocked reader
// node, which is how the lock rests after read-mostly traffic (the
// node stays in place for future readers to join).
func (l *RWLock) Idle() bool {
	if l.ringFault() != "" {
		return false
	}
	n := l.tail.Load()
	if n == nil {
		return true
	}
	if n.kind != kindReader || n.flag.Blocked() {
		return false
	}
	nonzero, open := n.ind.Query()
	return open && !nonzero
}
