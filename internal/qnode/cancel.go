// Abandonment machinery and the non-blocking tries, shared by every
// policy: readers retract their arrival through the indicator's Depart
// accounting, writers race a GState CAS against the grant chain (see
// grant), and duties that cannot be unwound are detached onto reaper
// goroutines that finish the protocol verbatim. The policy-specific
// reapers (a writer abandoning its duty to a reader predecessor) live
// with the policy, which alone knows when that predecessor is closed.
// See ALGORITHMS.md §17.
package qnode

import (
	"ollock/internal/lockcore"
	"ollock/internal/rind"
)

// Abandon finalizes a failed timed acquisition: the lock's timeout or
// cancel counter (split by expiry cause), one KindCancel trace event,
// and — when ph is nonzero — the open wait-phase span's close.
func (p *Proc) Abandon(ph lockcore.Phase, dl lockcore.Deadline) {
	p.Q.In.Inc(lockcore.CancelEvent(p.Q.ev.Timeout, p.Q.ev.Cancel, dl), p.ID)
	p.PI.Emit(lockcore.KindCancel, 0, lockcore.CancelArg(dl))
	if ph != 0 {
		p.PI.End(ph)
	}
}

// AwaitGroup waits for the grant of reader group n, which the caller
// has joined with ticket t, or retracts the arrival when dl expires
// first; it reports whether the group was granted. Callers reach it —
// and the Deadline it carries — only when the inlined Blocked load says
// the group is still waiting.
func (p *Proc) AwaitGroup(n *Node, t rind.Ticket, dl lockcore.Deadline) bool {
	p.PI.Begin(lockcore.PhaseSpinWait)
	if n.Flag.WaitUntil(p.Q.In.Wait, p.ID, p.PI.TR, dl) {
		return true
	}
	p.departAbandoned(n, t)
	p.Abandon(lockcore.PhaseSpinWait, dl)
	return false
}

// departAbandoned retracts a read arrival whose wait timed out. The
// common case is a plain Depart. Drawing the group's last ticket from a
// closed indicator instead means this canceler inherited the
// last-departer duty (signal the closing writer, recycle the node):
// discharged inline when the group has already been granted, and handed
// to a reaper that waits out the group's grant otherwise — signaling
// the writer before the lock reaches the group would break mutual
// exclusion. (Under a policy that closes a group only after it
// activates, closed implies granted and the reaper is never needed.)
func (p *Proc) departAbandoned(n *Node, t rind.Ticket) {
	if n.Ind.Depart(t) {
		return
	}
	p.PI.Emit(lockcore.KindIndDrain, 0, 0)
	if !n.Flag.Blocked() {
		// Granted: with a closed indicator and zero surplus every other
		// member has departed, so the hand-off duty is ours, now.
		p.passOn(n)
		return
	}
	go p.Q.reapReaderGroup(n, p.ID)
}

// reapReaderGroup is the detached last-departer duty of an all-canceled
// reader group: wait for the group's grant, pass the lock straight
// through to the closing writer, and recycle the node. No trace ring
// here — rings are single-writer and belong to the proc's goroutine.
func (q *Queue) reapReaderGroup(n *Node, id int) {
	n.Flag.Wait(q.In.Wait, id, nil)
	q.grant(n.QNext.Load(), id, nil)
	q.Recycle(n, id)
}

// CancelWriteWait abandons a write acquisition blocked on its own grant
// flag. Winning the GState race detaches the queued node (the grant
// chain will skip and orphan it, so the proc gets a fresh one); losing
// it means a grant is already in flight — collect the acquisition and
// release it through the normal path. Returns false either way.
func (p *Proc) CancelWriteWait(dl lockcore.Deadline, t0, pt int64, ph lockcore.Phase) bool {
	w := p.WNode
	if w.GState.CompareAndSwap(Live, Abandoned) {
		p.WNode = NewWriterNode()
		p.Abandon(ph, dl)
		return false
	}
	w.Flag.Wait(p.Q.In.Wait, p.ID, p.PI.TR)
	w.BecomeHead()
	p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
	p.PI.ProfAcquired(pt, true)
	p.Unlock()
	p.Abandon(0, dl)
	return false
}

// TryRLock acquires for reading without waiting; it reports success.
// Waiting groups are not joined (that would block), so the policies
// agree here: an empty queue, or an active reader group at the tail.
func (p *Proc) TryRLock() bool {
	q := p.Q
	t0 := p.PI.Now()
	pt := p.PI.ProfTick()
	tail := q.Tail.Load()
	switch {
	case tail == nil:
		rNode := p.AllocReaderNode()
		rNode.Reset(nil)
		rNode.Flag.Set(false)
		if !q.Tail.CompareAndSwap(nil, rNode) {
			rNode.free()
			return false
		}
		p.PI.Inc(q.ev.ReadEnqueue)
		p.PI.Emit(lockcore.KindGroupEnqueue, 0, 0)
		p.OpenArrived(rNode)
		p.PI.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteRoot)
		p.PI.ProfAcquired(pt, false)
		return true
	case tail.Kind == Reader && !tail.Flag.Blocked():
		t := tail.Root.ArriveRoot()
		if t.Arrived() {
			p.PI.Inc(lockcore.CSNZIArriveRoot)
		} else {
			t = tail.Ind.ArriveLocal(p.ID, p.PI.LC)
		}
		if !t.Arrived() {
			p.PI.Emit(lockcore.KindArriveFail, 0, 0)
			return false
		}
		if tail.Flag.Blocked() {
			// The node was recycled and re-enqueued waiting between the
			// two loads; we joined a blocked group. Back out.
			p.departAbandoned(tail, t)
			return false
		}
		p.PI.Inc(q.ev.ReadJoin)
		p.Hold(tail, t)
		p.PI.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteJoin)
		p.PI.ProfAcquired(pt, false)
		return true
	}
	return false
}

// TryLock acquires for writing without waiting; it reports success. The
// lock is free when the queue is empty or rests on a drained reader
// group (see Idle), which is taken as Lock takes it — become its
// successor, then close it empty — and only in that order: the tail
// read here may be stale, and closing a node another writer queued
// behind would consume the drain that writer waits for. A try that wins
// the tail but not the close (a reader slipped in, or the node came
// back as a waiting group) is refused; its node owes the group its
// close, so a reaper finishes it.
func (p *Proc) TryLock() bool {
	q := p.Q
	tail := q.Tail.Load()
	if tail != nil && !tail.resting() {
		return false
	}
	t0 := p.PI.Now()
	pt := p.PI.ProfTick()
	w := p.WNode
	w.Reset(nil)
	if !q.Tail.CompareAndSwap(tail, w) {
		return false
	}
	if tail != nil {
		p.PI.Emit(lockcore.KindQueueEnqueue, 0, 1)
		// The close goes inline on the resolved root, as in foll.lock and
		// roll.lock — which inline theirs only because this package's
		// export data carries the body it inlined here.
		var closedEmpty bool
		switch r := tail.Root; {
		case tail.Flag.Blocked(): // a waiting group is not ours to close
		case r != nil:
			closedEmpty = r.CloseIfEmpty()
		default:
			closedEmpty = tail.Ind.CloseIfEmpty()
		}
		if !closedEmpty {
			w.Flag.Set(true)
			tail.QNext.Store(w)
			p.WNode = NewWriterNode()
			go q.ReapDrain(w, tail, p.ID)
			return false
		}
		p.PI.Emit(lockcore.KindIndClose, 0, 0)
		p.Recycle(tail)
	}
	p.PI.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
	p.PI.ProfAcquired(pt, false)
	return true
}

// ReapDrain is the detached duty of a writer that walked away from w,
// linked behind reader group oldTail, before closing the group: close
// it once it is open and active (no earlier — under ROLL a waiting
// group must stay joinable), recycle the node if the close drained it
// (otherwise collect the last departer's grant), and release the write
// acquisition the protocol forced through. No trace ring here — rings
// are single-writer and belong to the proc's goroutine.
func (q *Queue) ReapDrain(w, oldTail *Node, id int) {
	lockcore.WaitCond(q.In.Wait, id, nil, func() bool {
		_, open := oldTail.Ind.Query()
		return open
	})
	oldTail.Flag.Wait(q.In.Wait, id, nil)
	if oldTail.Ind.Close() {
		w.BecomeHead()
		q.Recycle(oldTail, id)
	} else {
		w.Flag.Wait(q.In.Wait, id, nil)
		w.BecomeHead()
	}
	q.UnlockNode(w, id)
}
