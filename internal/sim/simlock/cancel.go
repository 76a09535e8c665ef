package simlock

import (
	"slices"

	"ollock/internal/obs"
	"ollock/internal/sim"
	"ollock/internal/trace"
)

// This file mirrors the host stack's timed/cancellable acquisition on
// the simulated machine. Deadlines are absolute virtual cycle counts
// (the sim's analogue of lockcore.Deadline): an acquisition abandons
// once c.Now() passes the deadline, with the same accounting as the
// real locks (the kind's timeout counter, one KindCancel trace event).
// Only the central and GOLL locks get sim cancellation — they cover the
// two abandonment shapes the simulator can model faithfully (retry-loop
// backout and queue unlink under the metalock); the ring-pool locks'
// gstate protocol depends on host-memory reaper goroutines the
// discrete model has no counterpart for, and is proven by the host
// chaos torture instead.

// CancelProc is the simulated counterpart of ollock.DeadlineProc: a
// Proc whose acquisitions can give up at an absolute virtual deadline.
// Methods report whether the lock was acquired; a deadline already in
// the past still makes one immediate attempt (matching the host
// semantics, where Try-shaped uses pass an expired deadline).
type CancelProc interface {
	Proc
	RLockUntil(c *sim.Ctx, deadline int64) bool
	LockUntil(c *sim.Ctx, deadline int64) bool
}

// cancelProbeGap is the virtual-cycle pause between deadline probes of
// a timed wait, modeling the real waiter's bounded spin-check stride
// (park.ParkTimeout re-arms between expiry checks rather than watching
// the word indefinitely).
const cancelProbeGap = 40

// spinUntilBy polls w until pred holds or the deadline passes; it
// returns the last value read and whether pred was satisfied. Unlike
// SpinUntil this charges each probe — a timed waiter keeps waking to
// check the clock, so its fruitless probes cannot coalesce.
func spinUntilBy(c *sim.Ctx, w *sim.Word, pred func(uint64) bool, deadline int64) (uint64, bool) {
	for {
		v := c.Load(w)
		if pred(v) {
			return v, true
		}
		if c.Now() >= deadline {
			return v, false
		}
		c.Work(cancelProbeGap)
	}
}

// remove unlinks the entry waiting on flag; it reports whether the
// entry was still queued (false means a hand-off already dequeued it,
// so a grant is in flight and the caller must accept it).
func (q *simWaitQueue) remove(c *sim.Ctx, flag *sim.Word) bool {
	c.Work(queueOpCost)
	for i, e := range q.entries {
		if e.flag == flag {
			q.entries = slices.Delete(q.entries, i, i+1)
			if e.writer {
				q.numWriters--
			}
			return true
		}
	}
	return false
}

// --- central ---

// RLockUntil implements CancelProc: the retry-loop backout shape — no
// queue state to unwind, the reader simply stops retrying.
func (p centralProc) RLockUntil(c *sim.Ctx, deadline int64) bool {
	for {
		w := c.Load(p.l.word)
		if w&centralWriterBit == 0 {
			if c.CAS(p.l.word, w, w+1) {
				return true
			}
			continue
		}
		if c.Now() >= deadline {
			return false
		}
		if _, ok := spinUntilBy(c, p.l.word, func(v uint64) bool { return v&centralWriterBit == 0 }, deadline); !ok {
			return false
		}
	}
}

// LockUntil implements CancelProc.
func (p centralProc) LockUntil(c *sim.Ctx, deadline int64) bool {
	for {
		if c.CAS(p.l.word, 0, centralWriterBit) {
			return true
		}
		if c.Now() >= deadline {
			return false
		}
		if _, ok := spinUntilBy(c, p.l.word, func(v uint64) bool { return v == 0 }, deadline); !ok {
			return false
		}
	}
}

// --- GOLL ---

// cancelQueued finalizes an expired queue wait: under the metalock the
// canceler races the hand-off exactly as the host GOLL does. Three
// outcomes: the flag is already set (the grant won — the acquisition
// stands), the entry is still queued (unlink it; the cancel stands), or
// the entry was dequeued but not yet signaled (a grant is in flight —
// wait it out and accept it). Returns whether the lock was acquired.
func (p *gollProc) cancelQueued(c *sim.Ctx) bool {
	l := p.l
	l.meta.lock(c)
	if c.Load(p.flag) == 1 {
		l.meta.unlock(c)
		return true
	}
	if !l.q.remove(c, p.flag) {
		l.meta.unlock(c)
		c.SpinUntil(p.flag, func(v uint64) bool { return v == 1 })
		return true
	}
	l.meta.unlock(c)
	l.stats.Inc(obs.GOLLTimeout, p.id)
	l.tr.emit(c, p.id, trace.KindCancel, trace.PhaseNone, trace.RouteNone)
	return false
}

// RLockUntil implements CancelProc. The cancel point is the queue wait;
// a removed reader has nothing else to unwind because the releaser
// pre-arrives at the root only for the entries it dequeues, and if the
// queue empties the drain's nil-batch hand-off reopens the indicator.
func (p *gollProc) RLockUntil(c *sim.Ctx, deadline int64) bool {
	l := p.l
	for {
		p.ticket = l.cs.Arrive(c, p.id)
		if p.ticket.Arrived() {
			l.tr.emit(c, p.id, trace.KindReadAcquired, trace.PhaseNone, routeOf(p.ticket))
			return true
		}
		l.tr.emit(c, p.id, trace.KindArriveFail, trace.PhaseNone, trace.RouteNone)
		if c.Now() >= deadline {
			l.stats.Inc(obs.GOLLTimeout, p.id)
			l.tr.emit(c, p.id, trace.KindCancel, trace.PhaseNone, trace.RouteNone)
			return false
		}
		c.Store(p.flag, 0)
		l.meta.lock(c)
		if _, open := l.cs.Query(c); open {
			l.meta.unlock(c)
			continue
		}
		l.q.enqueue(c, false, p.flag)
		l.meta.unlock(c)
		l.tr.emit(c, p.id, trace.KindQueueEnqueue, trace.PhaseNone, trace.RouteNone)
		l.tr.emit(c, p.id, trace.KindPhaseBegin, trace.PhaseQueueWait, trace.RouteNone)
		p.ticket = TicketDirect // releaser pre-arrives at the root for us
		if _, ok := spinUntilBy(c, p.flag, func(v uint64) bool { return v == 1 }, deadline); !ok {
			if !p.cancelQueued(c) {
				return false
			}
		}
		l.tr.emit(c, p.id, trace.KindReadAcquired, trace.PhaseNone, trace.RouteDirect)
		return true
	}
}

// LockUntil implements CancelProc. A canceled writer may leave the
// indicator it closed behind with no writer queued; the next drain's
// nil-batch hand-off (RUnlock) reopens it, which is safe because a
// false Close with a transition implies surplus > 0 — some reader still
// holds the drain duty.
func (p *gollProc) LockUntil(c *sim.Ctx, deadline int64) bool {
	l := p.l
	w0 := c.Now()
	if l.cs.CloseIfEmpty(c) {
		l.tr.emit(c, p.id, trace.KindWriteAcquired, trace.PhaseNone, trace.RouteRoot)
		l.stats.Observe(obs.GOLLWriteWait, p.id, c.Now()-w0)
		return true
	}
	if c.Now() >= deadline {
		l.stats.Inc(obs.GOLLTimeout, p.id)
		l.tr.emit(c, p.id, trace.KindCancel, trace.PhaseNone, trace.RouteNone)
		return false
	}
	c.Store(p.flag, 0)
	l.meta.lock(c)
	if l.cs.Close(c) {
		l.meta.unlock(c)
		l.tr.emit(c, p.id, trace.KindWriteAcquired, trace.PhaseNone, trace.RouteRoot)
		l.stats.Observe(obs.GOLLWriteWait, p.id, c.Now()-w0)
		return true
	}
	l.tr.emit(c, p.id, trace.KindIndClose, trace.PhaseNone, trace.RouteNone)
	l.q.enqueue(c, true, p.flag)
	l.meta.unlock(c)
	l.tr.emit(c, p.id, trace.KindQueueEnqueue, trace.PhaseNone, trace.RouteNone)
	l.tr.emit(c, p.id, trace.KindPhaseBegin, trace.PhaseQueueWait, trace.RouteNone)
	if _, ok := spinUntilBy(c, p.flag, func(v uint64) bool { return v == 1 }, deadline); !ok {
		if !p.cancelQueued(c) {
			return false
		}
	}
	l.tr.emit(c, p.id, trace.KindWriteAcquired, trace.PhaseNone, trace.RouteDirect)
	l.stats.Observe(obs.GOLLWriteWait, p.id, c.Now()-w0)
	return true
}
