// Package goll implements the GOLL lock — the general OLL reader-writer
// lock of §3 (Figure 3) of "Scalable Reader-Writer Locks".
//
// GOLL has the shape of the Solaris kernel reader-writer lock, but the
// central lockword is replaced by a C-SNZI, so uncontended readers never
// touch shared central state beyond their arrival node:
//
//	lock free       = C-SNZI open with zero surplus
//	write-acquired  = C-SNZI closed with zero surplus
//	read-acquired   = surplus nonzero (closed iff a writer waits)
//
// Conflicted threads queue in a mutex-protected wait queue
// (internal/waitq, the turnstile substitute), and releasing threads hand
// ownership over directly — a woken thread already owns the lock. The
// queue mutex is touched only in the presence of conflicting requests:
// read-only workloads never acquire it, and neither does a writer that
// finds the lock free and releases it with nobody queued — that
// Lock/Unlock pair is two CASes on the indicator word.
//
// The second half is where this lock departs from Figure 3, whose
// release takes the mutex unconditionally to look at the queue. The
// Solaris lockword the paper started from carried a has-waiters bit so
// its release need not; the indicator word carries the same bit here
// (see internal/rind, "The waiters flag"):
//
//   - a thread about to queue sets the bit, under the mutex, in the same
//     atomic step that confirms the indicator is closed — a reader with
//     MarkWaiters, which fails on an open indicator (the closer left;
//     retry the arrival), a writer with CloseAndMark, which closes and
//     marks at once (or acquires an indicator that drained meanwhile);
//   - Unlock first tries OpenIfNoWaiters, one CAS from "closed, zero
//     surplus, no bit" to open; only when it fails does it take the
//     mutex and hand off as Figure 3 does.
//
// Both are CASes on one word, so one goes first: if the release does,
// the would-be waiter finds the indicator open and never queues; if
// the mark does, the release fails and finds the waiter (it blocks on
// the mutex the waiter holds until the entry is linked). Under the
// mutex, "queue non-empty" therefore implies "bit set". The converse
// does not hold — a cancelled waiter or a writer-to-writer hand-off
// leaves the bit behind — and costs the next Unlock one trip through
// the mutex, whose Open clears it.
//
// Beyond the paper's pseudocode this implementation also adds the
// write-upgrade operation of §3.2.1 (using the two-counter C-SNZI root)
// and the symmetric downgrade, both of which the Solaris lock offers.
package goll

import (
	"fmt"
	"io"
	"sync/atomic"

	"ollock/internal/csnzi"
	"ollock/internal/lockcore"
	"ollock/internal/rind"
	"ollock/internal/spin"
	"ollock/internal/waitq"
)

// RWLock is a GOLL reader-writer lock. Use New, then one Proc per
// goroutine.
type RWLock struct {
	cs rind.Indicator
	// root is cs resolved once, at construction: the C-SNZI behind the
	// default indicator, whose root word the read paths then arrive at
	// and depart from inline, or nil when cs is anything else and every
	// call goes through the interface (see rind.Root).
	root *csnzi.CSNZI
	meta spin.Mutex
	q    waitq.Queue
	ids  atomic.Int64
	// in is the instrumentation bundle (zero = all off): the stats
	// block is shared with the lock's C-SNZI so one Snapshot covers
	// both layers, and the wait policy routes every blocking site.
	in lockcore.Instr
}

// Proc is a per-goroutine handle carrying the Local record of the
// paper's pseudocode (the C-SNZI ticket of the current read
// acquisition). A Proc supports one outstanding acquisition at a time.
type Proc struct {
	l        *RWLock
	id       int
	priority int
	ticket   rind.Ticket
	// bare records, once, that l.root is resolved and pi is the zero
	// value: RLock/RUnlock then have no probe to feed, and try the inline
	// arrival/departure before anything else.
	bare bool
	// pi is the proc's instrumentation view (buffered counters +
	// flight-recorder ring); every emission below is one predictable
	// branch when the corresponding layer is off.
	pi lockcore.ProcInstr
}

// SetPriority sets the scheduling priority used when this Proc has to
// wait (higher wins; default 0). The GOLL hand-off policy lets a
// strictly-higher-priority waiting writer overtake waiting readers —
// the "robust priority" flexibility the Solaris-style queue provides
// (§3). Priority has no effect on the conflict-free fast paths.
func (p *Proc) SetPriority(priority int) { p.priority = priority }

// Option configures the lock.
type Option func(*RWLock)

// WithIndicator substitutes an arbitrary read indicator (see
// internal/rind) for the default C-SNZI — the centralized-vs-tree
// ablation as an architectural knob. A custom-configured *csnzi.CSNZI
// (tree width, fanout, arrival policy) is an indicator as it stands.
func WithIndicator(ind rind.Indicator) Option {
	return func(l *RWLock) { l.cs = ind }
}

// WithInstr attaches the instrumentation bundle (see internal/lockcore):
// the stats block (goll.* hand-off and upgrade counters, shared with
// the C-SNZI's csnzi.* counters), the flight-recorder handle (arrive
// decisions, queue waits, indicator transitions, hand-offs), and the
// wait policy every blocking site routes through. The zero bundle (the
// default) spins exactly as the paper does, uninstrumented.
func WithInstr(in lockcore.Instr) Option { return func(l *RWLock) { l.in = in } }

// New returns an unlocked GOLL lock.
func New(opts ...Option) *RWLock {
	l := &RWLock{}
	for _, o := range opts {
		o(l)
	}
	if l.cs == nil {
		l.cs = rind.NewCSNZI()
	}
	l.cs = rind.Instrument(l.cs, l.in.Stats)
	l.root = rind.Root(l.cs, l.in.Stats)
	l.in.AddDumper(l)
	return l
}

// NewProc registers a goroutine with the lock. Unlike the queue-based
// OLL locks, GOLL has no fixed capacity: any number of Procs may be
// created.
func (l *RWLock) NewProc() *Proc {
	id := int(l.ids.Add(1)) - 1
	pi := l.in.NewProc(id)
	return &Proc{l: l, id: id, pi: pi, bare: l.root != nil && pi == lockcore.ProcInstr{}}
}

// RLock acquires the lock for reading. On the conflict-free path this is
// a single C-SNZI arrival; otherwise the reader enqueues itself and is
// handed the lock (with a pre-made direct arrival) by a releasing
// writer. An uninstrumented proc tries that arrival here, inline, and
// pays for rlock's frame and probes only when it fails.
func (p *Proc) RLock() {
	if p.bare {
		if p.ticket = p.l.root.ArriveRoot(); p.ticket.Arrived() {
			return
		}
	}
	p.rlock(lockcore.Deadline{})
}

// tryArrive is the conflict-free read acquisition — one arrival, inline
// at the resolved root word when it can be, and the probes a success
// feeds — shared by rlock's loop and TryRLock. (Out of line on purpose:
// the profiler's stack walk decodes the pc tables of every function on
// the stack, and spelled out in rlock this made a sampled acquisition
// 12 % dearer for one call saved.)
func (p *Proc) tryArrive(t0, pt int64, slow bool) bool {
	l := p.l
	if p.ticket = l.root.ArriveRoot(); p.ticket.Arrived() {
		p.pi.Inc(lockcore.CSNZIArriveRoot)
	} else if p.ticket = l.cs.ArriveLocal(p.id, p.pi.LC); !p.ticket.Arrived() {
		return false
	}
	p.pi.Acquired(lockcore.KindReadAcquired, t0, rind.TraceRoute(p.ticket))
	p.pi.ProfAcquired(pt, slow)
	return true
}

// rlock is the deadline-threaded read-acquire core; a zero deadline
// reproduces the untimed paths (each expiry check is Deadline.Expired's
// inlined no-bound compare, and none sits on the conflict-free fast
// path).
//
// Cancellation protocol: a queued GOLL reader holds no indicator
// arrival — its DirectTicket is only a token telling RUnlock how to
// depart an arrival the *releaser* makes on its behalf
// (OpenWithArrivals). Abandonment is therefore pure queue surgery:
// take the metalock, unlink the entry if it is still queued, done —
// there is nothing to roll back in the C-SNZI. Losing the unlink race
// means a releaser already dequeued us into a hand-off batch and a
// signal (plus our pre-made arrival) is in flight: the canceling
// reader waits the short remainder out, then gives the acquisition
// straight back through the normal release path, so the hand-off
// chain never stalls on an abandoned waiter.
func (p *Proc) rlock(dl lockcore.Deadline) bool {
	l := p.l
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	slow := false
	for {
		if p.tryArrive(t0, pt, slow) {
			return true
		}
		if !slow {
			// Open the arrive phase retroactively: the fast path never
			// pays for this event.
			slow = true
			p.pi.BeginAt(t0, lockcore.PhaseArrive)
		}
		p.pi.Emit(lockcore.KindArriveFail, 0, 0)
		if dl.Expired() {
			p.abandon(lockcore.PhaseArrive, lockcore.GOLLTimeout, lockcore.GOLLCancel, dl)
			return false
		}
		l.meta.LockWith(l.in.Wait)
		if !l.cs.MarkWaiters() {
			// The closer released before we could mark the indicator;
			// retry the fast path.
			l.meta.Unlock()
			continue
		}
		// Closed and marked in one step: whoever owns the indicator
		// cannot release past us without taking the mutex we hold.
		e := l.q.Enqueue(waitq.Reader, p.priority)
		l.meta.Unlock()
		p.pi.Emit(lockcore.KindQueueEnqueue, 0, 0)
		// The thread releasing the lock pre-arrives at the root for us
		// (OpenWithArrivals), so we will depart directly.
		p.ticket = l.cs.DirectTicket()
		p.pi.Begin(lockcore.PhaseQueueWait)
		if e.WaitUntil(l.in.Wait, p.id, p.pi.TR, dl) {
			p.pi.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteDirect)
			p.pi.ProfAcquired(pt, true)
			return true
		}
		// Expired while queued: the metalock decides who owns the entry.
		l.meta.LockWith(l.in.Wait)
		canceled := l.q.Cancel(e)
		l.meta.Unlock()
		if canceled {
			p.abandon(lockcore.PhaseQueueWait, lockcore.GOLLTimeout, lockcore.GOLLCancel, dl)
			return false
		}
		// A releaser dequeued us first: the signal and our pre-made
		// direct arrival are in flight. Collect the acquisition (the
		// timed-out waiter cell re-arms, so re-waiting is safe), then
		// give it back.
		e.WaitWith(l.in.Wait, p.id, p.pi.TR)
		p.pi.Acquired(lockcore.KindReadAcquired, t0, lockcore.RouteDirect)
		p.pi.ProfAcquired(pt, true)
		p.RUnlock()
		p.abandon(0, lockcore.GOLLTimeout, lockcore.GOLLCancel, dl)
		return false
	}
}

// RUnlock releases a read acquisition. A last reader departing a closed
// C-SNZI hands the lock to the waiting writer.
func (p *Proc) RUnlock() {
	l := p.l
	var live bool
	if r := l.root; r != nil && p.ticket == rind.Direct {
		live = r.DepartRoot()
	} else {
		live = l.cs.Depart(p.ticket)
	}
	if !live {
		p.pi.Emit(lockcore.KindIndDrain, 0, 0)
		p.handOff(waitq.Reader, lockcore.KindReadReleased)
	} else if !p.bare {
		p.pi.Released(lockcore.KindReadReleased)
		p.pi.ProfReleased()
	}
}

// handOff passes on an indicator this proc owns closed with zero
// surplus — as the last reader (from Reader) out of it, behind a
// closer, or as the write holder whose one-CAS release found the
// waiters bit — to the next batch of waiters, under the queue mutex as
// in Figure 3. The queue can be empty — every closer abandoned its
// wait; the bit outlives a cancelled waiter and a writer-to-writer
// hand-off — and then the indicator is reopened here, which also
// clears the bit. A reader handing off normally finds a writer
// (readers only queue behind a closer), but the queue may hand to
// readers if a policy lets them overtake (§3.2, footnote 1).
func (p *Proc) handOff(from waitq.Kind, released lockcore.TraceKind) {
	l := p.l
	l.meta.LockWith(l.in.Wait)
	batch := l.q.DequeueHandoff(from)
	if batch == nil {
		l.cs.Open()
		l.meta.Unlock()
		p.pi.Emit(lockcore.KindIndOpen, 0, 0)
		p.pi.Released(released)
		p.pi.ProfReleased()
		return
	}
	if batch.Kind == waitq.Reader {
		// Move straight to read-acquired: surplus = group size, closed
		// (and still marked) iff writers still wait. For a writer batch
		// the indicator is already write-acquired; nothing to change.
		l.cs.OpenWithArrivals(batch.Count(), l.q.NumWriters() != 0)
		p.pi.Emit(lockcore.KindIndOpen, 0, uint64(batch.Count()))
	}
	l.meta.Unlock()
	l.in.Inc(lockcore.GOLLHandoff, p.id)
	p.pi.Emit(lockcore.KindHandoff, 0, lockcore.PackHandoff(batch.Count(), batch.Kind == waitq.Writer))
	batch.Signal()
	p.pi.Released(released)
	p.pi.ProfReleased()
}

// Lock acquires the lock for writing: one CAS (CloseIfEmpty) when the
// lock is free, otherwise close-mark-and-enqueue under the queue mutex.
func (p *Proc) Lock() { p.lock(lockcore.Deadline{}) }

// lock is the deadline-threaded write-acquire core; a zero deadline
// reproduces the untimed paths.
//
// A canceled queued writer unlinks itself under the metalock and
// leaves the indicator closed — deliberately. Reopening would need to
// know whether other writers still wait and whether readers hold the
// surplus, all racing fresh arrivals; instead the protocol leans on
// the invariant that a closed indicator always has a live owner (the
// write holder, or the read group whose last departer hands off), and
// every owner's release path now tolerates an empty queue (the nil-
// batch branches in RUnlock/Unlock reopen it). The canceled writer's
// only trace is one already-failed reader retry round, not a stalled
// lock.
func (p *Proc) lock(dl lockcore.Deadline) bool {
	l := p.l
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	w0 := l.in.SpanStart()
	if l.cs.CloseIfEmpty() {
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.pi.ProfAcquired(pt, false)
		l.in.SpanObserve(lockcore.GOLLWriteWait, p.id, w0)
		return true
	}
	p.pi.BeginAt(t0, lockcore.PhaseArrive)
	p.pi.Emit(lockcore.KindArriveFail, 0, 0)
	if dl.Expired() {
		p.abandon(lockcore.PhaseArrive, lockcore.GOLLTimeout, lockcore.GOLLCancel, dl)
		return false
	}
	l.meta.LockWith(l.in.Wait)
	if l.cs.CloseAndMark() {
		// The lock was released between our fast path and here;
		// CloseAndMark acquired it.
		l.meta.Unlock()
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
		p.pi.ProfAcquired(pt, true)
		l.in.SpanObserve(lockcore.GOLLWriteWait, p.id, w0)
		return true
	}
	// The indicator is now closed (by us, or an earlier writer) and
	// marked, in one step: its owner — the write holder, or the last
	// departer of the read group — cannot release without finding us.
	p.pi.Emit(lockcore.KindIndClose, 0, 0)
	e := l.q.Enqueue(waitq.Writer, p.priority)
	l.meta.Unlock()
	p.pi.Emit(lockcore.KindQueueEnqueue, 0, 1)
	p.pi.Begin(lockcore.PhaseQueueWait)
	if !e.WaitUntil(l.in.Wait, p.id, p.pi.TR, dl) {
		l.meta.LockWith(l.in.Wait)
		canceled := l.q.Cancel(e)
		l.meta.Unlock()
		if canceled {
			p.abandon(lockcore.PhaseQueueWait, lockcore.GOLLTimeout, lockcore.GOLLCancel, dl)
			return false
		}
		// A releaser already handed us the lock; collect it, release it,
		// report failure.
		e.WaitWith(l.in.Wait, p.id, p.pi.TR)
		p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
		p.pi.ProfAcquired(pt, true)
		p.Unlock()
		p.abandon(0, lockcore.GOLLTimeout, lockcore.GOLLCancel, dl)
		return false
	}
	p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteDirect)
	p.pi.ProfAcquired(pt, true)
	l.in.SpanObserve(lockcore.GOLLWriteWait, p.id, w0)
	return true
}

// Unlock releases a write acquisition: one CAS when nobody has queued
// behind it, otherwise the hand-off of Figure 3.
func (p *Proc) Unlock() {
	if p.l.cs.OpenIfNoWaiters() {
		p.pi.Emit(lockcore.KindIndOpen, 0, 0)
		p.pi.Released(lockcore.KindWriteReleased)
		p.pi.ProfReleased()
		return
	}
	p.handOff(waitq.Writer, lockcore.KindWriteReleased)
}

// TryRLock attempts a read acquisition without waiting, reporting
// whether it succeeded. It fails exactly when a writer holds the lock
// or waits for it (the C-SNZI is closed) — the same condition that
// would have queued the caller.
func (p *Proc) TryRLock() bool {
	return p.tryArrive(p.pi.Now(), p.pi.ProfTick(), false)
}

// TryLock attempts a write acquisition without waiting, reporting
// whether it succeeded. It is the writer fast path alone: one CAS on a
// free lock.
func (p *Proc) TryLock() bool {
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	if !p.l.cs.CloseIfEmpty() {
		return false
	}
	p.pi.Acquired(lockcore.KindWriteAcquired, t0, lockcore.RouteRoot)
	p.pi.ProfAcquired(pt, false)
	return true
}

// TryUpgrade attempts to convert this Proc's read acquisition into a
// write acquisition (§3.2.1). It succeeds iff the caller is the only
// thread holding the lock; on failure the caller still holds the lock
// for reading. After a successful upgrade the caller must release with
// Unlock.
//
// The upgrade trades the caller's (possibly tree-based) arrival for a
// direct arrival at the root, then atomically swaps "sole direct
// arrival" for "closed, zero surplus" — even if the C-SNZI is already
// closed by a queued writer, in which case the upgrader simply takes
// ownership ahead of it (it will be handed the lock on our Unlock).
func (p *Proc) TryUpgrade() bool {
	l := p.l
	l.in.Inc(lockcore.GOLLUpgradeAttempt, p.id)
	p.ticket = l.cs.TradeToRoot(p.ticket)
	if l.cs.TryUpgrade() {
		return true
	}
	l.in.Inc(lockcore.GOLLUpgradeFail, p.id)
	return false
}

// Downgrade converts this Proc's write acquisition into a read
// acquisition without ever releasing the lock, admitting any waiting
// readers alongside (the Solaris rw_downgrade behaviour). The caller
// must subsequently release with RUnlock.
func (p *Proc) Downgrade() {
	l := p.l
	l.in.Inc(lockcore.GOLLDowngrade, p.id)
	l.meta.LockWith(l.in.Wait)
	readers := l.q.TakeReaders()
	// Surplus = us + admitted waiting readers; stays closed (and
	// marked) if writers still wait so late readers keep queuing
	// behind them and the last departer hands off.
	l.cs.OpenWithArrivals(1+readers.Count(), l.q.NumWriters() != 0)
	l.meta.Unlock()
	p.ticket = l.cs.DirectTicket()
	readers.Signal()
}

// DumpLockState implements trace.StateDumper: a human-readable
// description of the live indicator word and wait-queue chain, taken
// under the queue mutex (safe — the dumper holds no acquisition).
func (l *RWLock) DumpLockState(w io.Writer) {
	l.meta.LockWith(l.in.Wait)
	defer l.meta.Unlock()
	fmt.Fprintf(w, "goll: indicator %s\n", rind.Describe(l.cs))
	fmt.Fprintf(w, "goll: wait queue: %d waiters (%d writers, %d readers)\n",
		l.q.Len(), l.q.NumWriters(), l.q.NumReaders())
	for i, e := range l.q.Entries() {
		fmt.Fprintf(w, "goll:   queue node %d: %s priority=%d\n", i, e.Kind, e.Priority)
	}
}
