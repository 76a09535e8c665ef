// Timed/cancellable acquisition surface for the BRAVO wrapper. Reads
// compose trivially (the fast path never blocks; the slow path
// delegates the deadline to the wrapped lock). Writes are the
// interesting case: the wrapped lock's timed acquisition covers the
// queue wait, but the revocation drain that follows can block on
// fast-path readers' critical sections, so it watches the same
// deadline — and on expiry the bias is restored before the underlying
// lock is released (see revokeUntil for why that ordering is load-
// bearing). See ALGORITHMS.md §17.
package bravo

import (
	"context"
	"time"

	"ollock/internal/lockcore"
)

// DeadlineBase is the timed/try surface the wrapped lock's Procs must
// expose for the wrapper's timed/try variants: the lock kinds the
// facade marks Cancellable all satisfy it.
type DeadlineBase interface {
	BaseProc
	RLockDeadline(lockcore.Deadline) bool
	LockDeadline(lockcore.Deadline) bool
	TryRLock() bool
	TryLock() bool
}

func (p *Proc) deadlineBase() DeadlineBase {
	db, ok := p.base.(DeadlineBase)
	if !ok {
		panic("bravo: wrapped lock does not support timed acquisition")
	}
	return db
}

// RLockDeadline acquires for reading, abandoning on expiry; it reports
// whether the lock was acquired. A zero deadline never expires.
func (p *Proc) RLockDeadline(dl lockcore.Deadline) bool {
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	if p.fastRead(t0, pt) {
		return true
	}
	if !p.deadlineBase().RLockDeadline(dl) {
		return false
	}
	p.pi.Inc(lockcore.BravoSlowRead)
	if p.l.bias.Load() == 0 {
		p.slowReadArm()
	}
	return true
}

// LockDeadline acquires for writing, abandoning on expiry; it reports
// whether the lock was acquired. The deadline bounds both the wrapped
// lock's queue wait and the revocation drain: if the drain expires,
// the bias is restored, the wrapped lock released, and false returned.
func (p *Proc) LockDeadline(dl lockcore.Deadline) bool {
	pt := p.pi.ProfTick()
	base := p.deadlineBase()
	if !base.LockDeadline(dl) {
		return false
	}
	if p.l.bias.Load() != 0 {
		p.pi.Begin(lockcore.PhaseRevoke)
		drained, ok := p.l.revokeUntil(p.id, p.pi.TR, dl)
		p.pi.End(lockcore.PhaseRevoke)
		if !ok {
			// revokeUntil already restored the bias; only now is it
			// safe to give the underlying lock back.
			p.pi.Emit(lockcore.KindCancel, 0, lockcore.CancelArg(dl))
			base.Unlock()
			return false
		}
		p.pi.Emit(lockcore.KindBravoRevoke, 0, uint64(drained))
		p.pi.ProfContended(pt)
	}
	return true
}

// TryRLock acquires for reading without waiting; it reports success.
func (p *Proc) TryRLock() bool {
	t0 := p.pi.Now()
	pt := p.pi.ProfTick()
	if p.fastRead(t0, pt) {
		return true
	}
	if !p.deadlineBase().TryRLock() {
		return false
	}
	p.pi.Inc(lockcore.BravoSlowRead)
	if p.l.bias.Load() == 0 {
		p.slowReadArm()
	}
	return true
}

// TryLock acquires for writing without waiting; it reports success.
// With the bias armed, the revocation scan runs with an
// already-expired bound: it aborts (restoring the bias and releasing
// the underlying lock) the moment it meets a published fast-path
// reader, which is exactly the "lock is read-held" case a TryLock must
// report as failure.
func (p *Proc) TryLock() bool {
	base := p.deadlineBase()
	if !base.TryLock() {
		return false
	}
	if p.l.bias.Load() != 0 {
		drained, ok := p.l.revokeUntil(p.id, p.pi.TR, lockcore.After(0))
		if !ok {
			base.Unlock()
			return false
		}
		p.pi.Emit(lockcore.KindBravoRevoke, 0, uint64(drained))
	}
	return true
}

// RLockFor acquires for reading, giving up after d. The try-first shape
// keeps the uncontended timed acquisition at untimed speed: anchoring
// the deadline costs a clock read, which a biased fast-path read — the
// whole point of the wrapper — should never pay.
func (p *Proc) RLockFor(d time.Duration) bool {
	return lockcore.AcquireFor(d, p.TryRLock, p.RLockDeadline)
}

// LockFor acquires for writing, giving up after d. No try-first here: a
// TryLock with the bias armed runs a full expired-bound revocation scan
// whose abort would restore the bias only for LockDeadline to tear it
// down again, so the writer just anchors the deadline up front.
func (p *Proc) LockFor(d time.Duration) bool { return p.LockDeadline(lockcore.After(d)) }

// RLockCtx acquires for reading, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (p *Proc) RLockCtx(ctx context.Context) error {
	return lockcore.AcquireCtx(ctx, p.RLockDeadline)
}

// LockCtx acquires for writing, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (p *Proc) LockCtx(ctx context.Context) error {
	return lockcore.AcquireCtx(ctx, p.LockDeadline)
}
