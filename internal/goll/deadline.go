// Timed/cancellable acquisition surface for the GOLL lock. The cores
// live in goll.go (rlock/lock, deadline-threaded); this file adds the
// duration and context sugar plus the shared abandonment bookkeeping.
// See ALGORITHMS.md §17 for the abandonment protocol.
package goll

import (
	"context"
	"time"

	"ollock/internal/lockcore"
)

// abandon finalizes a failed timed acquisition: the kind's timeout or
// cancel counter (split by expiry cause), one KindCancel trace event,
// and — when ph is nonzero — the open wait-phase span's close.
func (p *Proc) abandon(ph lockcore.Phase, timeout, cancel lockcore.Event, dl lockcore.Deadline) {
	p.l.in.Inc(lockcore.CancelEvent(timeout, cancel, dl), p.id)
	p.pi.Emit(lockcore.KindCancel, 0, lockcore.CancelArg(dl))
	if ph != 0 {
		p.pi.End(ph)
	}
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
