// Timed acquisition for the centralized lock. The word protocol makes
// abandonment trivial — an acquisition that has not CASed the word yet
// holds nothing, so expiry is just leaving the retry loop — which is
// what makes this lock the reference semantics for the timed variants
// of the queue locks: same API, same return-value contract, none of
// the hand-off subtlety. The untimed RLock/Lock are these loops under
// the zero deadline, which never expires.
package central

import (
	"context"
	"time"

	"ollock/internal/lockcore"
)

// RLockDeadline acquires for reading, abandoning on expiry; it reports
// whether the lock was acquired. A zero deadline never expires.
func (l *RWLock) RLockDeadline(dl lockcore.Deadline) bool {
	ld := l.pol.Ladder()
	for !l.TryRLock() {
		if dl.Expired() {
			return false
		}
		ld.Pause()
	}
	return true
}

// LockDeadline acquires for writing, abandoning on expiry; it reports
// whether the lock was acquired.
func (l *RWLock) LockDeadline(dl lockcore.Deadline) bool {
	ld := l.pol.Ladder()
	for !l.TryLock() {
		if dl.Expired() {
			return false
		}
		ld.Pause()
	}
	return true
}

// RLockFor acquires for reading, giving up after d; an immediate
// attempt comes first (see lockcore.AcquireFor).
func (l *RWLock) RLockFor(d time.Duration) bool {
	return lockcore.AcquireFor(d, l.TryRLock, l.RLockDeadline)
}

// LockFor acquires for writing, giving up after d.
func (l *RWLock) LockFor(d time.Duration) bool {
	return lockcore.AcquireFor(d, l.TryLock, l.LockDeadline)
}

// RLockCtx acquires for reading, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (l *RWLock) RLockCtx(ctx context.Context) error {
	return lockcore.AcquireCtx(ctx, l.RLockDeadline)
}

// LockCtx acquires for writing, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (l *RWLock) LockCtx(ctx context.Context) error {
	return lockcore.AcquireCtx(ctx, l.LockDeadline)
}
