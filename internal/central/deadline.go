// Timed acquisition for the centralized lock. The word protocol makes
// abandonment trivial — an acquisition that has not CASed the word yet
// holds nothing, so expiry is just leaving the retry loop — which is
// what makes this lock the reference semantics for the timed variants
// of the queue locks: same API, same return-value contract, none of
// the hand-off subtlety.
package central

import (
	"context"
	"time"

	"ollock/internal/lockcore"
)

// RLockDeadline acquires for reading, abandoning on expiry; it reports
// whether the lock was acquired. A zero deadline never expires.
func (l *RWLock) RLockDeadline(dl lockcore.Deadline) bool {
	if l.word.Arrive() {
		return true
	}
	ld := l.pol.Ladder()
	for {
		if dl.Expired() {
			return false
		}
		ld.Pause()
		if l.word.Arrive() {
			return true
		}
	}
}

// LockDeadline acquires for writing, abandoning on expiry; it reports
// whether the lock was acquired.
func (l *RWLock) LockDeadline(dl lockcore.Deadline) bool {
	if l.word.CloseIfEmpty() {
		return true
	}
	ld := l.pol.Ladder()
	for {
		if dl.Expired() {
			return false
		}
		ld.Pause()
		if l.word.CloseIfEmpty() {
			return true
		}
	}
}

// RLockFor acquires for reading, giving up after d. The try-first shape
// keeps the uncontended timed acquisition at untimed speed: anchoring
// the deadline costs a clock read, which only a failed immediate
// attempt — the one a non-positive d is owed anyway — has to pay.
func (l *RWLock) RLockFor(d time.Duration) bool {
	if l.word.Arrive() {
		return true
	}
	return l.RLockDeadline(lockcore.After(d))
}

// LockFor acquires for writing, giving up after d.
func (l *RWLock) LockFor(d time.Duration) bool {
	if l.word.CloseIfEmpty() {
		return true
	}
	return l.LockDeadline(lockcore.After(d))
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
