// Package central implements the naive centralized reader-writer lock:
// a single CAS-able lockword holding a reader count and a writer bit,
// with every acquire and release hitting that one word.
//
// This is the degenerate case the paper's introduction criticizes
// ("serializing updates to central data structures to monitor the number
// of reader threads"), and the word is what a C-SNZI with zero leaves
// reduces to — so that is what the lock holds: csnzi.WithLeaves(0), the
// same word internal/rind's central indicator puts under the OLL locks.
// The lock spins where the indicator reports failure; the word
// transitions are the C-SNZI's own. It is included as the floor baseline
// for the scalability experiments and as a correctness cross-check: it
// is simple enough to be obviously right.
package central

import (
	"ollock/internal/csnzi"
	"ollock/internal/lockcore"
)

// RWLock is a centralized reader-writer lock; use New. It is
// writer-preferring only by CAS luck; no fairness is guaranteed
// (matching the classic "counter + flag" lock).
type RWLock struct {
	// word is the lockword: a zero-leaf C-SNZI, whose every arrival is
	// a direct one on the root.
	word *csnzi.CSNZI
	// pol selects how contended acquisitions pause between lockword
	// retries (nil = the legacy backoff spin).
	pol *lockcore.Policy
}

// New returns an unlocked centralized RW lock.
func New() *RWLock { return &RWLock{word: csnzi.New(csnzi.WithLeaves(0))} }

// SetWaitPolicy routes the lock's retry pauses through a wait policy
// (see internal/park via lockcore). Call before sharing the lock; a nil
// policy (the default) keeps the legacy exponential-backoff spin.
func (l *RWLock) SetWaitPolicy(pol *lockcore.Policy) { l.pol = pol }

// RLock acquires the lock for reading, spinning while a writer holds it.
func (l *RWLock) RLock() { l.RLockDeadline(lockcore.Deadline{}) }

// TryRLock attempts a read acquisition without waiting for the writer;
// it fails exactly when a writer holds the lock.
func (l *RWLock) TryRLock() bool { return l.word.Arrive(0).Arrived() }

// RUnlock releases a read acquisition. It panics on a lock nobody
// read-holds; the check is here rather than in the C-SNZI's departure,
// which sits on the OLL locks' read path and trusts its ticket.
func (l *RWLock) RUnlock() {
	if l.Readers() == 0 {
		panic("central: RUnlock without matching RLock")
	}
	l.word.DepartRoot()
}

// Lock acquires the lock for writing, spinning until it is free.
func (l *RWLock) Lock() { l.LockDeadline(lockcore.Deadline{}) }

// TryLock attempts a write acquisition without waiting.
func (l *RWLock) TryLock() bool { return l.word.CloseIfEmpty() }

// Unlock releases a write acquisition; it panics (in csnzi.Open) on a
// lock nobody write-holds.
func (l *RWLock) Unlock() { l.word.Open() }

// Readers returns the current reader count (diagnostic).
func (l *RWLock) Readers() int {
	direct, _, _ := l.word.Snapshot()
	return int(direct)
}

// WriteLocked reports whether a writer holds the lock (diagnostic).
func (l *RWLock) WriteLocked() bool {
	_, open := l.word.Query()
	return !open
}
