// Package spin provides busy-waiting synchronization primitives: a
// test-and-test-and-set spin mutex with exponential backoff and a
// spin-based condition variable.
//
// The paper's user-space evaluation replaces the Solaris kernel's
// turnstile sleep/wakeup with "our own spin-based condition variables to
// eliminate the cost of context switching" (§5.1). This package is that
// substitution: Mutex protects the GOLL/Solaris-like wait queues, and
// Waiter is the object a blocked thread spins on until a releasing
// thread signals it.
package spin

import (
	"sync/atomic"

	"ollock/internal/atomicx"
	"ollock/internal/park"
	"ollock/internal/trace"
)

// Mutex is a test-and-test-and-set spin lock with exponential backoff.
// The zero value is an unlocked mutex.
//
// It deliberately has no fairness guarantee: it protects short critical
// sections (queue manipulation) where throughput matters more than
// order, matching the "queue mutex" of the Solaris lock.
type Mutex struct {
	state atomic.Uint32
	_     [atomicx.CacheLineSize - 4]byte
}

// Lock acquires the mutex, spinning until it is available.
func (m *Mutex) Lock() {
	if m.state.CompareAndSwap(0, 1) {
		return
	}
	var b atomicx.Backoff
	for {
		// Test before test-and-set: spin on a read so the line stays
		// shared until it is actually free.
		for m.state.Load() != 0 {
			b.Pause()
		}
		if m.state.CompareAndSwap(0, 1) {
			return
		}
	}
}

// TryLock attempts to acquire the mutex without waiting, reporting
// whether it succeeded.
func (m *Mutex) TryLock() bool {
	return m.state.Load() == 0 && m.state.CompareAndSwap(0, 1)
}

// LockWith acquires the mutex waiting per pol: a TryLock fast path,
// then the policy's escalation ladder between probes. A nil policy
// pauses exactly like Lock; an adaptive policy escalates to
// yields and bounded sleeps, so an oversubscribed queue mutex cannot
// starve the holder of CPU.
func (m *Mutex) LockWith(pol *park.Policy) {
	if m.TryLock() {
		return
	}
	ld := pol.Ladder()
	for {
		for m.state.Load() != 0 {
			ld.Pause()
		}
		if m.state.CompareAndSwap(0, 1) {
			return
		}
	}
}

// Unlock releases the mutex. It must be called by the holder.
func (m *Mutex) Unlock() {
	m.state.Store(0)
}

// Waiter is a one-shot spin-based condition: one thread calls Wait, one
// (other) thread calls Signal exactly once. It replaces the
// condition-variable + mutex pair of the paper's pseudocode for blocked
// threads (the pairing with the queue mutex guarantees Signal cannot be
// lost: a thread enqueues its Waiter under the queue mutex before
// waiting, and releasing threads dequeue and Signal under the same
// mutex).
//
// A Waiter must be Reset before reuse.
//
// The cell is backed by park.Waiter: the plain Wait/Signal methods keep
// the paper's pure-spin behavior, and WaitWith routes the same hand-off
// through a wait policy (spin or adaptive park) without changing the
// protocol; Signal wakes a waiter either way, paying a channel send
// only for one that parked.
type Waiter struct {
	w park.Waiter
}

// Wait blocks (by spinning, then yielding) until Signal has been called.
func (w *Waiter) Wait() {
	w.w.Wait(nil, 0, nil)
}

// WaitWith blocks until Signal(With), waiting per pol; id is the
// caller's proc id for counter striping and tr (nil ok) receives the
// park/unpark events.
func (w *Waiter) WaitWith(pol *park.Policy, id int, tr *trace.Local) {
	w.w.Wait(pol, id, tr)
}

// WaitUntil is WaitWith with a bound: true once signaled, false if dl
// expired first. A timed-out Waiter is left armed — the caller may
// WaitWith again to collect a signal that is still on its way (which
// the GOLL cancellation protocol does after losing the dequeue race).
func (w *Waiter) WaitUntil(pol *park.Policy, id int, tr *trace.Local, dl park.Deadline) bool {
	return w.w.WaitUntil(pol, id, tr, dl)
}

// Signal releases the thread blocked in Wait (or lets a future Wait
// return immediately).
func (w *Waiter) Signal() {
	w.w.Signal()
}

// Reset re-arms the Waiter for another Wait/Signal round. The caller
// must guarantee no thread is currently blocked on it.
func (w *Waiter) Reset() {
	w.w.Reset()
}
