// Flag is the policy-aware grant flag of the queue locks: the
// MCS-style "spin" boolean a FOLL/ROLL node owner raises at enqueue and
// the predecessor clears at grant time, extended so waiters can park.
//
// The parking protocol is the classic push-then-recheck Dekker shape,
// relying on Go atomics being sequentially consistent:
//
//	waiter:  push record; re-read flag        granter: clear flag; swap list
//
// If the waiter's re-read still sees the flag raised, the granter's
// clear — and therefore its list swap — comes later in the total order,
// so the swap captures the record and the granter owes it a send. If
// the re-read sees the flag cleared, the waiter races the granter for
// the record with a claim/cancel CAS: exactly one side wins, so the
// waiter either returns immediately (cancel won) or consumes the send
// the granter's claim guarantees. Either way no wake is ever missed.
//
// Records the waiter canceled can linger on the list into the node's
// next lifetime; the sweep skips them (their claim CAS fails) and the
// GC reclaims them. Allocation happens only on the park path — raising,
// clearing, and spinning on a Flag allocate nothing.
package park

import (
	"sync/atomic"

	"ollock/internal/atomicx"
	"ollock/internal/trace"
)

// parkRec states: the claim/cancel race between granter and waiter.
const (
	recWaiting  uint32 = iota
	recClaimed         // granter won: a send on sem is in flight
	recCanceled        // waiter won: granter must skip this record
)

// parkRec is one parked waiter on a Flag's Treiber list. Heap-allocated
// per park; parking is the long-wait slow path, so the allocation is
// paid exactly when a goroutine is about to deschedule anyway.
type parkRec struct {
	next  *parkRec
	state atomic.Uint32
	sem   chan struct{}
}

// Flag is the blocked word with the parked-waiter list alongside on
// the same private cache line — the line is private to this node's
// waiters by construction, which is the MCS property the queue locks
// depend on.
type Flag struct {
	_      atomicx.Pad
	word   atomic.Uint32
	_      [4]byte
	parked atomic.Pointer[parkRec]
	_      [atomicx.CacheLineSize - 16]byte
}

// Set raises or lowers the flag. Only the node's owner calls it, while
// the node is private (before publication or after reclaim), exactly
// like the PaddedBool store it replaces — except that it stores only
// when the word changes: an atomic store is a locked instruction, and
// a recycled node's flag usually already reads as asked.
func (f *Flag) Set(blocked bool) {
	var nw uint32
	if blocked {
		nw = 1
	}
	if f.word.Load() != nw {
		f.word.Store(nw)
	}
}

// Blocked reports whether the flag is raised (the waiter must keep
// waiting). This is the grant word the spin policy spins on.
func (f *Flag) Blocked() bool { return f.word.Load() != 0 }

// Wait blocks until the flag is cleared, waiting per pol.
func (f *Flag) Wait(pol *Policy, id int, tr *trace.Local) { f.WaitUntil(pol, id, tr, Deadline{}) }

// WaitUntil is Wait with a bound: true once the flag is cleared, false
// if dl expired first. A false return leaves any parked record
// canceled (the granter's sweep skips it), so a subsequent Wait on the
// same flag starts a fresh round.
func (f *Flag) WaitUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	return pol.wait(id, tr, dl, func() bool { return !f.Blocked() }, f)
}

// arm pushes a fresh record and re-reads the flag. Seeing it cleared
// between push and re-check, the granter's sweep may or may not have
// caught the record; the claim/cancel CAS decides — if the granter
// claimed first, its send is consumed here.
func (f *Flag) arm() (chan struct{}, *parkRec) {
	r := &parkRec{sem: make(chan struct{}, 1)}
	for {
		old := f.parked.Load()
		r.next = old
		if f.parked.CompareAndSwap(old, r) {
			break
		}
	}
	if f.Blocked() {
		return r.sem, r
	}
	if !f.disarm(r) {
		<-r.sem
	}
	return nil, nil
}

// disarm cancels the record so the sweep skips it; losing the CAS means
// the granter claimed it and a send is in flight.
func (f *Flag) disarm(r *parkRec) bool { return r.state.CompareAndSwap(recWaiting, recCanceled) }

// Clear grants the waiters: lowers the flag, then sweeps the parked
// list, sending to every record it claims. Exactly one goroutine clears
// a raised flag (the predecessor handing over), as it was for the
// PaddedBool.
func (f *Flag) Clear() {
	f.word.Store(0)
	if f.parked.Load() == nil {
		return // wake hint: nobody parked, grant stays one store
	}
	for r := f.parked.Swap(nil); r != nil; r = r.next {
		if r.state.CompareAndSwap(recWaiting, recClaimed) {
			r.sem <- struct{}{}
		}
	}
}
