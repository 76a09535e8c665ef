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
	"runtime"
	"sync/atomic"

	"ollock/internal/atomicx"
	"ollock/internal/obs"
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

// Flag packs the blocked bit (bit 0) and the node's waiting-array slot
// key (bits 1..31) into one word, with the parked-waiter list alongside
// on the same private cache line — the line is private to this node's
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
// a recycled node's flag usually already reads as asked. The slot key
// is minted on first use and survives re-Sets, so a recycled node
// keeps its array slot.
func (f *Flag) Set(blocked bool) {
	w := f.word.Load()
	nw := w &^ 1
	if blocked {
		nw |= 1
	}
	if nw>>1 == 0 {
		nw |= newKey() << 1
	}
	if nw != w {
		f.word.Store(nw)
	}
}

// Blocked reports whether the flag is raised (the waiter must keep
// waiting). This is the grant word the spin policy spins on.
func (f *Flag) Blocked() bool { return f.word.Load()&1 != 0 }

// Wait blocks until the flag is cleared, waiting per pol.
func (f *Flag) Wait(pol *Policy, id int, tr *trace.Local) {
	if !f.Blocked() {
		return
	}
	switch pol.Mode() {
	case ModeAdaptive:
		f.waitAdaptive(pol, id, tr)
	case ModeArray:
		f.waitArray(pol, id, tr)
	default:
		atomicx.SpinUntil(func() bool { return !f.Blocked() })
	}
}

func (f *Flag) waitAdaptive(pol *Policy, id int, tr *trace.Local) {
	if hotSpin(func() bool { return !f.Blocked() }) {
		return
	}
	pol.stats().Inc(obs.ParkYield, id)
	for i, n := 0, yieldsFor(); i < n; i++ {
		if !f.Blocked() {
			return
		}
		runtime.Gosched()
	}
	for f.Blocked() {
		r := &parkRec{sem: make(chan struct{}, 1)}
		for {
			old := f.parked.Load()
			r.next = old
			if f.parked.CompareAndSwap(old, r) {
				break
			}
		}
		if !f.Blocked() {
			// Cleared between push and re-check: the granter's sweep may
			// or may not have caught our record. The claim/cancel CAS
			// decides — if the granter claimed first, consume its send.
			if r.state.CompareAndSwap(recWaiting, recCanceled) {
				return
			}
			<-r.sem
			return
		}
		pol.stats().Inc(obs.ParkPark, id)
		tr.Emit(trace.KindPark, trace.PhaseNone, parkArgChan)
		<-r.sem
		pol.stats().Inc(obs.ParkUnpark, id)
		tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgChan)
	}
}

func (f *Flag) waitArray(pol *Policy, id int, tr *trace.Local) {
	if hotSpin(func() bool { return !f.Blocked() }) {
		return
	}
	k := f.word.Load() >> 1
	arr := pol.Array()
	if k == 0 || arr == nil {
		atomicx.SpinUntil(func() bool { return !f.Blocked() })
		return
	}
	pol.stats().Inc(obs.ParkArrayWait, id)
	tr.Emit(trace.KindPark, trace.PhaseNone, parkArgArray)
	for {
		s0 := arr.load(k)
		// Probe the real flag after reading the slot (promotion to
		// direct spinning): if the grant already landed we exit without
		// touching the array again; otherwise the granter's bump is
		// still ahead of us and will change the slot.
		if !f.Blocked() {
			break
		}
		arr.waitChange(k, s0, func() bool { return !f.Blocked() })
	}
	tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgArray)
}

// Clear grants the waiters: lowers the flag, then wakes per pol —
// sweep and signal the parked list (adaptive) or bump the node's array
// slot (array). Exactly one goroutine clears a raised flag (the
// predecessor handing over), which is what makes the plain
// load-modify-store of the word safe, as it was for the PaddedBool.
func (f *Flag) Clear(pol *Policy) {
	w := f.word.Load()
	f.word.Store(w &^ 1)
	switch pol.Mode() {
	case ModeAdaptive:
		if f.parked.Load() == nil {
			return // wake hint: nobody parked, grant stays one store
		}
		for r := f.parked.Swap(nil); r != nil; r = r.next {
			if r.state.CompareAndSwap(recWaiting, recClaimed) {
				r.sem <- struct{}{}
			}
		}
	case ModeArray:
		if arr := pol.Array(); arr != nil {
			arr.bump(w >> 1)
		}
	}
}
