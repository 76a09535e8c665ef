// Deadline-aware waiting: the timed counterparts of Wait, Flag.Wait
// and WaitCond. A Deadline bundles an absolute expiry time and/or a
// context, and every timed primitive returns true for "granted" and
// false for "expired" — never both, never neither.
//
// The hard part is the park path: a waiter that times out while a
// grant's channel send is in flight must not strand the token (the
// next waiter on the same cell would consume a stale grant) and must
// not miss the grant (the classic lost wakeup). Both primitives
// resolve the race with the same token-validation shape the untimed
// protocol already uses:
//
//   - Waiter: the timed-out waiter CASes its state wParked→wIdle.
//     Signal swaps the state first and only sends when it observed
//     wParked, so exactly one side wins the word: either the CAS
//     succeeds (Signal will see wIdle and not send — clean timeout) or
//     it fails (a send is committed — the waiter consumes it and
//     reports granted).
//
//   - Flag: the timed-out waiter CASes its parked record
//     recWaiting→recCanceled, the same claim/cancel race the
//     push-then-recheck path runs. The granter's sweep only sends on
//     records it claimed, so again exactly one side owns the record.
//
// A timeout therefore leaves the cell re-armed (state wIdle, record
// canceled): the caller can Wait again on the same cell, which the
// lock-layer cancellation protocols rely on when they lose the
// abandonment race and must wait out the in-flight grant.
//
// Deadline checks on the spin/yield phases run every few probes — a
// deadline is a bound, not a real-time guarantee, and keeping
// time.Now off the per-probe path keeps timed spinning at untimed
// speed. The timer allocation happens only on the park path, where the
// goroutine is about to deschedule anyway.
package park

import (
	"context"
	"math"
	"runtime"
	"time"

	"ollock/internal/atomicx"
	"ollock/internal/obs"
	"ollock/internal/trace"
)

// Deadline bounds one wait: an absolute expiry time, a context, both,
// or neither. The zero value means "no bound" and selects the untimed
// code paths — passing it costs one compare. Deadlines are values;
// construct with DeadlineAfter / DeadlineAt / DeadlineCtx.
//
// The representation is three words — the expiry as nanoseconds on the
// package's monotonic clock, plus the context — so a Deadline travels
// through the acquisition cores in registers, and None is a single
// compare of when: every bounded deadline has a nonzero when (a
// context without a deadline of its own carries noClock).
type Deadline struct {
	when int64
	ctx  context.Context
}

// noClock is the when of a deadline only its context can expire.
const noClock = math.MaxInt64

// clockBase anchors the deadline clock; its monotonic reading makes
// clockNow one runtime nanotime call.
var clockBase = time.Now()

func clockNow() int64 { return int64(time.Since(clockBase)) }

// clockAt maps t onto the deadline clock. Zero is reserved for "no
// bound", so an expiry landing exactly on the base moves one
// nanosecond into the (equally expired) past; an expiry too far out
// to represent saturates to noClock.
func clockAt(t time.Time) int64 {
	if w := int64(t.Sub(clockBase)); w != 0 {
		return w
	}
	return -1
}

// DeadlineAfter returns a deadline d from now.
func DeadlineAfter(d time.Duration) Deadline { return Deadline{when: clockAt(time.Now().Add(d))} }

// DeadlineAt returns a deadline at the absolute time t; the zero time
// means no bound.
func DeadlineAt(t time.Time) Deadline {
	if t.IsZero() {
		return Deadline{}
	}
	return Deadline{when: clockAt(t)}
}

// DeadlineCtx returns a deadline driven by ctx: cancellation expires
// it immediately, and ctx's own deadline (if any) is captured so the
// spin phases can poll it without calling ctx.Err.
func DeadlineCtx(ctx context.Context) Deadline {
	dl := Deadline{when: noClock, ctx: ctx}
	if t, ok := ctx.Deadline(); ok {
		dl.when = clockAt(t)
	}
	return dl
}

// None reports whether the deadline is the zero value (no bound).
func (d Deadline) None() bool { return d.when == 0 }

// Expired reports whether the wait must be abandoned: the context is
// done or the expiry time has passed. The no-bound check is the whole
// inlined body, so an untimed acquisition's retry loop pays one
// compare for it; the polls stay out of line.
func (d Deadline) Expired() bool { return d.when != 0 && d.expired() }

func (d Deadline) expired() bool {
	if d.ctx != nil && d.ctx.Err() != nil {
		return true
	}
	return d.when != noClock && clockNow() >= d.when
}

// Canceled reports whether abandoning a wait under this deadline
// counts as a cancellation rather than a timeout — the *.cancel vs
// *.timeout counter split. The rule is the bound's source, not which
// clock fired first: a context-driven deadline is a cancellation even
// when the captured copy of the context's deadline expires a moment
// before the context's own timer sets ctx.Err.
func (d Deadline) Canceled() bool { return d.ctx != nil }

// Err returns the context's error if the deadline carries a canceled
// context, and context.DeadlineExceeded otherwise — the error the
// facade's Ctx variants report on failure.
func (d Deadline) Err() error {
	if d.ctx != nil {
		if err := d.ctx.Err(); err != nil {
			return err
		}
	}
	return context.DeadlineExceeded
}

// ParkTimeout parks on sem until a token arrives, the deadline
// expires, or the context is done. It returns true iff a token was
// consumed. The caller owns the race resolution: a false return only
// means no token had arrived *yet* — the caller must still win its
// claim/cancel CAS before treating the wait as abandoned.
func (d Deadline) ParkTimeout(sem <-chan struct{}) bool {
	var timerC <-chan time.Time
	if d.when != noClock {
		tm := time.NewTimer(time.Duration(d.when - clockNow()))
		defer tm.Stop()
		timerC = tm.C
	}
	var done <-chan struct{}
	if d.ctx != nil {
		done = d.ctx.Done()
	}
	select {
	case <-sem:
		return true
	case <-timerC:
		return false
	case <-done:
		return false
	}
}

// expiryStride: the spin phases check the clock every this many
// probes. A probe is a handful of nanoseconds and time.Now tens, so
// the stride keeps timed spinning within noise of untimed.
const expiryStride = 16

// spinUntil spins on cond with backoff until it holds or the deadline
// expires, checking expiry every expiryStride probes.
func spinUntil(cond func() bool, dl Deadline) bool {
	var b atomicx.Backoff
	for i := 1; ; i++ {
		if cond() {
			return true
		}
		if i%expiryStride == 0 && dl.Expired() {
			return false
		}
		b.Pause()
	}
}

// WaitUntil is Wait with a bound: it returns true once Signal has run
// and false if dl expired first. A timed-out waiter is left re-armed
// (state idle): a Signal racing the timeout either loses the state
// word — and then never sends — or wins it, in which case WaitUntil
// consumes the send and reports granted. After a false return the
// owner may Wait (or WaitUntil) again on the same cell to claim a
// grant that is still on its way.
func (w *Waiter) WaitUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	if dl.None() {
		w.Wait(pol, id, tr)
		return true
	}
	if w.state.Load() == wSignaled {
		return true
	}
	var ok bool
	switch pol.Mode() {
	case ModeAdaptive:
		ok = w.waitAdaptiveUntil(pol, id, tr, dl)
	case ModeArray:
		ok = w.waitArrayUntil(pol, id, tr, dl)
	default:
		ok = spinUntil(func() bool { return w.state.Load() == wSignaled }, dl)
	}
	if !ok {
		pol.stats().Inc(obs.ParkTimeout, id)
	}
	return ok
}

func (w *Waiter) waitAdaptiveUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	if hotSpin(func() bool { return w.state.Load() == wSignaled }) {
		return true
	}
	pol.stats().Inc(obs.ParkYield, id)
	for i, n := 0, yieldsFor(); i < n; i++ {
		if w.state.Load() == wSignaled {
			return true
		}
		if dl.Expired() {
			return false
		}
		runtime.Gosched()
	}
	if dl.Expired() {
		return w.state.Load() == wSignaled
	}
	if w.sem == nil {
		// Publication to the signaler rides the state CAS below, exactly
		// as in the untimed path.
		w.sem = make(chan struct{}, 1)
	}
	if !w.state.CompareAndSwap(wIdle, wParked) {
		return true // lost to Signal: already wSignaled
	}
	pol.stats().Inc(obs.ParkPark, id)
	tr.Emit(trace.KindPark, trace.PhaseNone, parkArgChan)
	var t0 time.Time
	if st := pol.stats(); st.Enabled() {
		t0 = time.Now()
	}
	if dl.ParkTimeout(w.sem) {
		if st := pol.stats(); st.Enabled() {
			st.Observe(obs.ParkWait, id, time.Since(t0).Nanoseconds())
		}
		pol.stats().Inc(obs.ParkUnpark, id)
		tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgChan)
		return true
	}
	// Expired while parked. The state CAS is the token validation:
	// winning it (wParked→wIdle) forbids Signal from ever sending for
	// this round; losing it means Signal committed to a send — consume
	// the token so the next round starts clean, and report granted.
	if w.state.CompareAndSwap(wParked, wIdle) {
		return false
	}
	<-w.sem
	pol.stats().Inc(obs.ParkUnpark, id)
	tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgChan)
	return true
}

func (w *Waiter) waitArrayUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	if hotSpin(func() bool { return w.state.Load() == wSignaled }) {
		return true
	}
	k := w.key.Load()
	if k == 0 {
		k = newKey()
		w.key.Store(k)
	}
	arr := pol.Array()
	pol.stats().Inc(obs.ParkArrayWait, id)
	tr.Emit(trace.KindPark, trace.PhaseNone, parkArgArray)
	for {
		s0 := arr.load(k)
		if w.state.Load() == wSignaled {
			tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgArray)
			return true
		}
		if dl.Expired() {
			// Timed-out array waiters need no token dance: a late Signal
			// still swaps the state word and at worst bumps a slot nobody
			// watches.
			return false
		}
		arr.waitChange(k, s0, func() bool {
			return w.state.Load() == wSignaled || dl.Expired()
		})
	}
}

// WaitUntil is Flag.Wait with a bound: true once the flag is cleared,
// false if dl expired first. A false return leaves any parked record
// canceled (the granter's sweep skips it), so a subsequent Wait on the
// same flag starts a fresh round.
func (f *Flag) WaitUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	if dl.None() {
		f.Wait(pol, id, tr)
		return true
	}
	if !f.Blocked() {
		return true
	}
	var ok bool
	switch pol.Mode() {
	case ModeAdaptive:
		ok = f.waitAdaptiveUntil(pol, id, tr, dl)
	case ModeArray:
		ok = f.waitArrayUntil(pol, id, tr, dl)
	default:
		ok = spinUntil(func() bool { return !f.Blocked() }, dl)
	}
	if !ok {
		pol.stats().Inc(obs.ParkTimeout, id)
	}
	return ok
}

func (f *Flag) waitAdaptiveUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	if hotSpin(func() bool { return !f.Blocked() }) {
		return true
	}
	pol.stats().Inc(obs.ParkYield, id)
	for i, n := 0, yieldsFor(); i < n; i++ {
		if !f.Blocked() {
			return true
		}
		if dl.Expired() {
			return false
		}
		runtime.Gosched()
	}
	for f.Blocked() {
		if dl.Expired() {
			return !f.Blocked()
		}
		r := &parkRec{sem: make(chan struct{}, 1)}
		for {
			old := f.parked.Load()
			r.next = old
			if f.parked.CompareAndSwap(old, r) {
				break
			}
		}
		if !f.Blocked() {
			// Cleared between push and re-check: same claim/cancel race as
			// the untimed path.
			if r.state.CompareAndSwap(recWaiting, recCanceled) {
				return true
			}
			<-r.sem
			return true
		}
		pol.stats().Inc(obs.ParkPark, id)
		tr.Emit(trace.KindPark, trace.PhaseNone, parkArgChan)
		if dl.ParkTimeout(r.sem) {
			pol.stats().Inc(obs.ParkUnpark, id)
			tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgChan)
			continue
		}
		// Expired while parked: cancel the record so the sweep skips it.
		// Losing the CAS means the granter claimed it and a send is in
		// flight — consume it and report the grant.
		if r.state.CompareAndSwap(recWaiting, recCanceled) {
			return !f.Blocked()
		}
		<-r.sem
		pol.stats().Inc(obs.ParkUnpark, id)
		tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgChan)
		return true
	}
	return true
}

func (f *Flag) waitArrayUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	if hotSpin(func() bool { return !f.Blocked() }) {
		return true
	}
	k := f.word.Load() >> 1
	arr := pol.Array()
	if k == 0 || arr == nil {
		return spinUntil(func() bool { return !f.Blocked() }, dl)
	}
	pol.stats().Inc(obs.ParkArrayWait, id)
	tr.Emit(trace.KindPark, trace.PhaseNone, parkArgArray)
	for {
		s0 := arr.load(k)
		if !f.Blocked() {
			tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgArray)
			return true
		}
		if dl.Expired() {
			return false
		}
		arr.waitChange(k, s0, func() bool {
			return !f.Blocked() || dl.Expired()
		})
	}
}

// WaitCondUntil is WaitCond with a bound: true once cond holds, false
// if dl expired first. Condition sites have no signaler, so there is
// no token to validate — expiry checks simply join the ladder.
func WaitCondUntil(pol *Policy, id int, tr *trace.Local, cond func() bool, dl Deadline) bool {
	if dl.None() {
		WaitCond(pol, id, tr, cond)
		return true
	}
	if pol.Mode() == ModeSpin {
		if !spinUntil(cond, dl) {
			pol.stats().Inc(obs.ParkTimeout, id)
			return false
		}
		return true
	}
	if hotSpin(cond) {
		return true
	}
	pol.stats().Inc(obs.ParkYield, id)
	for i, n := 0, yieldsFor(); i < n; i++ {
		if cond() {
			return true
		}
		if dl.Expired() {
			pol.stats().Inc(obs.ParkTimeout, id)
			return false
		}
		runtime.Gosched()
	}
	pol.stats().Inc(obs.ParkPark, id)
	tr.Emit(trace.KindPark, trace.PhaseNone, parkArgSleep)
	var t0 time.Time
	if st := pol.stats(); st.Enabled() {
		t0 = time.Now()
	}
	d := sleepMin
	for !cond() {
		if dl.Expired() {
			pol.stats().Inc(obs.ParkTimeout, id)
			return false
		}
		time.Sleep(d)
		if d < sleepMax {
			d *= 2
		}
	}
	if st := pol.stats(); st.Enabled() {
		st.Observe(obs.ParkWait, id, time.Since(t0).Nanoseconds())
	}
	pol.stats().Inc(obs.ParkUnpark, id)
	tr.Emit(trace.KindUnpark, trace.PhaseNone, parkArgSleep)
	return true
}
