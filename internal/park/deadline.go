// Deadline is the bound on one wait: an absolute expiry time and/or a
// context. Every wait in this package takes one and returns true for
// "granted" and false for "expired"; the ladder that honours it is
// Policy.wait (park.go), whose park rung calls ParkTimeout. The timer
// allocation happens only there, where the goroutine is about to
// deschedule anyway.
package park

import (
	"context"
	"math"
	"time"
)

// Deadline bounds one wait: an absolute expiry time, a context, both,
// or neither. The zero value means "no bound" — there is no separate
// untimed code path, passing it costs one compare per expiry check.
// Deadlines are values; construct with DeadlineAfter / DeadlineAt /
// DeadlineCtx.
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
// expires, or the context is done; with no bound it simply receives.
// It returns true iff a token was consumed. The caller owns the race
// resolution: a false return only means no token had arrived *yet* —
// the caller must still win its claim/cancel CAS before treating the
// wait as abandoned.
func (d Deadline) ParkTimeout(sem <-chan struct{}) bool {
	if d.None() {
		<-sem
		return true
	}
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
