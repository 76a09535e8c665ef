// Package park is the waiting layer of the lock stack: one policy
// object decides *how* every wait site in the module waits — pure
// spinning (the paper's user-space discipline, §5.1) or an adaptive
// spin→yield→park ladder — without changing *what* the sites wait for.
//
// The paper's evaluation substitutes spin-based condition variables for
// kernel sleep/wakeup because its thread counts never exceed the
// hardware's (§5.1). That assumption breaks under oversubscription:
// when goroutines vastly outnumber GOMAXPROCS, a spinning waiter burns
// the very CPU the lock holder needs to make progress. The adaptive
// mode (a Fissile-style composition) is the escape: a bounded hot spin
// keeps the short-wait fast path identical to pure spinning, a
// runtime.Gosched ladder keeps the scheduler moving, and a per-waiter
// semaphore-style channel parks the goroutine outright when the wait
// turns long. Releasers consult a wake hint (the waiter's state word /
// the flag's parked-list head) so they only pay a channel send for
// waiters that actually parked.
//
// Every wait on a cell someone will signal — a Waiter, a Flag — is one
// body, Policy.wait; the cells differ only in how a waiter publishes
// itself as parked and withdraws (the parker pair). A wait's bound is
// a Deadline, and the zero Deadline means "none" all the way down, so
// the untimed entry points are the timed ones called with it.
//
// The discipline mirrors internal/obs and internal/trace: a nil
// *Policy means "spin", every method nil-checks its receiver, and
// locks built without WithWait pay one predictable branch and zero
// allocations.
package park

import (
	"runtime"
	"sync/atomic"
	"time"

	"ollock/internal/atomicx"
	"ollock/internal/obs"
	"ollock/internal/trace"
)

// Mode selects a waiting strategy.
type Mode uint8

const (
	// ModeSpin is the paper's behavior: burn CPU until granted. The
	// zero value and the nil *Policy both select it.
	ModeSpin Mode = iota
	// ModeAdaptive escalates spin → yield → park on a per-waiter
	// channel, with wake-hint tracking on the releaser side.
	ModeAdaptive

	numModes
)

var modeNames = [numModes]string{"spin", "adaptive"}

// String returns the mode's stable name ("spin", "adaptive"), used by
// the facade, benchmarks, and BENCH_bravo.json.
func (m Mode) String() string {
	if m < numModes {
		return modeNames[m]
	}
	return "mode?"
}

// Ladder tuning. The hot-spin budget is the same under both modes, so
// a short wait costs the same either way; the yield budget bounds how
// long an adaptive waiter politely polls before parking; the sleep
// bounds cap the condition-wait ladder where no signaler exists.
//
// The yield budget is the oversubscription knob. When goroutines are
// scarce, yielding is nearly free and parking costs a wake, so the
// waiter polls patiently. When runnable goroutines outnumber
// processors, every yield re-enters a runqueue full of other pollers
// — each handoff then pays O(waiters) futile wake-probe-yield passes —
// so the waiter parks almost immediately and leaves the runqueue to
// the goroutines that can make progress.
const (
	hotSpinBudget      = 64
	yieldBudget        = 32
	yieldBudgetOversub = 0
	sleepMin           = time.Microsecond
	sleepMax           = 100 * time.Microsecond
)

// expiryStride: the spin rung checks the clock every this many probes.
// A deadline is a bound, not a real-time guarantee; a probe is a
// handful of nanoseconds and a clock read tens, so the stride keeps
// timed spinning within noise of untimed.
const expiryStride = 16

// spin is the whole wait under ModeSpin: atomicx.SpinUntil's shape — a
// short hot spin, cheap when the hand-off is already in progress, then
// a yield between probes so a descheduled holder (or GOMAXPROCS=1)
// gets the processor — plus the strided look at the deadline. It
// returns false if dl expired before probe held.
func spin(probe func() bool, dl Deadline) bool {
	for i := 1; ; i++ {
		if probe() {
			return true
		}
		if i%expiryStride == 0 && dl.Expired() {
			return false
		}
		if i <= hotSpinBudget {
			atomicx.ProcYield()
		} else {
			runtime.Gosched()
		}
	}
}

// hotSpin runs the bounded hot-probe phase of the adaptive ladder,
// returning true if probe succeeded. On a single processor the phase
// is skipped outright: no other thread runs — and so none can signal —
// while this one burns the only P, so the wait should go straight to
// the scheduler.
func hotSpin(probe func() bool) bool {
	if runtime.GOMAXPROCS(0) == 1 {
		return false
	}
	for i := 0; i < hotSpinBudget; i++ {
		if probe() {
			return true
		}
		atomicx.ProcYield()
	}
	return false
}

// yieldsFor picks the ladder's yield budget. NumGoroutine counts
// blocked goroutines too, so the 2x margin keeps programs with a
// normal complement of idle background goroutines on the patient
// budget; the call is two runtime reads and happens once per wait that
// has already outlived the hot spin, never on the grant fast path.
func yieldsFor() int {
	if runtime.NumGoroutine() > 2*runtime.GOMAXPROCS(0) {
		return yieldBudgetOversub
	}
	return yieldBudget
}

// Policy is one lock's waiting strategy plus its instrumentation. A nil
// *Policy is valid and means ModeSpin with no counters — the paper's
// behavior at every wait site. Create with New.
type Policy struct {
	mode Mode
	st   *obs.Stats
}

// Option configures New.
type Option func(*Policy)

// WithStats attaches an obs block; the park.* counters land there.
func WithStats(st *obs.Stats) Option { return func(p *Policy) { p.st = st } }

// New returns a policy for the given mode.
func New(m Mode, opts ...Option) *Policy {
	p := &Policy{mode: m}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Mode returns the policy's strategy; a nil policy reads as ModeSpin.
func (p *Policy) Mode() Mode {
	if p == nil {
		return ModeSpin
	}
	return p.mode
}

// stats returns the policy's obs block, nil-safe.
func (p *Policy) stats() *obs.Stats {
	if p == nil {
		return nil
	}
	return p.st
}

// expired counts one abandoned wait and is its result.
func (p *Policy) expired(id int) bool {
	p.stats().Inc(obs.ParkTimeout, id)
	return false
}

// Park event args: which mechanism a park/unpark pair used. 1 is
// retired, not reused: recorded traces keep their meaning.
const (
	parkArgChan  = 0 // channel park (true deschedule)
	parkArgSleep = 2 // timed-sleep ladder (condition wait)
)

// parked and unparked bracket every park span, so each one is counted,
// traced and — what the park-storm rule quotes as evidence — observed
// in the park.wait histogram exactly once. The clock is read only with
// a stats block attached.
func (p *Policy) parked(id int, tr *trace.Local, how uint64) (t0 time.Time) {
	p.stats().Inc(obs.ParkPark, id)
	tr.Emit(trace.KindPark, trace.PhaseNone, how)
	if p.stats().Enabled() {
		t0 = time.Now()
	}
	return t0
}

func (p *Policy) unparked(id int, tr *trace.Local, how uint64, t0 time.Time) {
	if st := p.stats(); st.Enabled() {
		st.Observe(obs.ParkWait, id, time.Since(t0).Nanoseconds())
	}
	p.stats().Inc(obs.ParkUnpark, id)
	tr.Emit(trace.KindUnpark, trace.PhaseNone, how)
}

// parker is what differs between the cells a signalled wait can park
// on: the claim/cancel CAS pair each cell already owns.
type parker interface {
	// arm publishes the caller as parked and returns the channel its
	// grant will be sent on, with the record disarm needs to find it
	// again (nil for a cell that is its own record). A nil channel
	// means the grant got to the cell first: the wait is over.
	arm() (sem chan struct{}, rec *parkRec)
	// disarm withdraws an armed park whose deadline fired. Exactly one
	// side wins the cell: true forbids the granter from ever sending
	// for this round (a clean timeout, the cell re-armed); false means
	// it had already committed a send, which the caller must consume.
	disarm(rec *parkRec) bool
}

// wait is the one body of every signalled wait: it returns true once
// probe holds and false if dl expired first — never both, never
// neither. Under ModeSpin it is the spin rung and nothing else; under
// ModeAdaptive, hot spin → yields → park on pk.
//
// The hard part is the park rung: a waiter that times out while a
// grant's channel send is in flight must not strand the token (the
// next wait on the same cell would consume a stale grant) and must not
// miss the grant (the classic lost wakeup). disarm's CAS decides which
// happened. A timeout therefore leaves the cell re-armed: the caller
// can wait again on it, which the lock-layer cancellation protocols
// rely on when they lose the abandonment race and must wait out the
// in-flight grant.
func (p *Policy) wait(id int, tr *trace.Local, dl Deadline, probe func() bool, pk parker) bool {
	if p.Mode() != ModeAdaptive {
		return spin(probe, dl) || p.expired(id)
	}
	if hotSpin(probe) {
		return true
	}
	p.stats().Inc(obs.ParkYield, id)
	for i, n := 0, yieldsFor(); i < n; i++ {
		if probe() {
			return true
		}
		if dl.Expired() {
			return p.expired(id)
		}
		runtime.Gosched()
	}
	for !probe() {
		if dl.Expired() {
			return p.expired(id)
		}
		sem, rec := pk.arm()
		if sem == nil {
			return true
		}
		t0 := p.parked(id, tr, parkArgChan)
		if !dl.ParkTimeout(sem) {
			if pk.disarm(rec) {
				return p.expired(id)
			}
			<-sem
		}
		p.unparked(id, tr, parkArgChan, t0)
	}
	return true
}

// Waiter state machine. idle -> signaled (fast grant) or
// idle -> parked -> signaled (the releaser saw the park and owes a
// channel send).
const (
	wIdle uint32 = iota
	wSignaled
	wParked
)

// Waiter is a one-shot wait/signal cell, the policy-aware replacement
// for the bare spin flag: exactly one goroutine Waits, exactly one
// Signals, and Reset re-arms it for reuse. The state word lives alone
// on its cache line (the MCS property: each waiter spins locally).
type Waiter struct {
	_     atomicx.Pad
	state atomic.Uint32
	sem   chan struct{} // allocated at first park only
	_     [atomicx.CacheLineSize - 16]byte
}

// Wait blocks until Signal, waiting per pol. id is the caller's proc id
// (counter striping); tr receives park/unpark events and may be nil.
func (w *Waiter) Wait(pol *Policy, id int, tr *trace.Local) { w.WaitUntil(pol, id, tr, Deadline{}) }

// WaitUntil is Wait with a bound: it returns true once Signal has run
// and false if dl expired first. A timed-out waiter is left re-armed
// (state idle): after a false return the owner may Wait (or WaitUntil)
// again on the same cell to claim a grant that is still on its way.
func (w *Waiter) WaitUntil(pol *Policy, id int, tr *trace.Local, dl Deadline) bool {
	return pol.wait(id, tr, dl, w.Signaled, w)
}

// arm claims the state word for a park, wIdle→wParked; losing the CAS
// means Signal already ran. Publication of sem to the signaler rides
// the CAS: Signal reads sem only after its Swap observes wParked.
func (w *Waiter) arm() (chan struct{}, *parkRec) {
	if w.sem == nil {
		w.sem = make(chan struct{}, 1)
	}
	if !w.state.CompareAndSwap(wIdle, wParked) {
		return nil, nil
	}
	return w.sem, nil
}

// disarm takes the word back, wParked→wIdle. Signal swaps the state
// first and only sends when it observed wParked, so either this CAS
// succeeds (Signal will see wIdle and not send) or it fails (a send is
// committed).
func (w *Waiter) disarm(*parkRec) bool { return w.state.CompareAndSwap(wParked, wIdle) }

// Signal grants the waiter. The wake hint is the state word itself:
// only a waiter observed in the parked state costs a channel send — a
// spinning waiter's grant is one swap.
func (w *Waiter) Signal() {
	if w.state.Swap(wSignaled) == wParked {
		w.sem <- struct{}{}
	}
}

// Signaled reports whether Signal has run since the last Reset.
func (w *Waiter) Signaled() bool { return w.state.Load() == wSignaled }

// Reset re-arms the waiter for another Wait/Signal round. Only the
// owning goroutine may call it, and only while no Wait is in flight.
func (w *Waiter) Reset() { w.state.Store(wIdle) }

// WaitCond waits for cond to become true at a site with no cooperating
// signaler to send on a channel (lockword CAS loops, BRAVO revocation
// drains).
func WaitCond(pol *Policy, id int, tr *trace.Local, cond func() bool) {
	WaitCondUntil(pol, id, tr, cond, Deadline{})
}

// WaitCondUntil is WaitCond with a bound: true once cond holds, false
// if dl expired first. Spin mode is the same rung a signalled wait
// spins on; adaptive mode escalates spin → yield → bounded timed
// sleeps, all the sleeps of one wait under one park span. There is no
// signaler, so no token to validate: expiry checks simply join the
// ladder.
func WaitCondUntil(pol *Policy, id int, tr *trace.Local, cond func() bool, dl Deadline) bool {
	if pol.Mode() != ModeAdaptive {
		return spin(cond, dl) || pol.expired(id)
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
			return pol.expired(id)
		}
		runtime.Gosched()
	}
	t0 := pol.parked(id, tr, parkArgSleep)
	d := sleepMin
	for !cond() {
		if dl.Expired() {
			return pol.expired(id)
		}
		time.Sleep(d)
		if d < sleepMax {
			d *= 2
		}
	}
	pol.unparked(id, tr, parkArgSleep, t0)
	return true
}

// Ladder is the policy-aware replacement for a stack-local
// atomicx.Backoff in CAS retry loops: under a nil or spin policy Pause
// is exactly Backoff.Pause; under adaptive it escalates to yields and
// then bounded sleeps so retry storms cannot starve the oversubscribed
// scheduler. A Ladder is a value, lives on the caller's stack, and
// allocates nothing.
type Ladder struct {
	pol    *Policy
	b      atomicx.Backoff
	yields int
	budget int // picked by yieldsFor at the first non-spin Pause
	sleep  time.Duration
}

// Ladder returns a fresh ladder for one acquisition attempt.
func (p *Policy) Ladder() Ladder { return Ladder{pol: p} }

// Pause waits one escalating step.
func (l *Ladder) Pause() {
	if l.pol.Mode() == ModeSpin {
		l.b.Pause()
		return
	}
	if l.budget == 0 {
		// CAS retry loops keep at least one backoff pause before the
		// sleep phase: a retry is not a queue wait, and the next attempt
		// usually succeeds within a pause.
		l.budget = max(1, yieldsFor())
	}
	if l.yields < l.budget {
		l.yields++
		l.b.Pause() // bounded spin; saturation already yields
		return
	}
	if l.sleep == 0 {
		l.sleep = sleepMin
	}
	time.Sleep(l.sleep)
	if l.sleep < sleepMax {
		l.sleep *= 2
	}
}

// Reset restores the ladder to its hot phase. Call after a successful
// CAS when the same ladder value is reused.
func (l *Ladder) Reset() {
	l.b.Reset()
	l.yields = 0
	l.budget = 0
	l.sleep = 0
}
