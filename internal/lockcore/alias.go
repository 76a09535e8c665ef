// Re-exports of the obs/trace/park surface the algorithm packages use.
// goll, foll, roll, bravo, and central import only lockcore (a layering
// rule enforced by a test in the module root); everything they need
// from the instrumentation substrate is aliased here, so adding an
// event or phase for a new lock kind means extending this file, not
// threading a new import through five packages.
package lockcore

import (
	"context"
	"time"

	"ollock/internal/obs"
	"ollock/internal/park"
	"ollock/internal/trace"
)

// Event is an obs counter identity (see internal/obs for the glossary).
type Event = obs.Event

// HistID is an obs histogram identity.
type HistID = obs.HistID

// Counter events the algorithm packages emit.
const (
	GOLLHandoff        = obs.GOLLHandoff
	GOLLUpgradeAttempt = obs.GOLLUpgradeAttempt
	GOLLUpgradeFail    = obs.GOLLUpgradeFail
	GOLLDowngrade      = obs.GOLLDowngrade
	GOLLTimeout        = obs.GOLLTimeout
	GOLLCancel         = obs.GOLLCancel

	FOLLReadJoin    = obs.FOLLReadJoin
	FOLLReadEnqueue = obs.FOLLReadEnqueue
	FOLLNodeRecycle = obs.FOLLNodeRecycle
	FOLLTimeout     = obs.FOLLTimeout
	FOLLCancel      = obs.FOLLCancel

	ROLLReadJoin    = obs.ROLLReadJoin
	ROLLReadEnqueue = obs.ROLLReadEnqueue
	ROLLNodeRecycle = obs.ROLLNodeRecycle
	ROLLOvertake    = obs.ROLLOvertake
	ROLLHintHit     = obs.ROLLHintHit
	ROLLHintMiss    = obs.ROLLHintMiss
	ROLLTimeout     = obs.ROLLTimeout
	ROLLCancel      = obs.ROLLCancel

	// CSNZIArriveRoot is counted by a lock on its indicator's behalf,
	// for a root arrival it made inline (csnzi.ArriveRoot).
	CSNZIArriveRoot = obs.CSNZIArriveRoot

	BravoFastRead      = obs.BravoFastRead
	BravoSlowRead      = obs.BravoSlowRead
	BravoBiasArm       = obs.BravoBiasArm
	BravoRevoke        = obs.BravoRevoke
	BravoSlotCollision = obs.BravoSlotCollision
	BravoRevokeAbort   = obs.BravoRevokeAbort
)

// Histograms the algorithm packages sample.
const (
	GOLLWriteWait  = obs.GOLLWriteWait
	FOLLWriteWait  = obs.FOLLWriteWait
	ROLLWriteWait  = obs.ROLLWriteWait
	BravoDrainWait = obs.BravoDrainWait
)

// Kind is a trace event kind; Phase a timeline span label; Route an
// arrival route (see internal/trace).
type (
	TraceKind = trace.Kind
	Phase     = trace.Phase
	Route     = trace.Route
)

// Trace kinds the algorithm packages emit.
const (
	KindReadAcquired  = trace.KindReadAcquired
	KindReadReleased  = trace.KindReadReleased
	KindWriteAcquired = trace.KindWriteAcquired
	KindWriteReleased = trace.KindWriteReleased

	KindArriveFail   = trace.KindArriveFail
	KindQueueEnqueue = trace.KindQueueEnqueue
	KindGroupEnqueue = trace.KindGroupEnqueue
	KindOvertake     = trace.KindOvertake
	KindHintHit      = trace.KindHintHit
	KindHintMiss     = trace.KindHintMiss

	KindIndClose = trace.KindIndClose
	KindIndOpen  = trace.KindIndOpen
	KindIndDrain = trace.KindIndDrain

	KindHandoff = trace.KindHandoff

	KindBravoRecheckFail = trace.KindBravoRecheckFail
	KindBravoRevoke      = trace.KindBravoRevoke

	KindCancel = trace.KindCancel
)

// Phases the algorithm packages open and close.
const (
	PhaseArrive    = trace.PhaseArrive
	PhaseQueueWait = trace.PhaseQueueWait
	PhaseSpinWait  = trace.PhaseSpinWait
	PhaseDrainWait = trace.PhaseDrainWait
	PhaseRevoke    = trace.PhaseRevoke
)

// Routes the algorithm packages report.
const (
	RouteRoot      = trace.RouteRoot
	RouteTree      = trace.RouteTree
	RouteDirect    = trace.RouteDirect
	RouteJoin      = trace.RouteJoin
	RouteBravoFast = trace.RouteBravoFast
)

// PackHandoff packs a hand-off batch size and kind into a KindHandoff
// event's Arg word.
func PackHandoff(count int, writer bool) uint64 { return trace.PackHandoff(count, writer) }

// StateDumper is implemented by locks that can render their live state
// for watchdog post-mortems.
type StateDumper = trace.StateDumper

// TraceLocal is a proc's flight-recorder ring (ProcInstr.TR). The alias
// exists for signatures that thread the ring through helpers.
type TraceLocal = trace.Local

// Policy is a waiting policy (see internal/park); nil means pure
// spinning. Flag is a policy-aware grant flag for queue nodes.
type (
	Policy = park.Policy
	Flag   = park.Flag
)

// WaitCond waits (via the policy's ladder) until cond reports true.
func WaitCond(pol *Policy, id int, tr *TraceLocal, cond func() bool) {
	park.WaitCond(pol, id, tr, cond)
}

// WaitCondUntil is WaitCond with a bound: true once cond holds, false
// if dl expired first.
func WaitCondUntil(pol *Policy, id int, tr *TraceLocal, cond func() bool, dl Deadline) bool {
	return park.WaitCondUntil(pol, id, tr, cond, dl)
}

// Deadline is the bound on one timed acquisition — an absolute expiry
// time, a context, both, or neither. The zero value means "no bound"
// and routes every wait to the untimed code paths, which is how the
// plain RLock/Lock entry points share their slow paths with the timed
// ones at the cost of one compare: the value is three words (it
// travels through the cores in registers) and Expired's no-bound check
// is its whole inlined body. See internal/park for the representation
// and the timeout/unpark race protocol.
type Deadline = park.Deadline

// After returns a deadline d from now.
func After(d time.Duration) Deadline { return park.DeadlineAfter(d) }

// At returns a deadline at the absolute time t.
func At(t time.Time) Deadline { return park.DeadlineAt(t) }

// AcquireCtx is the body of every RLockCtx/LockCtx: a context that is
// already done acquires nothing; otherwise acquire runs under a
// deadline driven by ctx (cancellation and ctx's own deadline, if
// any), and a failed acquisition reports the context's error —
// context.DeadlineExceeded when only the captured copy of its deadline
// has fired yet.
func AcquireCtx(ctx context.Context, acquire func(Deadline) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dl := park.DeadlineCtx(ctx)
	if acquire(dl) {
		return nil
	}
	return dl.Err()
}

// AcquireFor is the body of every try-first RLockFor/LockFor: one
// immediate attempt, then acquire under a deadline d from now. The
// shape keeps the uncontended timed acquisition at untimed speed:
// anchoring the deadline costs a clock read, which only a failed
// immediate attempt — the one a non-positive d is owed anyway — has to
// pay.
func AcquireFor(d time.Duration, try func() bool, acquire func(Deadline) bool) bool {
	return try() || acquire(After(d))
}

// The algorithm packages call Flag.Blocked, Flag.Set and
// Deadline.Expired on their fast paths through the aliases above,
// without importing park. The compiler inlines a method across that
// hop only when this package's export data carries the body, and it
// carries only bodies this package has inlined itself — which is all
// this function is for. Nothing calls it; the root package's
// TestInliningBudget fails if those sites stop inlining.
func inlinedThroughAliases(f *Flag, dl Deadline) bool {
	f.Set(false)
	return f.Blocked() || dl.Expired()
}

var _ = inlinedThroughAliases

// CancelArg is the KindCancel trace event's Arg word for dl: 0 for a
// timeout (the bound was a duration or an absolute time), 1 for a
// cancellation (the bound came from a context — see Deadline.Canceled).
func CancelArg(dl Deadline) uint64 {
	if dl.Canceled() {
		return 1
	}
	return 0
}

// CancelEvent picks the counter for an abandoned acquisition out of
// the kind's (timeout, cancel) pair: a context-driven deadline counts
// as cancel whichever of its clocks fired first, any other as timeout.
func CancelEvent(timeout, cancel Event, dl Deadline) Event {
	if dl.Canceled() {
		return cancel
	}
	return timeout
}
