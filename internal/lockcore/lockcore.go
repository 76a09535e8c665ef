// Package lockcore is the shared substrate every lock algorithm in this
// module builds on: one instrumentation bundle (Instr) carrying the
// optional stats block, flight-recorder handle, and wait policy that
// used to be threaded through each algorithm package as three parallel
// options, one per-proc view (ProcInstr) whose nil-guarded helpers
// centralize the "is instrumentation on?" fast-path checks, and the
// data-driven kind registry (KindDesc) from which the facade's New
// dispatch, capability errors, stat scopes, the tool layer's kind
// enumeration, and the simulator's lock table all derive.
//
// The package deliberately re-exports (as type aliases and constants)
// the slice of internal/obs, internal/trace, and internal/park that the
// algorithm packages need, so goll, foll, roll, bravo, and central
// reach those layers only through here — a layering rule enforced by a
// test in the module root.
package lockcore

import (
	"time"

	"ollock/internal/chaos"
	"ollock/internal/obs"
	"ollock/internal/park"
	"ollock/internal/prof"
	"ollock/internal/trace"
)

// Instr bundles a lock's optional instrumentation: the striped counter
// block (nil = stats off), the flight-recorder handle (nil = tracing
// off), the wait policy (nil = pure spinning, the paper's behavior),
// the call-site profiler handle (nil = profiling off), and the chaos
// fault injector (nil = no fault injection; torture runs only). The
// zero value is a fully-off bundle; every method is safe on it,
// costing one predictable nil-check branch per call.
type Instr struct {
	Stats *obs.Stats
	Trace *trace.LockTrace
	Wait  *park.Policy
	Prof  *prof.LockProf
	Chaos *chaos.Injector
}

// NewProc mints the per-proc view: a buffered counter handle, a
// per-proc trace ring, a profiler sampling handle, and a chaos fault
// stream, each nil when the corresponding layer is off.
func (in Instr) NewProc(id int) ProcInstr {
	return ProcInstr{LC: in.Stats.NewLocal(id), TR: in.Trace.NewLocal(id), PR: in.Prof.NewLocal(), CH: in.Chaos.NewProc(id)}
}

// Enabled reports whether the stats layer is on.
func (in Instr) Enabled() bool { return in.Stats.Enabled() }

// Inc counts one event against the shared block (no-op when stats are
// off). Hot paths should prefer ProcInstr.Inc, which buffers.
func (in Instr) Inc(e Event, id int) { in.Stats.Inc(e, id) }

// Observe records one histogram sample (no-op when stats are off).
func (in Instr) Observe(h HistID, id int, v int64) { in.Stats.Observe(h, id, v) }

// SpanStart opens an acquire-latency span: it reads the clock only when
// stats are on, so uninstrumented fast paths never pay for time.Now.
// Pair with SpanObserve.
func (in Instr) SpanStart() time.Time {
	if in.Stats.Enabled() {
		return time.Now()
	}
	return time.Time{}
}

// SpanObserve closes a span opened by SpanStart, recording the elapsed
// nanoseconds into h (no-op when stats are off).
func (in Instr) SpanObserve(h HistID, id int, t0 time.Time) {
	if in.Stats.Enabled() {
		in.Stats.Observe(h, id, time.Since(t0).Nanoseconds())
	}
}

// AddDumper registers the lock as a live-state dumper for watchdog
// post-mortems (no-op when tracing is off).
func (in Instr) AddDumper(d StateDumper) { in.Trace.AddDumper(d) }

// ProcInstr is the per-proc slice of an Instr: the buffered counter
// view and the proc's flight-recorder ring. The zero value is fully
// off; every helper below delegates to a nil-receiver-safe method, so
// each event site costs exactly one predictable branch when the
// corresponding layer is off, and the helpers are small enough to
// inline into the lock fast paths.
type ProcInstr struct {
	LC *obs.Local
	TR *trace.Local
	PR *prof.Local
	CH *chaos.Proc
}

// Inc counts one event through the proc's buffer (no-op when stats are
// off); the shared cells are touched once per obs.FlushEvery events.
// The buffered increment sits four nodes past what the inliner would
// accept here on top of obs.Local.Inc, so it stays out of line and the
// stats-off site is the inlined nil check alone.
func (pi ProcInstr) Inc(e Event) {
	if pi.LC != nil {
		incLocal(pi.LC, e)
	}
}

//go:noinline
func incLocal(lc *obs.Local, e Event) { lc.Inc(e) }

// Now returns the trace clock, or 0 when tracing is off.
func (pi ProcInstr) Now() int64 { return pi.TR.Now() }

// Emit records one trace event (no-op when tracing is off). Under a
// chaos injector it first perturbs the caller: the algorithms emit
// exactly at their protocol steps (enqueue published, indicator
// closed, hand-off decided), so the injection lands on the
// linearization points without any dedicated hooks — and works with
// tracing off, since the perturbation precedes the nil-guarded ring
// write.
func (pi ProcInstr) Emit(k TraceKind, ph Phase, arg uint64) {
	pi.CH.Perturb()
	pi.TR.Emit(k, ph, arg)
}

// Begin opens a wait-phase span (no-op when tracing is off).
func (pi ProcInstr) Begin(ph Phase) { pi.TR.Begin(ph) }

// BeginAt opens a wait-phase span retroactively at ts (no-op when
// tracing is off).
func (pi ProcInstr) BeginAt(ts int64, ph Phase) { pi.TR.BeginAt(ts, ph) }

// End closes a wait-phase span (no-op when tracing is off).
func (pi ProcInstr) End(ph Phase) { pi.TR.End(ph) }

// Acquired emits the acquisition event closing any open wait phase,
// stamping the latency since t0 and the route taken (no-op when tracing
// is off).
func (pi ProcInstr) Acquired(k TraceKind, t0 int64, r Route) { pi.TR.Acquired(k, t0, r) }

// Released emits the release event (no-op when tracing is off).
func (pi ProcInstr) Released(k TraceKind) { pi.TR.Released(k) }

// ProfTick advances the call-site profiler's per-proc sampling pacer
// at the top of an acquisition, returning a nonzero profile-clock
// timestamp when this acquisition is elected for sampling (0 when it
// is not, or when profiling is off — one branch plus one increment).
// Thread the result to ProfAcquired/ProfContended, whose work is
// entirely gated on it.
func (pi ProcInstr) ProfTick() int64 { return pi.PR.Tick() }

// ProfAcquired completes a sampled acquisition: it captures the caller
// stack, charges the blocked time since ts to the call site when
// contended, and arms the hold sample ProfReleased will close. A zero
// ts makes it one predictable branch.
func (pi ProcInstr) ProfAcquired(ts int64, contended bool) { pi.PR.Acquired(ts, contended) }

// ProfContended records a sampled contention event without arming a
// hold sample — the BRAVO wrapper charges revocation cost to writer
// call sites this way while the base lock owns the hold accounting.
func (pi ProcInstr) ProfContended(ts int64) { pi.PR.Contended(ts) }

// ProfReleased closes the pending hold sample, if any (one predictable
// branch when profiling is off or the acquisition was not sampled).
func (pi ProcInstr) ProfReleased() { pi.PR.Released() }
