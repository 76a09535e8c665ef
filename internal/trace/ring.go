// Flight-recorder ring buffers and the per-proc emission handle.
//
// Each Local is owned by exactly one goroutine (the Proc it was minted
// for), so ring writes need no CAS: the writer publishes each event's
// three words with atomic stores and then advances the position word.
// Readers (Tracer.Snapshot, the watchdog) run concurrently; they copy
// the window and discard any slot the writer may have overwritten
// while they copied — including the one slot an in-flight put may be
// filling right now — so a snapshot never contains torn events.
package trace

import (
	"sync/atomic"

	"ollock/internal/atomicx"
)

// eventWords is the fixed binary event width: timestamp, meta
// (kind/phase/lock/proc), arg.
const eventWords = 3

// ring is a single-writer flight-recorder buffer of fixed-width binary
// events. Capacity is a power of two; the write position only grows,
// so slot i of event n is (n & mask) * eventWords and the live window
// is [pos-cap, pos). put fills event pos's slot before publishing
// pos+1, so the oldest event of a wrapped window shares its slot with
// a write that may be in flight: a snapshot of a wrapped ring reports
// the cap-1 events above it.
type ring struct {
	mask uint64
	buf  []atomic.Uint64
	pos  atomic.Uint64 // events ever written (next sequence number)
}

func (r *ring) init(capEvents int) {
	r.mask = uint64(capEvents - 1)
	r.buf = make([]atomic.Uint64, capEvents*eventWords)
}

// put appends one event. Single writer: load/store of pos need no CAS.
//
//go:noinline
func (r *ring) put(ts int64, meta, arg uint64) {
	p := r.pos.Load()
	i := (p & r.mask) * eventWords
	r.buf[i].Store(uint64(ts))
	r.buf[i+1].Store(meta)
	r.buf[i+2].Store(arg)
	r.pos.Store(p + 1)
}

// snapshot appends the ring's live window to out, oldest first,
// skipping any event the writer may have overwritten while we copied.
func (r *ring) snapshot(out []Event) []Event {
	if r.buf == nil {
		return out
	}
	capEvents := r.mask + 1
	hi := r.pos.Load()
	lo := uint64(0)
	if hi > capEvents {
		lo = hi - capEvents
	}
	type raw struct{ ts, meta, arg uint64 }
	tmp := make([]raw, 0, hi-lo)
	for n := lo; n < hi; n++ {
		i := (n & r.mask) * eventWords
		tmp = append(tmp, raw{r.buf[i].Load(), r.buf[i+1].Load(), r.buf[i+2].Load()})
	}
	// Any slot with sequence number below the writer's new window start
	// may have been overwritten (torn) during the copy, and event hi2 —
	// whose slot is event hi2-cap's — may be half written now: drop
	// through hi2-cap inclusive (everything, if the writer lapped us).
	if hi2 := r.pos.Load(); hi2 >= capEvents {
		tmp = tmp[min(hi2-capEvents+1-lo, uint64(len(tmp))):]
	}
	for _, w := range tmp {
		out = append(out, Event{
			Ts:    int64(w.ts),
			Arg:   w.arg,
			Proc:  int32(uint32(w.meta)),
			Lock:  uint16(w.meta >> 32),
			Kind:  Kind(w.meta >> 56),
			Phase: Phase(w.meta >> 48),
		})
	}
	return out
}

// Local is the per-(lock, proc) emission handle. A nil *Local is the
// trace-off state: every method returns after one branch, emitting
// nothing and allocating nothing — the exact discipline of obs.Local.
// A Local must only be used by the goroutine driving its Proc.
type Local struct {
	_    atomicx.Pad
	tr   *Tracer
	lock uint16
	proc int32
	// waiting tracks (single-writer) whether a Begin published a stall
	// word that Acquired/End must retract.
	waiting bool
	ring    ring
	// wait is the watchdog's view: phase in the top byte, span start
	// (ns since epoch, truncated to 56 bits) below; zero = not waiting.
	wait atomicx.PaddedUint64
}

// meta packs the event descriptor word.
func (l *Local) meta(k Kind, ph Phase) uint64 {
	return uint64(k)<<56 | uint64(ph)<<48 | uint64(l.lock)<<32 | uint64(uint32(l.proc))
}

// Now returns the tracer's clock reading, or 0 when tracing is off.
// Call it once at operation entry and pass the value to Acquired so
// the acquisition latency rides inside a single event.
func (l *Local) Now() int64 {
	if l == nil {
		return 0
	}
	return l.tr.now() // a Local's tracer is never nil
}

// Emit records an instant event at the current time.
func (l *Local) Emit(k Kind, ph Phase, arg uint64) {
	if l == nil {
		return
	}
	l.ring.put(l.tr.Now(), l.meta(k, ph), arg)
}

// EmitAt records an instant event at an explicit timestamp — used to
// open a phase retroactively once an operation turns out to be slow
// (the fast path never paid for the event). Snapshot re-sorts, so mild
// out-of-order emission within a ring is fine.
func (l *Local) EmitAt(ts int64, k Kind, ph Phase, arg uint64) {
	if l == nil {
		return
	}
	l.ring.put(ts, l.meta(k, ph), arg)
}

// Begin opens a phase span at the current time and publishes the stall
// word the watchdog polls.
func (l *Local) Begin(ph Phase) {
	if l == nil {
		return
	}
	l.beginAt(l.tr.Now(), ph)
}

// BeginAt is Begin with an explicit (usually retroactive) start time.
func (l *Local) BeginAt(ts int64, ph Phase) {
	if l == nil {
		return
	}
	l.beginAt(ts, ph)
}

//go:noinline
func (l *Local) beginAt(ts int64, ph Phase) {
	l.ring.put(ts, l.meta(KindPhaseBegin, ph), 0)
	l.wait.Store(uint64(ph)<<56 | uint64(ts)&waitTsMask)
	l.waiting = true
}

const waitTsMask = 1<<56 - 1

// End closes the open phase span without an acquisition (e.g. a BRAVO
// revocation finishing) and retracts the stall word.
func (l *Local) End(ph Phase) {
	if l == nil {
		return
	}
	l.ring.put(l.tr.Now(), l.meta(KindPhaseEnd, ph), 0)
	if l.waiting {
		l.wait.Store(0)
		l.waiting = false
	}
}

// Acquired records a Read/WriteAcquired event whose Arg packs the
// latency since t0 (a Now() taken at operation entry) and the arrival
// route, closes any open phase span, and retracts the stall word.
func (l *Local) Acquired(k Kind, t0 int64, r Route) {
	if l == nil {
		return
	}
	l.acquired(k, t0, r)
}

//go:noinline
func (l *Local) acquired(k Kind, t0 int64, r Route) {
	ts := l.tr.Now()
	l.ring.put(ts, l.meta(k, PhaseNone), PackAcquire(ts-t0, r))
	if l.waiting {
		l.wait.Store(0)
		l.waiting = false
	}
}

// Released records a Read/WriteReleased instant.
func (l *Local) Released(k Kind) {
	if l == nil {
		return
	}
	l.released(k)
}

//go:noinline
func (l *Local) released(k Kind) {
	l.ring.put(l.tr.Now(), l.meta(k, PhaseNone), 0)
}

// stall decodes the published stall word: the phase the proc is stuck
// in and when it entered it. ok is false when the proc is not waiting.
func (l *Local) stall() (ph Phase, since int64, ok bool) {
	w := l.wait.Load()
	if w == 0 {
		return 0, 0, false
	}
	return Phase(w >> 56), int64(w & waitTsMask), true
}
