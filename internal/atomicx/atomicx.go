// Package atomicx provides the low-level shared-memory substrate used by
// the lock implementations in this module: cache-line padded atomic
// words, tunable exponential backoff, and helpers for packing multiple
// logical fields into a single CAS-able 64-bit word.
//
// Every lock in this repository is built from these pieces so that the
// memory layout decisions the paper depends on (one contended word per
// cache line, single-word CAS on composite state) are made in exactly one
// place.
package atomicx

import (
	"runtime"
	"sync/atomic"
)

// CacheLineSize is the assumed size, in bytes, of one cache line. 64 is
// correct for essentially every amd64 and arm64 part; the UltraSPARC T2+
// the paper measured also uses 64-byte L2 lines.
const CacheLineSize = 64

// Pad is inserted between fields that must not share a cache line.
// Embedding struct fields of this type keeps hot words from false
// sharing.
type Pad [CacheLineSize]byte

// PaddedUint64 is an atomic uint64 alone on its cache line. The word is
// both preceded and followed by padding so neighbouring PaddedUint64s in
// a slice never share a line.
type PaddedUint64 struct {
	_ Pad
	v atomic.Uint64
	_ [CacheLineSize - 8]byte
}

// Load atomically loads the value.
func (p *PaddedUint64) Load() uint64 { return p.v.Load() }

// Store atomically stores val.
func (p *PaddedUint64) Store(val uint64) { p.v.Store(val) }

// CompareAndSwap executes the CAS (old -> new), reporting success.
func (p *PaddedUint64) CompareAndSwap(old, new uint64) bool {
	return p.v.CompareAndSwap(old, new)
}

// Add atomically adds delta and returns the new value.
func (p *PaddedUint64) Add(delta uint64) uint64 { return p.v.Add(delta) }

// PaddedUint32 is an atomic uint32 alone on its cache line.
type PaddedUint32 struct {
	_ Pad
	v atomic.Uint32
	_ [CacheLineSize - 4]byte
}

// Load atomically loads the value.
func (p *PaddedUint32) Load() uint32 { return p.v.Load() }

// Store atomically stores val.
func (p *PaddedUint32) Store(val uint32) { p.v.Store(val) }

// CompareAndSwap executes the CAS (old -> new), reporting success.
func (p *PaddedUint32) CompareAndSwap(old, new uint32) bool {
	return p.v.CompareAndSwap(old, new)
}

// Add atomically adds delta and returns the new value.
func (p *PaddedUint32) Add(delta uint32) uint32 { return p.v.Add(delta) }

// PaddedBool is an atomic boolean flag alone on its cache line. It backs
// the per-thread "spin" flags of the queue locks: each waiter spins on a
// line nobody else spins on, which is the entire point of MCS-style
// locks.
type PaddedBool struct {
	_ Pad
	v atomic.Uint32
	_ [CacheLineSize - 4]byte
}

// Load atomically loads the flag.
func (p *PaddedBool) Load() bool { return p.v.Load() != 0 }

// Store atomically stores val.
func (p *PaddedBool) Store(val bool) {
	if val {
		p.v.Store(1)
	} else {
		p.v.Store(0)
	}
}

// PaddedPointer is an atomic pointer alone on its cache line.
type PaddedPointer[T any] struct {
	_ Pad
	v atomic.Pointer[T]
	_ [CacheLineSize - 8]byte
}

// Load atomically loads the pointer.
func (p *PaddedPointer[T]) Load() *T { return p.v.Load() }

// Store atomically stores ptr.
func (p *PaddedPointer[T]) Store(ptr *T) { p.v.Store(ptr) }

// CompareAndSwap executes the CAS (old -> new), reporting success.
func (p *PaddedPointer[T]) CompareAndSwap(old, new *T) bool {
	return p.v.CompareAndSwap(old, new)
}

// Swap atomically stores ptr and returns the previous value. This is the
// FetchAndStore primitive of the MCS lock.
func (p *PaddedPointer[T]) Swap(ptr *T) *T { return p.v.Swap(ptr) }

// Backoff implements bounded exponential backoff for CAS retry loops.
//
// The paper tunes backoff independently per lock (§5.1); the Min/Max
// knobs here are those tuning points. A Backoff value is cheap and is
// meant to live on the stack of one acquisition attempt.
//
// The zero value is ready to use with library defaults.
type Backoff struct {
	// Min is the initial number of spin iterations (default 4).
	Min int
	// Max caps the spin iterations per pause (default 1024).
	Max int

	cur int
}

// DefaultBackoffMin and DefaultBackoffMax are the library defaults,
// chosen so that the uncontended path pays nothing and heavy contention
// quickly reaches the yield point. Exported so the simulated queue
// mutex (internal/sim/simlock) pauses by the same bounds as spin.Mutex.
const (
	DefaultBackoffMin = 4
	DefaultBackoffMax = 1024
)

// MaxBackoffSpins is the hard ceiling on spin iterations per Pause,
// regardless of how large a Max the caller configures: 2^16 spin-hint
// iterations is tens of microseconds on any current part, past which
// more spinning only delays the yield that actually makes progress.
// The cap bounds the pause exponent to MaxBackoffExponent doublings
// from a Min of 1.
const MaxBackoffSpins = 1 << MaxBackoffExponent

// MaxBackoffExponent is log2(MaxBackoffSpins), the pinned maximum
// number of doublings a Backoff can perform.
const MaxBackoffExponent = 16

// Pause spins for the current backoff duration and doubles it, up to Max.
// Once the duration saturates, Pause also yields the processor so that
// oversubscribed goroutines cannot livelock each other.
func (b *Backoff) Pause() {
	if b.cur == 0 {
		b.cur = b.Min
		if b.cur <= 0 {
			b.cur = DefaultBackoffMin
		}
	}
	limit := b.Max
	if limit <= 0 {
		limit = DefaultBackoffMax
	}
	if limit > MaxBackoffSpins {
		limit = MaxBackoffSpins
	}
	for i := 0; i < b.cur; i++ {
		procYieldHint()
	}
	if b.cur < limit {
		b.cur *= 2
		if b.cur > limit {
			b.cur = limit
		}
	} else {
		// Saturated: let someone else run. Required for progress when
		// goroutines outnumber GOMAXPROCS.
		runtime.Gosched()
	}
}

// Reset restores the backoff to its initial duration. Call it after a
// successful CAS if the same Backoff value will be reused.
func (b *Backoff) Reset() { b.cur = 0 }

// Spins returns the spin count the next Pause will use (0 before the
// first Pause). Exposed so tests can pin the growth cap.
func (b *Backoff) Spins() int { return b.cur }

// procYieldHint is a CPU-friendly busy-wait body. Without access to the
// PAUSE instruction from pure Go we use a small guaranteed-not-optimized
// atomic operation on a private word; its latency is a few cycles, which
// is what we want from a spin body.
func procYieldHint() {
	spinSink.Add(0)
}

// ProcYield is the exported spin-loop body for busy-wait loops built
// outside this package (internal/park's wait ladders): one cheap,
// guaranteed-not-optimized step of a polite hot spin.
func ProcYield() { procYieldHint() }

var spinSink atomic.Uint64

// SpinUntil spins until cond() reports true, with escalating politeness:
// a short hot spin, then spin-with-yield. It is the shared busy-wait used
// by every "repeat until flag" loop in the lock pseudocode. The caller's
// condition must eventually be made true by another goroutine.
func SpinUntil(cond func() bool) {
	// Phase 1: hot spin. Cheap when the wait is short (handoff already in
	// progress).
	for i := 0; i < 64; i++ {
		if cond() {
			return
		}
		procYieldHint()
	}
	// Phase 2: yield between probes. Keeps the scheduler moving when the
	// flag owner is descheduled (or when GOMAXPROCS=1).
	for !cond() {
		runtime.Gosched()
	}
}
