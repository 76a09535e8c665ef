package ollock

import (
	"context"
	"time"

	"ollock/internal/bravo"
	"ollock/internal/central"
	"ollock/internal/chaos"
	"ollock/internal/csnzi"
	"ollock/internal/foll"
	"ollock/internal/goll"
	"ollock/internal/hsieh"
	"ollock/internal/ksuh"
	"ollock/internal/lockcore"
	"ollock/internal/mcs"
	"ollock/internal/obs"
	"ollock/internal/park"
	"ollock/internal/prof"
	"ollock/internal/roll"
	"ollock/internal/solaris"
	"ollock/internal/trace"
)

// This file binds the public facade to the algorithm packages. Each lock
// gets a concrete wrapper type whose NewProc returns the per-goroutine
// handle; locks whose native interface is already handle-free (Solaris,
// Central) hand out trivial Procs.

// --- C-SNZI re-exports ---

// CSNZI is the closable scalable nonzero indicator, the paper's core
// data structure, usable standalone (e.g. "block new arrivals, then wait
// for in-flight work to drain"). See the csnzi package documentation for
// the operation semantics.
type CSNZI = csnzi.CSNZI

// CSNZITicket is the ticket returned by CSNZI.Arrive.
type CSNZITicket = csnzi.Ticket

// NewCSNZI returns an open C-SNZI with zero surplus.
func NewCSNZI(opts ...csnzi.Option) *CSNZI { return csnzi.New(opts...) }

// CSNZIWithLeaves configures the C-SNZI tree width (0 = centralized).
func CSNZIWithLeaves(n int) csnzi.Option { return csnzi.WithLeaves(n) }

// CSNZIWithFanout bounds children per interior node.
func CSNZIWithFanout(n int) csnzi.Option { return csnzi.WithFanout(n) }

// --- GOLL ---

// GOLLLock is the general OLL reader-writer lock. Its Procs additionally
// implement Upgrader.
type GOLLLock struct {
	l     *goll.RWLock
	stats *obs.Stats
	chaos *chaos.Injector
}

func (l *GOLLLock) lockStats() *obs.Stats      { return l.stats }
func (l *GOLLLock) lockChaos() *chaos.Injector { return l.chaos }

// NewGOLL returns a GOLL lock. It has no participant limit.
func NewGOLL() *GOLLLock { return &GOLLLock{l: goll.New()} }

// GOLLProc is the GOLL per-goroutine handle: RLock/RUnlock and
// Lock/Unlock, the Upgrader pair (TryUpgrade/Downgrade), the
// non-blocking TryRLock/TryLock, and SetPriority. It aliases the
// algorithm package's Proc directly — the facade adds no per-call
// indirection.
type GOLLProc = goll.Proc

// NewProc returns a handle for the calling goroutine.
func (l *GOLLLock) NewProc() Proc { return l.l.NewProc() }

// --- FOLL ---

// FOLLLock is the FIFO distributed-queue OLL lock.
type FOLLLock struct {
	l     *foll.RWLock
	stats *obs.Stats
	chaos *chaos.Injector
}

func (l *FOLLLock) lockStats() *obs.Stats      { return l.stats }
func (l *FOLLLock) lockChaos() *chaos.Injector { return l.chaos }

// NewFOLL returns a FOLL lock for up to maxProcs goroutines.
func NewFOLL(maxProcs int) *FOLLLock { return &FOLLLock{l: foll.New(maxProcs)} }

// FOLLProc is the FOLL per-goroutine handle, an alias for the
// algorithm package's Proc.
type FOLLProc = foll.Proc

// NewProc returns a handle for the calling goroutine (panics beyond
// maxProcs).
func (l *FOLLLock) NewProc() Proc { return l.l.NewProc() }

// NodesInUse returns the number of queue nodes currently checked out of
// the ring pool (diagnostic; stable only while the lock is quiescent).
// A quiescent lock must report 1 — the pool invariant torture runs
// check after cancellation storms.
func (l *FOLLLock) NodesInUse() int { return l.l.NodesInUse() }

// Idle reports whether the lock is quiescent: no holder and no queued
// waiter (diagnostic; the answer can be stale under concurrency).
func (l *FOLLLock) Idle() bool { return l.l.Idle() }

// --- ROLL ---

// ROLLLock is the reader-preference distributed-queue OLL lock.
type ROLLLock struct {
	l     *roll.RWLock
	stats *obs.Stats
	chaos *chaos.Injector
}

func (l *ROLLLock) lockStats() *obs.Stats      { return l.stats }
func (l *ROLLLock) lockChaos() *chaos.Injector { return l.chaos }

// NewROLL returns a ROLL lock for up to maxProcs goroutines.
func NewROLL(maxProcs int) *ROLLLock { return &ROLLLock{l: roll.New(maxProcs)} }

// ROLLProc is the ROLL per-goroutine handle, an alias for the
// algorithm package's Proc.
type ROLLProc = roll.Proc

// NewProc returns a handle for the calling goroutine (panics beyond
// maxProcs).
func (l *ROLLLock) NewProc() Proc { return l.l.NewProc() }

// NodesInUse returns the number of queue nodes currently checked out of
// the ring pool (diagnostic; stable only while the lock is quiescent).
// A quiescent lock must report 1.
func (l *ROLLLock) NodesInUse() int { return l.l.NodesInUse() }

// Idle reports whether the lock is quiescent: no holder and no queued
// waiter (diagnostic; the answer can be stale under concurrency).
func (l *ROLLLock) Idle() bool { return l.l.Idle() }

// --- KSUH ---

// KSUHLock is the Krieger–Stumm–Unrau–Hanna fair reader-writer lock.
type KSUHLock struct{ l *ksuh.RWLock }

// NewKSUH returns a KSUH lock (no participant limit).
func NewKSUH() *KSUHLock { return &KSUHLock{l: ksuh.New()} }

// KSUHProc is the KSUH per-goroutine handle (it owns the queue node).
type KSUHProc struct {
	l *ksuh.RWLock
	n ksuh.Node
}

// NewProc returns a handle for the calling goroutine.
func (l *KSUHLock) NewProc() Proc { return &KSUHProc{l: l.l} }

// RLock acquires the lock for reading.
func (p *KSUHProc) RLock() { p.l.RLock(&p.n) }

// RUnlock releases a read acquisition.
func (p *KSUHProc) RUnlock() { p.l.RUnlock(&p.n) }

// Lock acquires the lock for writing.
func (p *KSUHProc) Lock() { p.l.Lock(&p.n) }

// Unlock releases a write acquisition.
func (p *KSUHProc) Unlock() { p.l.Unlock(&p.n) }

// TryRLock acquires for reading without waiting; it reports success.
// Conservative: it succeeds only when the queue is empty.
func (p *KSUHProc) TryRLock() bool { return p.l.TryRLock(&p.n) }

// TryLock acquires for writing without waiting; it reports success.
// Conservative, like TryRLock.
func (p *KSUHProc) TryLock() bool { return p.l.TryLock(&p.n) }

// --- MCS reader-writer ---

// MCSRWLock is the Mellor-Crummey & Scott fair reader-writer lock.
type MCSRWLock struct{ l *mcs.RWLock }

// NewMCSRW returns an MCS reader-writer lock (no participant limit).
func NewMCSRW() *MCSRWLock { return &MCSRWLock{l: mcs.NewRWLock()} }

// MCSRWProc is the per-goroutine handle (it owns the queue node).
type MCSRWProc struct {
	l *mcs.RWLock
	n mcs.RWNode
}

// NewProc returns a handle for the calling goroutine.
func (l *MCSRWLock) NewProc() Proc { return &MCSRWProc{l: l.l} }

// RLock acquires the lock for reading.
func (p *MCSRWProc) RLock() { p.l.RLock(&p.n) }

// RUnlock releases a read acquisition.
func (p *MCSRWProc) RUnlock() { p.l.RUnlock(&p.n) }

// Lock acquires the lock for writing.
func (p *MCSRWProc) Lock() { p.l.Lock(&p.n) }

// Unlock releases a write acquisition.
func (p *MCSRWProc) Unlock() { p.l.Unlock(&p.n) }

// TryRLock acquires for reading without waiting; it reports success.
// Conservative: it succeeds only when the queue is empty.
func (p *MCSRWProc) TryRLock() bool { return p.l.TryRLock(&p.n) }

// TryLock acquires for writing without waiting; it reports success.
// Conservative, like TryRLock.
func (p *MCSRWProc) TryLock() bool { return p.l.TryLock(&p.n) }

// --- MCS mutex (bonus export: the substrate lock) ---

// MCSMutex is the classic MCS queue mutex with a handle-based interface.
type MCSMutex struct{ m *mcs.Mutex }

// NewMCSMutex returns an unlocked MCS mutex.
func NewMCSMutex() *MCSMutex { return &MCSMutex{m: mcs.NewMutex()} }

// MCSMutexProc is the per-goroutine handle for MCSMutex.
type MCSMutexProc struct {
	m *mcs.Mutex
	n mcs.MutexNode
}

// NewProc returns a handle for the calling goroutine.
func (m *MCSMutex) NewProc() *MCSMutexProc { return &MCSMutexProc{m: m.m} }

// Lock acquires the mutex.
func (p *MCSMutexProc) Lock() { p.m.Lock(&p.n) }

// Unlock releases the mutex.
func (p *MCSMutexProc) Unlock() { p.m.Unlock(&p.n) }

// --- Solaris-like ---

// SolarisLock is the user-space Solaris kernel lock. Its methods are
// goroutine-agnostic; NewProc returns the lock itself.
type SolarisLock struct{ l *solaris.RWLock }

// NewSolaris returns a Solaris-like lock (no participant limit).
func NewSolaris() *SolarisLock { return &SolarisLock{l: solaris.New()} }

// NewProc returns a handle (the lock itself: no per-goroutine state).
func (l *SolarisLock) NewProc() Proc { return l }

// RLock acquires the lock for reading.
func (l *SolarisLock) RLock() { l.l.RLock() }

// RUnlock releases a read acquisition.
func (l *SolarisLock) RUnlock() { l.l.RUnlock() }

// Lock acquires the lock for writing.
func (l *SolarisLock) Lock() { l.l.Lock() }

// Unlock releases a write acquisition.
func (l *SolarisLock) Unlock() { l.l.Unlock() }

// TryRLock acquires for reading without waiting; it reports success.
func (l *SolarisLock) TryRLock() bool { return l.l.TryRLock() }

// TryLock acquires for writing without waiting; it reports success.
func (l *SolarisLock) TryLock() bool { return l.l.TryLock() }

// --- Hsieh–Weihl ---

// HsiehLock is the Hsieh–Weihl private-mutex lock.
type HsiehLock struct{ l *hsieh.RWLock }

// NewHsieh returns a Hsieh–Weihl lock for up to maxProcs goroutines.
func NewHsieh(maxProcs int) *HsiehLock { return &HsiehLock{l: hsieh.New(maxProcs)} }

// HsiehProc is the per-goroutine handle (it owns one private mutex),
// an alias for the algorithm package's Proc.
type HsiehProc = hsieh.Proc

// NewProc returns a handle for the calling goroutine (panics beyond
// maxProcs).
func (l *HsiehLock) NewProc() Proc { return l.l.NewProc() }

// --- BRAVO biased wrapper ---

// BravoLock wraps any lock from this package with the BRAVO biased
// reader fast path (Dice & Kogan, ATC '19): while read-biased, readers
// publish in a global visible-readers table and skip the underlying lock
// entirely; a writer revokes the bias and drains published readers
// before relying on the underlying lock for exclusion. Create one with
// WrapBias or via New(kind, n, WithBias()).
type BravoLock struct {
	l     *bravo.Lock
	base  Lock
	stats *obs.Stats
	chaos *chaos.Injector
}

func (l *BravoLock) lockStats() *obs.Stats      { return l.stats }
func (l *BravoLock) lockChaos() *chaos.Injector { return l.chaos }

// WrapBias wraps base with the BRAVO biased reader fast path.
func WrapBias(base Lock) *BravoLock { return wrapBias(base, 0) }

func wrapBias(base Lock, mult int) *BravoLock {
	return wrapBiasStats(base, mult, nil, nil, nil, nil, nil)
}

// wrapBiasStats wraps base, sharing the instrumentation block between
// the wrapper (bravo.* counters) and the underlying lock, so one
// Snapshot covers the whole stack. If base carries a block and st is
// nil the wrapper adopts base's block for SnapshotOf pass-through. lt,
// when non-nil, is the flight-recorder handle shared with the base
// lock (wrapper and base events interleave on one timeline). pol, when
// non-nil, is the lock's shared wait policy; revocation drain waits
// descend its ladder instead of spinning unboundedly. lp, when
// non-nil, is the call-site profiler registration shared with the base
// lock: the wrapper profiles fast-path reads and revocations, the base
// everything that reaches it, so one profile covers the stack without
// double counting.
func wrapBiasStats(base Lock, mult int, st *obs.Stats, lt *trace.LockTrace, pol *park.Policy, lp *prof.LockProf, ch *chaos.Injector) *BravoLock {
	if st == nil {
		if c, ok := base.(statsCarrier); ok {
			st = c.lockStats()
		}
	}
	opts := []bravo.Option{bravo.WithInstr(lockcore.Instr{Stats: st, Trace: lt, Wait: pol, Prof: lp, Chaos: ch})}
	if mult > 0 {
		opts = append(opts, bravo.WithInhibitMultiplier(mult))
	}
	return &BravoLock{
		l:     bravo.New(func() bravo.BaseProc { return base.NewProc() }, opts...),
		base:  base,
		stats: st,
		chaos: ch,
	}
}

// Base returns the wrapped lock (diagnostic: torture runners reach the
// base lock's pool accounting through it).
func (l *BravoLock) Base() Lock { return l.base }

// Biased reports whether the read bias is currently armed. Diagnostic;
// the answer can be stale by the time it returns.
func (l *BravoLock) Biased() bool { return l.l.Biased() }

// BravoProc is the per-goroutine handle of a BravoLock: RLock takes
// the biased fast path while the read bias is armed, Lock revokes the
// bias first, and ReadFastPath reports which path the current read
// acquisition took. It aliases the wrapper package's Proc directly.
type BravoProc = bravo.Proc

// NewProc returns a handle for the calling goroutine (subject to the
// underlying lock's participant limit, if any).
func (l *BravoLock) NewProc() Proc { return l.l.NewProc() }

// --- Centralized ---

// CentralLock is the naive centralized counter+flag lock.
type CentralLock struct{ l *central.RWLock }

// NewCentral returns a centralized lock (no participant limit).
func NewCentral() *CentralLock { return &CentralLock{l: central.New()} }

// NewProc returns a handle (the lock itself: no per-goroutine state).
func (l *CentralLock) NewProc() Proc { return l }

// RLock acquires the lock for reading.
func (l *CentralLock) RLock() { l.l.RLock() }

// RUnlock releases a read acquisition.
func (l *CentralLock) RUnlock() { l.l.RUnlock() }

// Lock acquires the lock for writing.
func (l *CentralLock) Lock() { l.l.Lock() }

// Unlock releases a write acquisition.
func (l *CentralLock) Unlock() { l.l.Unlock() }

// TryRLock acquires for reading without waiting; it reports success.
func (l *CentralLock) TryRLock() bool { return l.l.TryRLock() }

// TryLock acquires for writing without waiting; it reports success.
func (l *CentralLock) TryLock() bool { return l.l.TryLock() }

// RLockFor acquires for reading, giving up after d; it reports whether
// the lock was acquired.
func (l *CentralLock) RLockFor(d time.Duration) bool { return l.l.RLockFor(d) }

// LockFor acquires for writing, giving up after d; it reports whether
// the lock was acquired.
func (l *CentralLock) LockFor(d time.Duration) bool { return l.l.LockFor(d) }

// RLockCtx acquires for reading, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (l *CentralLock) RLockCtx(ctx context.Context) error { return l.l.RLockCtx(ctx) }

// LockCtx acquires for writing, abandoning when ctx is done. It
// returns nil on acquisition and the context's error otherwise.
func (l *CentralLock) LockCtx(ctx context.Context) error { return l.l.LockCtx(ctx) }
