package rind

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"ollock/internal/atomicx"
	"ollock/internal/csnzi"
	"ollock/internal/obs"
	"ollock/internal/park"
)

// Sharded is a closable read indicator built from cache-line-padded
// per-proc ingress/egress counter pairs behind one closable gate word —
// the "ingress-egress" point of BRAVO's read-indicator taxonomy, made
// closable so the OLL locks can use it.
//
// Readers stripe across slots: an arrival CASes its slot's ingress
// counter up, a departure fetch-adds the slot's egress counter. Under a
// read-mostly workload distinct procs touch distinct cache lines and
// never agree on anything — the same non-communication the C-SNZI tree
// buys, without the tree's propagation logic, at the price of writers
// summing every slot.
//
// # Protocol
//
// Gate word: bit 63 = closed, bit 62 = drained (the closed indicator's
// surplus has provably reached zero; claimed by exactly one CAS), bit
// 61 = pending (a multi-step probe or open-transition is in flight),
// bit 60 = waiters (the contract's flag: set only while closed, by
// MarkWaiters/CloseAndMark; carried, never acted on), bits 31-59 =
// close-epoch sequence counter (incremented on every open transition),
// low 31 bits = direct-arrival count (OpenWithArrivals hand-offs and
// TradeToRoot transfers).
//
// The epoch counter exists to break an ABA on the drain claim: without
// it, the gate word "closed, direct=0" recurs bit-identically in every
// close epoch, so a departer preempted inside tryDrain between its sum
// and its claim CAS could resume after the owner has Opened and a new
// writer has Closed, succeed the stale CAS, and spuriously hand the
// lock over while new-epoch readers hold slot arrivals. With the epoch
// in the word, a claim CAS formed in epoch N can only succeed while the
// gate is still in epoch N, where the claim is genuine. (The counter
// wraps at 2^29 opens; a claimant would have to stall across exactly
// that many open transitions to alias, the standard seqlock caveat.)
//
// Slot ingress word: bit 63 = sealed, low bits = cumulative arrivals.
// Arrivals CAS the ingress, so sealing a slot (setting bit 63) makes
// further arrivals fail cleanly: a failed arrival never modifies any
// counter, which is what makes drain detection exact.
//
// Closing sets the gate's closed bit, then seals every slot. Any
// thread that sums the slots under a closed gate first helps seal them
// (sealing is an idempotent CAS), so a sum taken under a closed gate
// only ever reads frozen ingress words: per-slot surplus is then
// monotonically nonincreasing, a sum of zero implies the true surplus
// is zero and stays zero. The last counter modification is followed by
// such a sum (the departer's own), so the drain is never missed; the
// drained bit's CAS makes its observation exactly-once.
//
// While the gate is pending — CloseIfEmpty and TryUpgrade probe via
// pending so they can roll back, and the open transitions reset the
// slot pairs under it — arrivals spin rather than fail, and Close,
// CloseAndMark and MarkWaiters wait (a probe's commit CAS expects the
// exact word it published). Arrive therefore fails iff the indicator is
// closed, with no transient-failure window (a GOLL reader that fails
// must find a closer to queue behind).
//
// The owner of a drained gate is its only writer but for one thing: a
// waiter may CAS the waiters flag in. Open and OpenWithArrivals rely on
// their caller to serialize them with markers (the contract; GOLL's
// queue mutex) and use plain stores; OpenIfNoWaiters runs without that
// mutex, so its first gate write — closed+drained to pending — is a
// CAS, which a concurrent mark makes fail.
type Sharded struct {
	gate  atomicx.PaddedUint64
	slots []shard
	// sealHook, when set, observes committed close transitions (see
	// SetSealHook in describe.go). Nil when tracing is off.
	sealHook func(epoch uint64)
	// pol selects how gate waits and CAS retries pause (nil = the
	// legacy backoff spin); see SetWaitPolicy.
	pol *park.Policy
	// stats is the optional instrumentation block (nil = off): gate and
	// slot events are counted under the C-SNZI's csnzi.* names, per
	// transition, so snapshots compare across indicators.
	stats *obs.Stats
}

// shard is one ingress/egress pair, alone on its cache line (a proc's
// arrive and depart touch the same line, which that proc mostly owns).
type shard struct {
	_       atomicx.Pad
	ingress atomic.Uint64
	egress  atomic.Uint64
	_       [atomicx.CacheLineSize - 16]byte
}

// Gate word layout.
const (
	gateClosed     = uint64(1) << 63
	gateDrained    = uint64(1) << 62
	gatePending    = uint64(1) << 61
	gateWaiters    = uint64(1) << 60
	gateEpochShift = 31
	gateEpochMask  = ((uint64(1) << 29) - 1) << gateEpochShift
	gateEpochInc   = uint64(1) << gateEpochShift
	gateDirectMask = (uint64(1) << 31) - 1
)

// Slot ingress seal flag.
const sealedBit = uint64(1) << 63

// DefaultShards is the default slot count: one per processor, capped.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 32 {
		n = 32
	}
	return n
}

// NewSharded returns an open sharded indicator with zero surplus and
// nshards ingress/egress slots (nshards <= 0 selects DefaultShards).
func NewSharded(nshards int) *Sharded {
	if nshards <= 0 {
		nshards = DefaultShards()
	}
	return &Sharded{slots: make([]shard, nshards)}
}

// SetWaitPolicy routes the indicator's pauses — gate-pending waits and
// CAS retry backoff — through a wait policy (see internal/park). Call
// during lock construction, before the indicator is shared; a nil
// policy (the default) keeps the legacy exponential-backoff spin.
func (s *Sharded) SetWaitPolicy(pol *park.Policy) { s.pol = pol }

// SetStats attaches an instrumentation block (see Instrument). It must
// be called before the indicator is shared between goroutines.
func (s *Sharded) SetStats(st *obs.Stats) { s.stats = st }

// count records one event into the caller's buffer when it has one,
// else into the indicator's shared stats block.
func (s *Sharded) count(lc *obs.Local, e obs.Event, id int) {
	if lc != nil {
		lc.Inc(e)
		return
	}
	s.stats.Inc(e, id)
}

func (s *Sharded) slotIndex(id int) int {
	// Unsigned reduction: -id would overflow for math.MinInt and leave
	// the remainder negative.
	return int(uint(id) % uint(len(s.slots)))
}

// Arrive implements Indicator.
func (s *Sharded) Arrive(id int) Ticket { return s.ArriveLocal(id, nil) }

// ArriveLocal implements Indicator. Slot arrivals count as tree
// arrivals: the slot array plays the tree's role.
func (s *Sharded) ArriveLocal(id int, lc *obs.Local) Ticket {
	ld := s.pol.Ladder()
	for {
		g := s.gate.Load()
		if g&gateClosed != 0 {
			s.count(lc, obs.CSNZIArriveFail, id)
			return 0
		}
		if g&gatePending != 0 {
			// A probe or open-transition is deciding; wait it out
			// rather than failing (it either commits to closed, making
			// us fail honestly, or finishes open, letting us in).
			ld.Pause()
			continue
		}
		idx := s.slotIndex(id)
		sl := &s.slots[idx]
		for {
			x := sl.ingress.Load()
			if x&sealedBit != 0 {
				break // sealed under us: re-read the gate
			}
			if sl.ingress.CompareAndSwap(x, x+1) {
				s.count(lc, obs.CSNZIArriveTree, id)
				return csnzi.TicketAt(idx)
			}
			ld.Pause()
		}
	}
}

// Depart implements Indicator.
func (s *Sharded) Depart(t Ticket) bool {
	switch {
	case t.Tree():
		sl := &s.slots[t.Index()]
		sl.egress.Add(1)
		g := s.gate.Load()
		if g&gateClosed == 0 {
			return true
		}
		return !s.tryDrain(g)
	case t == Direct:
		return s.departDirect()
	default:
		panic("rind: Depart with failed ticket")
	}
}

func (s *Sharded) departDirect() bool {
	ld := s.pol.Ladder()
	for {
		g := s.gate.Load()
		if g&gateDirectMask == 0 {
			panic("rind: direct Depart without matching arrival")
		}
		ng := g - 1
		if s.gate.CompareAndSwap(g, ng) {
			if ng&gateClosed == 0 || ng&gateDirectMask != 0 {
				return true
			}
			return !s.tryDrain(ng)
		}
		ld.Pause()
	}
}

// tryDrain attempts to claim the drained state of a closed gate whose
// word was read as g. It returns true iff this call won the claim (the
// caller owns the write-acquired indicator or must hand it over).
func (s *Sharded) tryDrain(g uint64) bool {
	epoch := g & gateEpochMask
	for {
		if g&gateDrained != 0 || g&gateDirectMask != 0 {
			return false
		}
		if s.sumSealed() != 0 {
			return false
		}
		// The claim CAS re-validates the whole gate word — including the
		// close epoch, so a claim formed before an Open/Close cycle can
		// never land on the new epoch's gate (see the layout comment):
		// if the direct count moved, someone else drained, or the epoch
		// advanced, it fails and the reload re-evaluates.
		if s.gate.CompareAndSwap(g, g|gateDrained) {
			return true
		}
		g = s.gate.Load()
		if g&gateClosed == 0 || g&gateEpochMask != epoch {
			// Reopened, or a later close epoch entirely: this call's
			// drain is no longer ours to claim.
			return false
		}
	}
}

// sumSealed seals every slot (idempotent help: a sum under a closed
// gate must never read a moving ingress) and returns the summed
// surplus. Per slot the egress is read first: with the ingress frozen
// the slot surplus can only be overestimated, never underestimated, so
// a zero sum proves a true — and, closed, permanent — zero surplus.
func (s *Sharded) sumSealed() uint64 {
	var total uint64
	for i := range s.slots {
		sl := &s.slots[i]
		for {
			x := sl.ingress.Load()
			if x&sealedBit != 0 {
				break
			}
			if sl.ingress.CompareAndSwap(x, x|sealedBit) {
				break
			}
		}
		e := sl.egress.Load()
		in := sl.ingress.Load() &^ sealedBit
		total += in - e
	}
	return total
}

func (s *Sharded) unsealSlots() {
	for i := range s.slots {
		sl := &s.slots[i]
		for {
			x := sl.ingress.Load()
			if x&sealedBit == 0 || sl.ingress.CompareAndSwap(x, x&^sealedBit) {
				break
			}
		}
	}
}

// quickSum is the advisory (unsealed, racy) surplus estimate used by
// Query and the CloseIfEmpty pre-check.
func (s *Sharded) quickSum() uint64 {
	var total uint64
	for i := range s.slots {
		sl := &s.slots[i]
		e := sl.egress.Load()
		in := sl.ingress.Load() &^ sealedBit
		total += in - e
	}
	return total
}

// Query implements Indicator. The pending state reports open: a probe
// in flight has not closed anything yet, and callers polling for open
// (GOLL's retry loop, the FOLL writer's pre-close wait) must treat it
// as such.
func (s *Sharded) Query() (nonzero, open bool) {
	g := s.gate.Load()
	return g&gateDirectMask != 0 || s.quickSum() != 0, g&gateClosed == 0
}

// Close implements Indicator.
func (s *Sharded) Close() bool { return s.close(gateClosed) }

// CloseAndMark implements Indicator. Emptiness is only known after the
// closing CAS (the sum needs sealed slots), so a closer that acquires
// outright leaves the flag it set behind, stale.
func (s *Sharded) CloseAndMark() bool { return s.close(gateClosed | gateWaiters) }

// close sets flags — the closed bit, with or without the waiters flag —
// and reports whether the caller thereby acquired the indicator. Only
// an open-to-closed transition counts as a csnzi.close, not a mark.
func (s *Sharded) close(flags uint64) bool {
	ld := s.pol.Ladder()
	for {
		g := s.gate.Load()
		if g&flags == flags {
			return false
		}
		if g&gatePending != 0 {
			ld.Pause() // wait out the probe / open-transition
			continue
		}
		if !s.gate.CompareAndSwap(g, g|flags) {
			ld.Pause()
			continue
		}
		if g&gateClosed != 0 {
			return false // already closed: marked only
		}
		s.stats.Inc(obs.CSNZIClose, 0)
		s.sealed(g)
		// Seal and try to claim the drain ourselves. Losing the race
		// (or finding surplus) is fine: the last departer's own sum
		// claims it then.
		return s.tryDrain(g | flags)
	}
}

// MarkWaiters implements Indicator.
func (s *Sharded) MarkWaiters() bool {
	ld := s.pol.Ladder()
	for {
		g := s.gate.Load()
		switch {
		case g&gatePending != 0:
			// Wait the probe / open-transition out: it may commit either
			// way, and its CAS must find the word it published.
		case g&gateClosed == 0:
			return false
		case g&gateWaiters != 0 || s.gate.CompareAndSwap(g, g|gateWaiters):
			return true
		}
		ld.Pause()
	}
}

// CloseIfEmpty implements Indicator. The probe takes the gate pending,
// seals and sums, and either commits to closed+drained or rolls back;
// arrivals spin out the pending window instead of failing.
func (s *Sharded) CloseIfEmpty() bool {
	g := s.gate.Load()
	if g&^gateEpochMask != 0 || s.quickSum() != 0 {
		return false
	}
	if !s.gate.CompareAndSwap(g, g|gatePending) {
		return false
	}
	if s.sumSealed() == 0 && s.gate.CompareAndSwap(g|gatePending, g|gateClosed|gateDrained) {
		s.stats.Inc(obs.CSNZIClose, 0)
		s.sealed(g)
		return true // slots stay sealed while closed
	}
	// Surplus appeared (a straddling arrival, or a TradeToRoot bumped
	// the direct count): roll back. Unseal before publishing the open
	// gate — arrivals check the gate before touching a slot.
	s.unsealSlots()
	s.clearPending()
	return false
}

func (s *Sharded) clearPending() {
	for {
		g := s.gate.Load()
		if s.gate.CompareAndSwap(g, g&^gatePending) {
			return
		}
	}
}

// OpenIfNoWaiters implements Indicator. Unlike Open it may race a
// marker, so the step out of closed+drained is a CAS; from there the
// caller is the gate's only writer again (markers, closers and arrivals
// all wait out pending).
func (s *Sharded) OpenIfNoWaiters() bool {
	g := s.gate.Load()
	if g&^gateEpochMask != gateClosed|gateDrained {
		return false
	}
	epoch := (g&gateEpochMask + gateEpochInc) & gateEpochMask
	if !s.gate.CompareAndSwap(g, epoch|gatePending) {
		return false // a waiter marked the gate under us
	}
	s.resetSlots()
	s.gate.Store(epoch)
	s.stats.Inc(obs.CSNZIOpen, 0)
	return true
}

// Open implements Indicator.
func (s *Sharded) Open() {
	s.openWithArrivals(0, false)
}

// OpenWithArrivals implements Indicator.
func (s *Sharded) OpenWithArrivals(cnt int, close bool) {
	if cnt < 0 || uint64(cnt) > gateDirectMask {
		panic(fmt.Sprintf("rind: OpenWithArrivals count %d out of range", cnt))
	}
	s.openWithArrivals(cnt, close)
}

func (s *Sharded) openWithArrivals(cnt int, close bool) {
	g := s.gate.Load()
	if g&^(gateEpochMask|gateWaiters) != gateClosed|gateDrained {
		panic(fmt.Sprintf("rind: Open on %s", s.describe(g)))
	}
	s.stats.Inc(obs.CSNZIOpen, 0)
	epoch := g & gateEpochMask
	w := uint64(cnt)
	if close {
		if w == 0 {
			return // identity: stays write-acquired
		}
		// Handed-off direct arrivals under a still-closed gate; the
		// slots stay sealed (so their sums cannot move) and the last
		// direct departer re-drains, all within the same close epoch.
		s.gate.Store(gateClosed | g&gateWaiters | epoch | w)
		return
	}
	// Open transition: bump the close epoch, retiring any drain claim
	// still in flight from the epoch that just ended, and reset the
	// slot pairs under the pending state so concurrent closers wait and
	// arrivals spin (a plain reset would race a closer's seals). The
	// owner of a drained indicator is the only possible gate writer
	// here (markers are the caller's to exclude), so plain stores
	// suffice for the gate itself.
	epoch = (epoch + gateEpochInc) & gateEpochMask
	s.gate.Store(epoch | gatePending)
	s.resetSlots()
	s.gate.Store(epoch | w)
}

// resetSlots zeroes every slot pair for a new open epoch; the caller
// holds the gate pending. Per slot the egress resets before the
// ingress: the ingress store also unseals, and a stale arriver may CAS
// the slot the moment it is unsealed.
func (s *Sharded) resetSlots() {
	for i := range s.slots {
		sl := &s.slots[i]
		sl.egress.Store(0)
		sl.ingress.Store(0)
	}
}

// DirectTicket implements Indicator.
func (s *Sharded) DirectTicket() Ticket { return Direct }

// TradeToRoot implements Indicator: the held slot arrival moves into
// the gate's direct count (direct count up first, then the slot
// departure — the order keeps the total surplus visibly nonzero, so a
// concurrent summer can never claim a spurious drain).
func (s *Sharded) TradeToRoot(t Ticket) Ticket {
	switch {
	case t == Direct:
		return t
	case !t.Tree():
		panic("rind: TradeToRoot with failed ticket")
	}
	ld := s.pol.Ladder()
	for {
		g := s.gate.Load()
		if g&gateDirectMask == gateDirectMask {
			panic("rind: direct-arrival count overflow")
		}
		if s.gate.CompareAndSwap(g, g+1) {
			break
		}
		ld.Pause()
	}
	s.slots[t.Index()].egress.Add(1)
	return Direct
}

// SoleDirect implements Indicator.
func (s *Sharded) SoleDirect() bool {
	return s.gate.Load()&gateDirectMask == 1 && s.quickSum() == 0
}

// TryUpgrade implements Indicator: probe via pending (stalling
// arrivals), seal and sum, and either commit — consuming the caller's
// direct arrival, keeping the waiters flag — or roll back.
func (s *Sharded) TryUpgrade() bool {
	ld := s.pol.Ladder()
	var g uint64
	for {
		g = s.gate.Load()
		if g&gateDirectMask != 1 {
			return false
		}
		if g&gatePending != 0 {
			ld.Pause()
			continue
		}
		if s.gate.CompareAndSwap(g, g|gatePending) {
			break
		}
		ld.Pause()
	}
	wasClosed := g&gateClosed != 0
	if s.sumSealed() == 0 && s.gate.CompareAndSwap(g|gatePending, g&(gateEpochMask|gateWaiters)|gateClosed|gateDrained) {
		s.sealed(g)
		return true // sole arrival consumed; write-acquired
	}
	if !wasClosed {
		// Our probe did the sealing; a closed gate's seals belong to
		// the closer and stay.
		s.unsealSlots()
	}
	s.clearPending()
	return false
}

func (s *Sharded) describe(g uint64) string {
	state := "OPEN"
	if g&gateClosed != 0 {
		state = "CLOSED"
	}
	if g&gatePending != 0 {
		state += "+PENDING"
	}
	if g&gateDrained != 0 {
		state += "+DRAINED"
	}
	if g&gateWaiters != 0 {
		state += "+WAITERS"
	}
	return fmt.Sprintf("Sharded{state=%s epoch=%d direct=%d slots=%d}",
		state, (g&gateEpochMask)>>gateEpochShift, g&gateDirectMask, s.quickSum())
}

// Shards returns the slot count (diagnostic).
func (s *Sharded) Shards() int { return len(s.slots) }
