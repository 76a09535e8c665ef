package simlock

import (
	"fmt"

	"ollock/internal/obs"
	"ollock/internal/sim"
)

// Indicator is the simulated counterpart of rind.Indicator: the
// closable read indicator the simulated OLL locks are built over. The
// method set is the subset the lock ports use (the simulator has no
// upgrade path), with every operation taking the calling thread's Ctx
// so its memory accesses are charged. SetStats and InitClosed are
// host-side setup calls, free in virtual time.
type Indicator interface {
	// SetStats attaches the obs counter block the containing lock
	// shares with its indicators (csnzi.* counter names).
	SetStats(st *obs.Stats)
	// InitClosed sets the indicator to closed with zero surplus before
	// the simulation starts (ring-pool nodes start closed).
	InitClosed()
	// Arrive attempts an arrival; it fails iff the indicator is closed.
	Arrive(c *sim.Ctx, id int) Ticket
	// Depart returns false iff the indicator ends closed with zero
	// surplus (the caller must hand the lock over).
	Depart(c *sim.Ctx, t Ticket) bool
	// Query returns (surplus nonzero, open).
	Query(c *sim.Ctx) (nonzero, open bool)
	// QueryOpenSpin parks until the indicator is open.
	QueryOpenSpin(c *sim.Ctx)
	// Close transitions open -> closed; true iff the closer acquired
	// the indicator outright (surplus was zero).
	Close(c *sim.Ctx) bool
	// CloseIfEmpty closes only an open, zero-surplus indicator.
	CloseIfEmpty(c *sim.Ctx) bool
	// Open reopens a closed, zero-surplus indicator.
	Open(c *sim.Ctx)
	// OpenWithArrivals opens, performs cnt direct arrivals, and
	// optionally closes again, atomically.
	OpenWithArrivals(c *sim.Ctx, cnt int, close bool)
}

// IndicatorFactory constructs one simulated read indicator on machine m
// sized for maxProcs threads. The simulated locks take factories the
// same way the real FOLL/ROLL do (one indicator per ring node).
type IndicatorFactory func(m *sim.Machine, maxProcs int) Indicator

// CSNZIIndicator is the default factory: the paper's C-SNZI tree with
// the topology-tuned §5.1 shape.
func CSNZIIndicator(m *sim.Machine, maxProcs int) Indicator {
	return NewCSNZI(m, DefaultCSNZIConfig(m, maxProcs))
}

// CentralIndicator builds the degenerate centralized indicator — the
// C-SNZI with its tree disabled (mirrors rind.NewCentral): every reader
// CASes one word, the bottleneck the paper's introduction criticizes.
func CentralIndicator(m *sim.Machine, maxProcs int) Indicator {
	return NewCSNZI(m, CSNZIConfig{Direct: true})
}

// Gate word layout (mirrors rind.Sharded): bit 63 closed, bit 62
// drained, bit 61 pending, bits 31-60 the close-epoch counter (bumped
// on every open transition so a stale drain-claim CAS from a prior
// close epoch can never succeed — see rind.Sharded's layout comment for
// the ABA this prevents), low 31 bits the direct-arrival count. Slot
// ingress words carry bit 63 as the seal flag.
const (
	sgClosed     = uint64(1) << 63
	sgDrained    = uint64(1) << 62
	sgPending    = uint64(1) << 61
	sgEpochShift = 31
	sgEpochMask  = ((uint64(1) << 30) - 1) << sgEpochShift
	sgEpochInc   = uint64(1) << sgEpochShift
	sgDirectMask = (uint64(1) << 31) - 1
	slotSealed   = uint64(1) << 63
)

// ShardedInd is the simulated sharded ingress/egress indicator
// (mirrors rind.Sharded): per-core ingress/egress counter pairs behind
// a closable gate word. Readers stripe across slots and touch only
// their core's pair; closers seal every slot and sum, and the drained
// bit's CAS makes the drain observation exactly-once. See the real
// implementation for the full protocol discussion; this port issues the
// same pattern of shared accesses so the simulator charges the same
// coherence costs.
type ShardedInd struct {
	gate   *sim.Word
	ing    []*sim.Word // per-slot cumulative arrivals + seal bit
	eg     []*sim.Word // per-slot cumulative departures
	slotOf []int       // thread id -> slot
	stats  *obs.Stats
}

// ShardedIndicator allocates an open sharded ingress/egress indicator
// on m with one slot per core used by maxProcs threads.
func ShardedIndicator(m *sim.Machine, maxProcs int) Indicator {
	if maxProcs < 1 {
		maxProcs = 1
	}
	mc := m.Config()
	n := (maxProcs + mc.ThreadsPerCore - 1) / mc.ThreadsPerCore
	s := &ShardedInd{gate: m.NewWord(0)}
	for i := 0; i < n; i++ {
		s.ing = append(s.ing, m.NewWord(0))
		s.eg = append(s.eg, m.NewWord(0))
	}
	s.slotOf = make([]int, maxProcs)
	for id := range s.slotOf {
		s.slotOf[id] = (id / mc.ThreadsPerCore) % n
	}
	return s
}

// SetStats implements Indicator.
func (s *ShardedInd) SetStats(st *obs.Stats) { s.stats = st }

// InitClosed implements Indicator. The slots start unsealed; the first
// sum under the closed gate seals them (sealing is idempotent help).
func (s *ShardedInd) InitClosed() { s.gate.Init(sgClosed | sgDrained) }

// Arrive implements Indicator. Slot arrivals count as tree arrivals
// (the slot array plays the tree's role); like the real rind.Sharded,
// csnzi.cas.retry is not emitted.
func (s *ShardedInd) Arrive(c *sim.Ctx, id int) Ticket {
	slot := s.slotOf[id%len(s.slotOf)]
	for {
		g := c.Load(s.gate)
		if g&sgClosed != 0 {
			s.stats.Inc(obs.CSNZIArriveFail, id)
			return TicketFailed
		}
		if g&sgPending != 0 {
			// A probe or open-transition is deciding; wait it out.
			c.SpinUntil(s.gate, func(v uint64) bool { return v&sgPending == 0 })
			continue
		}
		for {
			x := c.Load(s.ing[slot])
			if x&slotSealed != 0 {
				break // sealed under us: re-read the gate
			}
			if c.CAS(s.ing[slot], x, x+1) {
				s.stats.Inc(obs.CSNZIArriveTree, id)
				return Ticket(slot)
			}
		}
	}
}

// Depart implements Indicator.
func (s *ShardedInd) Depart(c *sim.Ctx, t Ticket) bool {
	switch {
	case t == TicketDirect:
		return s.departDirect(c)
	case t >= 0:
		c.Add(s.eg[t], 1)
		g := c.Load(s.gate)
		if g&sgClosed == 0 {
			return true
		}
		return !s.tryDrain(c, g)
	default:
		panic("simlock: Depart with failed ticket")
	}
}

func (s *ShardedInd) departDirect(c *sim.Ctx) bool {
	for {
		g := c.Load(s.gate)
		if g&sgDirectMask == 0 {
			panic("simlock: direct Depart without matching arrival")
		}
		ng := g - 1
		if c.CAS(s.gate, g, ng) {
			if ng&sgClosed == 0 || ng&sgDirectMask != 0 {
				return true
			}
			return !s.tryDrain(c, ng)
		}
	}
}

// tryDrain attempts to claim the drained state of a closed gate whose
// word was read as g; true iff this call won the claim. The claim CAS
// carries g's close epoch, so a stale claim can never land on a later
// epoch's gate.
func (s *ShardedInd) tryDrain(c *sim.Ctx, g uint64) bool {
	epoch := g & sgEpochMask
	for {
		if g&sgDrained != 0 || g&sgDirectMask != 0 {
			return false
		}
		if s.sumSealed(c) != 0 {
			return false
		}
		if c.CAS(s.gate, g, g|sgDrained) {
			return true
		}
		g = c.Load(s.gate)
		if g&sgClosed == 0 || g&sgEpochMask != epoch {
			return false
		}
	}
}

// sumSealed seals every slot (idempotent help) and returns the summed
// surplus; per slot the egress is read first so the frozen surplus can
// only be overestimated.
func (s *ShardedInd) sumSealed(c *sim.Ctx) uint64 {
	var total uint64
	for i := range s.ing {
		for {
			x := c.Load(s.ing[i])
			if x&slotSealed != 0 || c.CAS(s.ing[i], x, x|slotSealed) {
				break
			}
		}
		e := c.Load(s.eg[i])
		in := c.Load(s.ing[i]) &^ slotSealed
		total += in - e
	}
	return total
}

func (s *ShardedInd) unsealSlots(c *sim.Ctx) {
	for i := range s.ing {
		for {
			x := c.Load(s.ing[i])
			if x&slotSealed == 0 || c.CAS(s.ing[i], x, x&^slotSealed) {
				break
			}
		}
	}
}

// quickSum is the advisory (unsealed, racy) surplus estimate.
func (s *ShardedInd) quickSum(c *sim.Ctx) uint64 {
	var total uint64
	for i := range s.ing {
		e := c.Load(s.eg[i])
		in := c.Load(s.ing[i]) &^ slotSealed
		total += in - e
	}
	return total
}

// Query implements Indicator. Pending reports open, as in the real
// implementation (a probe in flight has not closed anything yet).
func (s *ShardedInd) Query(c *sim.Ctx) (bool, bool) {
	g := c.Load(s.gate)
	return g&sgDirectMask != 0 || s.quickSum(c) != 0, g&sgClosed == 0
}

// QueryOpenSpin implements Indicator.
func (s *ShardedInd) QueryOpenSpin(c *sim.Ctx) {
	c.SpinUntil(s.gate, func(v uint64) bool { return v&sgClosed == 0 })
}

// Close implements Indicator.
func (s *ShardedInd) Close(c *sim.Ctx) bool {
	for {
		g := c.Load(s.gate)
		if g&sgClosed != 0 {
			return false
		}
		if g&sgPending != 0 {
			c.SpinUntil(s.gate, func(v uint64) bool { return v&sgPending == 0 })
			continue
		}
		if c.CAS(s.gate, g, g|sgClosed) {
			s.stats.Inc(obs.CSNZIClose, 0)
			return s.tryDrain(c, g|sgClosed)
		}
	}
}

// CloseIfEmpty implements Indicator: probe via pending, seal and sum,
// commit or roll back.
func (s *ShardedInd) CloseIfEmpty(c *sim.Ctx) bool {
	g := c.Load(s.gate)
	if g&^sgEpochMask != 0 || s.quickSum(c) != 0 {
		return false
	}
	if !c.CAS(s.gate, g, g|sgPending) {
		return false
	}
	if s.sumSealed(c) == 0 && c.CAS(s.gate, g|sgPending, g|sgClosed|sgDrained) {
		s.stats.Inc(obs.CSNZIClose, 0)
		return true // slots stay sealed while closed
	}
	s.unsealSlots(c)
	s.clearPending(c)
	return false
}

func (s *ShardedInd) clearPending(c *sim.Ctx) {
	for {
		g := c.Load(s.gate)
		if c.CAS(s.gate, g, g&^sgPending) {
			return
		}
	}
}

// Open implements Indicator.
func (s *ShardedInd) Open(c *sim.Ctx) { s.OpenWithArrivals(c, 0, false) }

// OpenWithArrivals implements Indicator.
func (s *ShardedInd) OpenWithArrivals(c *sim.Ctx, cnt int, close bool) {
	s.stats.Inc(obs.CSNZIOpen, 0)
	g := c.Load(s.gate)
	if g&^sgEpochMask != sgClosed|sgDrained {
		panic(fmt.Sprintf("simlock: sharded Open on gate=%#x", g))
	}
	epoch := g & sgEpochMask
	w := uint64(cnt)
	if close {
		if w == 0 {
			return // identity: stays write-acquired
		}
		c.Store(s.gate, sgClosed|epoch|w)
		return
	}
	// Open transition: bump the close epoch (retiring stale drain
	// claims) and reset the slot pairs under pending; per slot the
	// egress resets before the ingress (the ingress store also unseals).
	epoch = (epoch + sgEpochInc) & sgEpochMask
	c.Store(s.gate, epoch|sgPending)
	for i := range s.ing {
		c.Store(s.eg[i], 0)
		c.Store(s.ing[i], 0)
	}
	c.Store(s.gate, epoch|w)
}
