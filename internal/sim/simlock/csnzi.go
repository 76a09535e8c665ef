// Package simlock ports every reader-writer lock in this module onto the
// discrete-event simulator (package sim), so the paper's Figure 5 — five
// locks, 1 to 256 hardware threads on a 4-chip machine — can be
// regenerated on any host. Each port issues the same pattern of shared
// memory accesses as its real counterpart; the simulator charges each
// access its coherence cost, which is where all of Figure 5's phenomena
// come from.
package simlock

import (
	"fmt"

	"ollock/internal/obs"
	"ollock/internal/sim"
)

// C-SNZI root word layout: identical to the real implementation
// (internal/csnzi): bit 63 closed, bits 31..61 tree count, bits 0..30
// direct count.
const (
	closedBit = uint64(1) << 63
	treeOne   = uint64(1) << 31
	count31   = (uint64(1) << 31) - 1
)

func csDirect(w uint64) uint64 { return w & count31 }
func csTree(w uint64) uint64   { return (w >> 31) & count31 }
func csClosed(w uint64) bool   { return w&closedBit != 0 }
func csSurplus(w uint64) uint64 {
	return csDirect(w) + csTree(w)
}

// Tree-node word layout: low bits count, plus two transient flags
// implementing the intermediate-state optimization the paper's
// implementation uses (§2.2, "required to reduce the contention on the
// root node ... does not add any additional CompareAndSwap operations"):
//
//   - halfBit: a zero-crossing arrival is in flight. The thread that
//     CASes 0 -> halfBit|1 (the claimer) performs the single parent
//     arrival. Concurrent arrivers do NOT race to the parent and do NOT
//     park either — they count themselves provisionally (CAS +1 under
//     halfBit) and wait for the resolution. Provisional counting is what
//     keeps the node's surplus accumulating during the (long) parent
//     arrival; parking instead would drain the group and re-trigger a
//     propagation on every acquire/release cycle.
//   - failBit: the parent arrival failed (C-SNZI closed with no
//     surplus). Provisional arrivers un-count themselves and fail; the
//     last one returns the node to zero.
const (
	halfBit       = uint64(1) << 62
	failBit       = uint64(1) << 63
	nodeCountMask = halfBit - 1
)

// Ticket identifies where a simulated arrival landed.
type Ticket int

// Ticket values: failed, direct (root), or a leaf index.
const (
	TicketFailed Ticket = -2
	TicketDirect Ticket = -1
)

// Arrived reports whether the arrival succeeded.
func (t Ticket) Arrived() bool { return t != TicketFailed }

// csNode is one tree node; parent < 0 means its parent is the root
// word.
type csNode struct {
	w      *sim.Word
	parent int
}

// CSNZI is the simulated closable scalable nonzero indicator, shaped by
// the machine topology the way a tuned implementation on the T5440
// would be: one leaf per core (its threads share the leaf through the
// core's L1, keeping the surplus mostly nonzero), one intermediate node
// per chip (leaf zero-crossings propagate only on-chip), and the root
// above the chips (written only when an entire chip's surplus drains —
// rare, so root reads stay cached and readers scale).
type CSNZI struct {
	root   *sim.Word
	nodes  []csNode // leaves first, then chip nodes
	leafOf []int    // thread id -> leaf node index (-1 = use root)

	// stats mirrors the real implementation's csnzi.* counters (see
	// internal/obs). Host-side, so free in virtual time; single-striped
	// because the simulation is single-threaded.
	stats *obs.Stats
}

// SetStats attaches the obs counter block a containing lock shares
// with its C-SNZIs, mirroring csnzi.CSNZI.SetStats.
func (s *CSNZI) SetStats(st *obs.Stats) { s.stats = st }

// InitClosed sets the root to closed with zero surplus before the
// simulation starts (host-side; ring-pool nodes start closed).
func (s *CSNZI) InitClosed() { s.root.Init(closedBit) }

// CSNZIConfig sizes a simulated C-SNZI.
type CSNZIConfig struct {
	// Direct disables the tree entirely: all arrivals go to the root
	// word (the right choice when all participants share one core).
	Direct bool
	// Threads is the number of participating thread ids (0..Threads-1).
	Threads int
}

// DefaultCSNZIConfig picks the §5.1-style tuning for the topology: the
// tree is disabled while every participant fits in one core, and
// otherwise shaped core-leaves/chip-nodes/root as described on CSNZI.
func DefaultCSNZIConfig(m *sim.Machine, threads int) CSNZIConfig {
	return CSNZIConfig{
		Direct:  threads <= m.Config().ThreadsPerCore,
		Threads: threads,
	}
}

// NewCSNZI allocates an open simulated C-SNZI on machine m.
func NewCSNZI(m *sim.Machine, cfg CSNZIConfig) *CSNZI {
	s := &CSNZI{root: m.NewWord(0)}
	if cfg.Direct || cfg.Threads <= 0 {
		return s
	}
	mc := m.Config()
	coresPerChip := mc.ThreadsPerChip / mc.ThreadsPerCore
	nCores := (cfg.Threads + mc.ThreadsPerCore - 1) / mc.ThreadsPerCore
	nChips := (nCores + coresPerChip - 1) / coresPerChip

	// Chip nodes (parents of leaves) come after the leaves in s.nodes.
	for core := 0; core < nCores; core++ {
		s.nodes = append(s.nodes, csNode{w: m.NewWord(0), parent: nCores + core/coresPerChip})
	}
	for chip := 0; chip < nChips; chip++ {
		parent := -1 // root
		s.nodes = append(s.nodes, csNode{w: m.NewWord(0), parent: parent})
	}
	if nChips == 1 {
		// Single chip: skip the intermediate layer, leaves hang off the
		// root directly (no benefit from an extra hop).
		s.nodes = s.nodes[:nCores]
		for i := range s.nodes {
			s.nodes[i].parent = -1
		}
	}
	s.leafOf = make([]int, cfg.Threads)
	for id := range s.leafOf {
		s.leafOf[id] = id / mc.ThreadsPerCore
	}
	return s
}

// Arrive mirrors csnzi.CSNZI.Arrive with the tuned policy: direct root
// arrival when the tree is disabled, leaf arrival otherwise.
func (s *CSNZI) Arrive(c *sim.Ctx, id int) Ticket {
	if len(s.nodes) == 0 {
		for {
			old := c.Load(s.root)
			if csClosed(old) {
				s.stats.Inc(obs.CSNZIArriveFail, id)
				return TicketFailed
			}
			if c.CAS(s.root, old, old+1) {
				s.stats.Inc(obs.CSNZIArriveRoot, id)
				return TicketDirect
			}
			s.stats.Inc(obs.CSNZICASRetry, id)
		}
	}
	if csClosed(c.Load(s.root)) {
		s.stats.Inc(obs.CSNZIArriveFail, id)
		return TicketFailed
	}
	leaf := s.leafOf[id%len(s.leafOf)]
	if s.treeArrive(c, leaf) {
		s.stats.Inc(obs.CSNZIArriveTree, id)
		return Ticket(leaf)
	}
	s.stats.Inc(obs.CSNZIArriveFail, id)
	return TicketFailed
}

// treeArrive increments node idx. A zero-crossing is claimed with the
// intermediate state so exactly one thread performs the parent arrival;
// concurrent arrivers count themselves provisionally and await the
// resolution.
func (s *CSNZI) treeArrive(c *sim.Ctx, idx int) bool {
	n := s.nodes[idx]
	for {
		x := c.Load(n.w)
		switch {
		case x&failBit != 0:
			// A failed zero-crossing is unwinding; wait it out.
			c.SpinUntil(n.w, func(v uint64) bool { return v&failBit == 0 })
			continue

		case x&halfBit != 0:
			// Zero-crossing in flight: join provisionally.
			if !c.CAS(n.w, x, x+1) {
				continue
			}
			// Wait for the claimer's resolution.
			v := c.SpinUntil(n.w, func(v uint64) bool { return v&halfBit == 0 })
			if v&failBit == 0 {
				return true // parent arrival succeeded; we are counted
			}
			// Failed: un-count ourselves; the last leaver zeroes the node.
			for {
				x := c.Load(n.w)
				cnt := x & nodeCountMask
				var next uint64
				if cnt == 1 {
					next = 0
				} else {
					next = failBit | (cnt - 1)
				}
				if c.CAS(n.w, x, next) {
					return false
				}
			}

		case x > 0:
			if c.CAS(n.w, x, x+1) {
				return true
			}

		default: // x == 0: claim the zero-crossing
			if !c.CAS(n.w, 0, halfBit|1) {
				continue
			}
			var ok bool
			if n.parent < 0 {
				ok = s.rootTreeArrive(c)
			} else {
				ok = s.treeArrive(c, n.parent)
			}
			// Resolve: clear halfBit on success; on failure un-count
			// ourselves and hand the unwind to any provisionals.
			for {
				x := c.Load(n.w)
				cnt := x & nodeCountMask
				var next uint64
				if ok {
					next = cnt
				} else if cnt == 1 {
					next = 0
				} else {
					next = failBit | (cnt - 1)
				}
				if c.CAS(n.w, x, next) {
					return ok
				}
			}
		}
	}
}

// treeDepart decrements node idx, propagating the zero-crossing to the
// parent. A departer can never observe the intermediate state: its own
// outstanding arrival keeps the count >= 1.
func (s *CSNZI) treeDepart(c *sim.Ctx, idx int) bool {
	n := s.nodes[idx]
	for {
		x := c.Load(n.w)
		if c.CAS(n.w, x, x-1) {
			if x == 1 {
				if n.parent < 0 {
					return s.rootTreeDepart(c)
				}
				return s.treeDepart(c, n.parent)
			}
			return true
		}
	}
}

func (s *CSNZI) rootTreeArrive(c *sim.Ctx) bool {
	for {
		old := c.Load(s.root)
		if old == closedBit {
			return false
		}
		if c.CAS(s.root, old, old+treeOne) {
			return true
		}
	}
}

func (s *CSNZI) rootTreeDepart(c *sim.Ctx) bool {
	for {
		old := c.Load(s.root)
		if c.CAS(s.root, old, old-treeOne) {
			return old-treeOne != closedBit
		}
	}
}

// Depart mirrors csnzi.CSNZI.Depart: returns false iff the C-SNZI ends
// closed with zero surplus.
func (s *CSNZI) Depart(c *sim.Ctx, t Ticket) bool {
	switch {
	case t == TicketDirect:
		for {
			old := c.Load(s.root)
			if c.CAS(s.root, old, old-1) {
				return old-1 != closedBit
			}
		}
	case t >= 0:
		return s.treeDepart(c, int(t))
	default:
		panic("simlock: Depart with failed ticket")
	}
}

// Close mirrors csnzi.CSNZI.Close.
func (s *CSNZI) Close(c *sim.Ctx) bool {
	for {
		old := c.Load(s.root)
		if csClosed(old) {
			return false
		}
		new := old | closedBit
		if c.CAS(s.root, old, new) {
			s.stats.Inc(obs.CSNZIClose, 0)
			return new == closedBit
		}
	}
}

// CloseIfEmpty mirrors csnzi.CSNZI.CloseIfEmpty.
func (s *CSNZI) CloseIfEmpty(c *sim.Ctx) bool {
	for {
		old := c.Load(s.root)
		if old != 0 {
			return false
		}
		if c.CAS(s.root, 0, closedBit) {
			s.stats.Inc(obs.CSNZIClose, 0)
			return true
		}
	}
}

// Open mirrors csnzi.CSNZI.Open.
func (s *CSNZI) Open(c *sim.Ctx) {
	if old := c.Load(s.root); old != closedBit {
		panic(fmt.Sprintf("simlock: Open on root=%#x", old))
	}
	s.stats.Inc(obs.CSNZIOpen, 0)
	c.Store(s.root, 0)
}

// OpenWithArrivals mirrors csnzi.CSNZI.OpenWithArrivals; the arrivals
// are direct.
func (s *CSNZI) OpenWithArrivals(c *sim.Ctx, cnt int, close bool) {
	s.stats.Inc(obs.CSNZIOpen, 0)
	w := uint64(cnt)
	if close {
		w |= closedBit
	}
	c.Store(s.root, w)
}

// Query returns (surplus nonzero, open). Surplus is read from the root,
// which is nonzero iff any node is (the SNZI tree invariant).
func (s *CSNZI) Query(c *sim.Ctx) (bool, bool) {
	w := c.Load(s.root)
	return csSurplus(w) > 0, !csClosed(w)
}

// QueryOpenSpin parks until the C-SNZI is open (used by the FOLL/ROLL
// writer waiting out the enqueue/Open recycling window).
func (s *CSNZI) QueryOpenSpin(c *sim.Ctx) {
	c.SpinUntil(s.root, func(v uint64) bool { return !csClosed(v) })
}
