// Package csnzi implements the closable scalable nonzero indicator
// (C-SNZI), the core data structure of "Scalable Reader-Writer Locks"
// (Lev, Luchangco, Olszewski, SPAA 2009).
//
// A C-SNZI extends a SNZI (package snzi) with Open and Close: while
// closed, Arrive operations fail and do not change the surplus, so once
// a closed C-SNZI's surplus drains to zero it stays zero until reopened.
// The reader-writer locks in this module use it as their entire lock
// state: readers Arrive/Depart, writers Close/Open.
//
//	lock free            = open, surplus 0
//	write-acquired       = closed, surplus 0
//	read-acquired        = surplus > 0 (open, or closed when a writer waits)
//
// # Implementation
//
// The root is a single CAS-able 64-bit word packing the open/closed bit
// and two counters: arrivals made directly at the root and arrivals
// propagated up from the leaf tree. Two counters (rather than the single
// count of the paper's Figure 2 pseudocode) implement both the
// performance refinement of §5.1 — the arrival policy favors the cheap
// direct path until it observes contention or sees that other threads
// are already using the tree — and the write-upgrade support of §3.2.1,
// which must detect "I am the only reader" by checking direct == 1 and
// tree == 0.
//
// The leaf tree is allocated lazily, so uncontended C-SNZIs cost one
// word. Arrivals return a Ticket naming the node arrived at; the ticket
// must be passed back to Depart.
package csnzi

import (
	"fmt"
	"sync/atomic"

	"ollock/internal/atomicx"
	"ollock/internal/obs"
)

// Root word layout:
//
//	bit  63     : closed flag (set = CLOSED)
//	bit  62     : waiters flag (set only while closed; see MarkWaiters)
//	bits 31..61 : tree-arrival count (31 bits)
//	bits 0..30  : direct-arrival count (31 bits)
//
// "Write-acquired" (closed, surplus zero) is therefore the word value
// closedBit give or take the waiters flag, which keeps the hot-path
// tests in Depart and treeArrive one AND and one compare; and "write-
// acquired with nobody queued" is the exact value closedBit, which is
// what lets OpenIfNoWaiters release with a single CAS.
//
// The waiters flag is the Solaris lockword's RW_HAS_WAITERS: the lock
// built on this word sets it, in the same atomic step that confirms the
// word is closed, before a thread queues behind the closer. The C-SNZI
// itself only carries it: every transition to open clears it, every
// transition between closed states preserves it, and no arrival,
// departure or drain test depends on it.
const (
	closedBit  = uint64(1) << 63
	waitersBit = uint64(1) << 62
	treeOne    = uint64(1) << 31
	count31    = (uint64(1) << 31) - 1
	directMask = count31
	treeMask   = count31 << 31
)

func directCount(w uint64) uint64 { return w & directMask }
func treeCount(w uint64) uint64   { return (w >> 31) & count31 }
func isClosed(w uint64) bool      { return w&closedBit != 0 }
func hasWaiters(w uint64) bool    { return w&waitersBit != 0 }
func surplus(w uint64) uint64     { return directCount(w) + treeCount(w) }

// writeAcquired reports whether w is closed with zero surplus, with or
// without the waiters flag.
func writeAcquired(w uint64) bool { return w&^waitersBit == closedBit }

// CSNZI is a closable scalable nonzero indicator. Use New. A CSNZI is
// initially open with zero surplus.
type CSNZI struct {
	root    atomicx.PaddedUint64
	tree    atomic.Pointer[tree]
	leaves  int
	fanout  int
	retries int
	// stats is the optional instrumentation block (nil = off; every
	// obs call on it is then an inlined no-op branch).
	stats *obs.Stats
}

// node is a leaf or interior counter. parent == nil means its parent is
// the root word.
//
// The count word carries two transient flag bits implementing the
// intermediate-state optimization of the underlying SNZI algorithm,
// which §2.2 references ("required to reduce the contention on the root
// node ... does not add any additional CompareAndSwap operations") and
// which the paper's own implementation uses:
//
//   - halfBit: a zero-crossing arrival is in flight. The claimer (the
//     thread that CASed 0 -> halfBit|1) performs the single parent
//     arrival; concurrent arrivers join provisionally (CAS +1 under the
//     flag) and wait for the resolution rather than racing to the
//     parent. Provisional joining both caps parent traffic at one
//     operation per zero-crossing and keeps the node's surplus
//     accumulating while the parent arrival is in flight.
//   - failBit: the parent arrival failed (C-SNZI closed, no surplus);
//     provisional joiners un-count themselves, the last one returning
//     the node to zero.
//
// A departer can never observe either flag: its own outstanding arrival
// keeps the plain count >= 1.
type node struct {
	_      atomicx.Pad
	cnt    atomic.Uint64
	_      [atomicx.CacheLineSize - 8]byte
	parent *node
	owner  *CSNZI
}

// Node count-word flags.
const (
	nodeHalfBit   = uint64(1) << 63
	nodeFailBit   = uint64(1) << 62
	nodeCountMask = nodeFailBit - 1
)

type tree struct {
	leaves []node
	// inner holds intermediate layers, one slice per layer so parent
	// pointers into a layer stay valid as further layers are added.
	inner [][]node
}

// Option configures a CSNZI at construction.
type Option func(*CSNZI)

// WithLeaves sets the number of leaf nodes. Zero disables the tree, which
// degenerates the C-SNZI into the centralized lockword of the Solaris
// lock — useful for ablation.
func WithLeaves(n int) Option { return func(c *CSNZI) { c.leaves = n } }

// WithFanout bounds the children per interior node; values >= the leaf
// count give the flat root+leaves shape of the paper's Figure 2.
func WithFanout(n int) Option { return func(c *CSNZI) { c.fanout = n } }

// WithDirectRetries sets how many failed direct root CASes an Arrive
// tolerates before diverting to the tree (the "failed several times"
// policy of §2.2).
func WithDirectRetries(n int) Option { return func(c *CSNZI) { c.retries = n } }

// WithStats attaches an instrumentation block (see internal/obs);
// the C-SNZI then counts root vs. tree arrivals, failed arrivals,
// CAS retries, and close/open transitions under the csnzi.* names.
func WithStats(s *obs.Stats) Option { return func(c *CSNZI) { c.stats = s } }

// SetStats attaches an instrumentation block after construction. It
// must be called before the C-SNZI is shared between goroutines.
func (c *CSNZI) SetStats(s *obs.Stats) { c.stats = s }

// RootFirst reports whether an ArriveRoot in front of ArriveLocal is
// the arrival ArriveLocal would have made itself: the policy tries the
// root before the tree, and st — the block the caller counts its inline
// arrivals into — is the block this C-SNZI counts into.
func (c *CSNZI) RootFirst(st *obs.Stats) bool {
	return (c.leaves == 0 || c.retries > 0) && c.stats == st
}

// DefaultLeaves is the default tree width. It is sized for tens of
// hardware threads; widen it on bigger machines via WithLeaves.
const DefaultLeaves = 32

// New returns an open C-SNZI with zero surplus.
func New(opts ...Option) *CSNZI {
	c := &CSNZI{leaves: DefaultLeaves, retries: 2}
	for _, o := range opts {
		o(c)
	}
	if c.fanout <= 0 {
		c.fanout = c.leaves
	}
	return c
}

// Ticket names the node an Arrive landed at, in one pointer-free word:
// 0 is a failed arrival, Direct the root word, and 2+i arrival point i
// of the indicator that issued it — a leaf here, a slot of
// rind.Sharded, which shares the type. Tickets are opaque: obtain them
// from Arrive or DirectTicket and pass them back to Depart (or
// TradeToRoot) on the same indicator.
type Ticket uint32

// Direct is the ticket of an arrival made at the root word.
const Direct Ticket = 1

// TicketAt returns the ticket naming arrival point i.
func TicketAt(i int) Ticket { return Ticket(i) + 2 }

// Index returns the arrival point a tree ticket names.
func (t Ticket) Index() int { return int(t - 2) }

// Arrived reports whether the Arrive operation that produced t
// succeeded.
func (t Ticket) Arrived() bool { return t != 0 }

// Direct reports whether t departs directly at the root.
func (t Ticket) Direct() bool { return t == Direct }

// Tree reports whether t names a distributed arrival point (a leaf or
// slot) rather than the root word.
func (t Ticket) Tree() bool { return t > Direct }

// DirectTicket constructs a ticket that departs from the root node. It
// is used by a reader that was woken by a releasing writer: the writer
// pre-arrived at the root on the reader's behalf via OpenWithArrivals.
func (c *CSNZI) DirectTicket() Ticket { return Direct }

// Arrive attempts to increment the surplus. It fails (returns a ticket
// for which Arrived is false) iff the C-SNZI is closed. The id parameter
// selects the leaf used under contention; pass a stable per-goroutine
// value so distinct goroutines hit distinct leaves.
//
// Policy (§2.2, §5.1): arrive directly at the root unless the direct CAS
// has already failed several times, or the tree count shows other
// threads are arriving through the tree (contention was recently
// observed), in which case arrive at this thread's leaf.
func (c *CSNZI) Arrive(id int) Ticket { return c.ArriveLocal(id, nil) }

// ArriveLocal is Arrive with the event accounting routed through the
// caller's per-proc buffer (obs.Local), so the arrival hot path does
// no shared-cell atomics. A nil lc falls back to the C-SNZI's own
// stats block (and to a no-op when that is nil too).
func (c *CSNZI) ArriveLocal(id int, lc *obs.Local) Ticket {
	failures := 0
	for {
		old := c.root.Load()
		if isClosed(old) {
			c.count(lc, obs.CSNZIArriveFail, id)
			return 0
		}
		if c.leaves > 0 && (treeCount(old) > 0 || failures >= c.retries) {
			i, leaf := c.leafFor(id)
			if leaf.treeArrive() {
				c.count(lc, obs.CSNZIArriveTree, id)
				return TicketAt(i)
			}
			c.count(lc, obs.CSNZIArriveFail, id)
			return 0
		}
		if c.root.CompareAndSwap(old, old+1) {
			c.count(lc, obs.CSNZIArriveRoot, id)
			return Direct
		}
		failures++
		c.count(lc, obs.CSNZICASRetry, id)
	}
}

// count records one event into the caller's buffer when it has one,
// else into the C-SNZI's shared stats block.
func (c *CSNZI) count(lc *obs.Local, e obs.Event, id int) {
	if lc != nil {
		lc.Inc(e)
		return
	}
	c.stats.Inc(e, id)
}

// ArriveRoot is the conflict-free arrival, small enough to inline: it
// succeeds, returning Direct, iff the root word is open with no tree
// arrivals (nobody has seen contention) and one CAS then lands.
// Anything else — closed, tree in use, a lost CAS, a nil receiver (an
// indicator that did not resolve to a C-SNZI; see rind.Root) — changes
// nothing, returns the failed ticket and is ArriveLocal's to handle:
// the caller falls into it, and counts a success as csnzi.arrive.root
// itself, exactly as ArriveLocal would have. A CAS lost here is attempt
// zero: uncounted, and not one of WithDirectRetries' tolerated failures.
func (c *CSNZI) ArriveRoot() Ticket {
	if c != nil {
		if w := c.root.Load(); w&^directMask == 0 && c.root.CompareAndSwap(w, w+1) {
			return Direct
		}
	}
	return 0
}

// Depart decrements the surplus. It returns false iff the resulting
// state is closed with zero surplus — i.e. the caller was the last
// departer from a closed C-SNZI and must hand the guarded resource to
// the closer. The ticket must come from a successful Arrive (or be a
// DirectTicket matched by an OpenWithArrivals), each ticket departing at
// most once per arrival.
func (c *CSNZI) Depart(t Ticket) bool {
	if t == Direct {
		return c.DepartRoot()
	}
	return c.leaf(t, "Depart").treeDepart()
}

// leaf returns the leaf a tree ticket names; op names the caller for
// the panic a ticket this C-SNZI cannot have issued gets — a failed
// one, or a tree ticket where there is no such leaf (a zero-leaf C-SNZI
// never builds a tree, so every tree ticket is foreign to it).
func (c *CSNZI) leaf(t Ticket, op string) *node {
	if !t.Tree() {
		panic("csnzi: " + op + " with failed ticket")
	}
	tr := c.tree.Load()
	if tr == nil || t.Index() >= len(tr.leaves) {
		panic("csnzi: " + op + " with foreign ticket")
	}
	return &tr.leaves[t.Index()]
}

// Query returns whether the C-SNZI has a surplus and whether it is open.
func (c *CSNZI) Query() (nonzero, open bool) {
	w := c.root.Load()
	return surplus(w) > 0, !isClosed(w)
}

// Close transitions the C-SNZI from open to closed. It returns true iff
// the state changed from OPEN to CLOSED with the surplus zero (and still
// zero: arrivals can no longer succeed) — for the locks, "true" means
// the closer acquired the lock for writing outright.
func (c *CSNZI) Close() bool {
	for {
		old := c.root.Load()
		if isClosed(old) {
			return false
		}
		if c.root.CompareAndSwap(old, old|closedBit) {
			c.stats.Inc(obs.CSNZIClose, 0)
			return old == 0
		}
	}
}

// CloseAndMark is Close for a closer that will queue unless it acquires
// outright: one CAS loop that leaves the C-SNZI closed and, unless the
// closer took it empty, flagged as having waiters — so there is no
// moment at which the word is closed on the caller's behalf but a
// releaser's OpenIfNoWaiters could still succeed. It returns true iff
// this call closed an open C-SNZI with zero surplus (the caller owns
// it; the flag stays clear). An already-closed C-SNZI is marked and
// false returned.
func (c *CSNZI) CloseAndMark() bool {
	for {
		old := c.root.Load()
		new := old | closedBit | waitersBit
		if old == 0 {
			new = closedBit
		}
		if new == old {
			return false
		}
		if c.root.CompareAndSwap(old, new) {
			if !isClosed(old) {
				c.stats.Inc(obs.CSNZIClose, 0)
			}
			return old == 0
		}
	}
}

// MarkWaiters sets the waiters flag iff the C-SNZI is closed, reporting
// whether it is (true also when the flag was already set). On an open
// C-SNZI it changes nothing and returns false: the caller's reason to
// queue is gone and it should retry its arrival.
func (c *CSNZI) MarkWaiters() bool {
	for {
		old := c.root.Load()
		if !isClosed(old) {
			return false
		}
		if hasWaiters(old) || c.root.CompareAndSwap(old, old|waitersBit) {
			return true
		}
	}
}

// OpenIfNoWaiters reopens a C-SNZI that is closed with zero surplus and
// no waiters flag, with one CAS, reporting whether it did. This is the
// writer's release fast path; on false the caller still owns the closed
// C-SNZI and must consult its queue.
func (c *CSNZI) OpenIfNoWaiters() bool {
	if c.root.CompareAndSwap(closedBit, 0) {
		c.stats.Inc(obs.CSNZIOpen, 0)
		return true
	}
	return false
}

// CloseIfEmpty closes the C-SNZI only if it is open with zero surplus,
// reporting whether it did. This is the writer fast path: one CAS
// acquires a free lock.
func (c *CSNZI) CloseIfEmpty() bool {
	for c.root.Load() == 0 {
		if c.root.CompareAndSwap(0, closedBit) {
			c.stats.Inc(obs.CSNZIClose, 0)
			return true
		}
	}
	return false
}

// Open reopens the C-SNZI, clearing the waiters flag. It requires (and
// panics otherwise) that the C-SNZI is closed with zero surplus, per the
// Figure 1 specification.
func (c *CSNZI) Open() {
	if w := c.root.Load(); !writeAcquired(w) {
		panic(fmt.Sprintf("csnzi: Open on %s", describe(w)))
	}
	c.stats.Inc(obs.CSNZIOpen, 0)
	c.root.Store(0)
}

// OpenWithArrivals atomically opens the C-SNZI, performs cnt direct
// arrivals, and, if close is set, closes it again (§2.1) — keeping the
// waiters flag, which an open result clears. The matching departures
// must use DirectTicket. Like Open it requires the C-SNZI to be closed
// with zero surplus. It panics if cnt is negative or exceeds the 31-bit
// counter range.
func (c *CSNZI) OpenWithArrivals(cnt int, close bool) {
	if cnt < 0 || uint64(cnt) > count31 {
		panic(fmt.Sprintf("csnzi: OpenWithArrivals count %d out of range", cnt))
	}
	old := c.root.Load()
	if !writeAcquired(old) {
		panic(fmt.Sprintf("csnzi: OpenWithArrivals on %s", describe(old)))
	}
	w := uint64(cnt)
	if close {
		w |= old // closedBit, and waitersBit if set
	}
	c.stats.Inc(obs.CSNZIOpen, 0)
	c.root.Store(w)
}

// --- Write-upgrade support (§3.2.1) ---

// TradeToRoot converts a tree ticket into a direct ticket by arriving
// directly at the root and then departing from the original node. After
// TradeToRoot the caller's surplus contribution is recorded in the
// direct counter, so SoleDirect can answer "am I the only arriver?".
//
// The caller must currently hold a successful arrival (surplus > 0), so
// the direct arrival is performed even if the C-SNZI is closed: it is an
// internal transfer, not a new logical arrival. Direct tickets are
// returned unchanged.
func (c *CSNZI) TradeToRoot(t Ticket) Ticket {
	if t == Direct {
		return t
	}
	n := c.leaf(t, "TradeToRoot")
	// Unconditional direct arrival: surplus is provably nonzero (we hold
	// an arrival), so this cannot resurrect a drained closed C-SNZI.
	for {
		old := c.root.Load()
		if c.root.CompareAndSwap(old, old+1) {
			break
		}
	}
	n.treeDepart()
	return Direct
}

// SoleDirect reports whether the direct counter is exactly one and the
// tree counter zero — i.e. whether a caller who holds a direct ticket is
// the only thread with an arrival.
func (c *CSNZI) SoleDirect() bool {
	w := c.root.Load()
	return directCount(w) == 1 && treeCount(w) == 0
}

// TryUpgrade attempts to atomically transition from "sole direct
// arrival" to "closed with zero surplus" (write-acquired), regardless of
// the current open/closed state. On success the caller's direct arrival
// is consumed (do not Depart it) and the caller owns the closed C-SNZI.
// It fails if any other arrival exists. The waiters flag carries over:
// a writer queued behind the upgrader's read hold is still queued
// behind its write hold.
func (c *CSNZI) TryUpgrade() bool {
	for {
		old := c.root.Load()
		if directCount(old) != 1 || treeCount(old) != 0 {
			return false
		}
		if c.root.CompareAndSwap(old, closedBit|old&waitersBit) {
			return true
		}
	}
}

// --- root helpers ---

// DepartRoot is Depart of a Direct ticket, small enough to inline.
func (c *CSNZI) DepartRoot() bool {
	for {
		old := c.root.Load()
		new := old - 1
		if c.root.CompareAndSwap(old, new) {
			return !writeAcquired(new)
		}
	}
}

// rootTreeArrive is the base case of treeArrive: it fails only when the
// whole C-SNZI is closed with zero surplus. (If it is closed but some
// surplus exists, the arrival is linearized at the earlier moment the
// arriving thread saw the C-SNZI open — see §2.2.)
func (c *CSNZI) rootTreeArrive() bool {
	for {
		old := c.root.Load()
		if writeAcquired(old) {
			return false
		}
		if c.root.CompareAndSwap(old, old+treeOne) {
			return true
		}
	}
}

func (c *CSNZI) rootTreeDepart() bool {
	for {
		old := c.root.Load()
		new := old - treeOne
		if c.root.CompareAndSwap(old, new) {
			return !writeAcquired(new)
		}
	}
}

// --- tree nodes ---

// treeArrive increments this node, returning false iff the arrival
// failed because the C-SNZI is closed with zero surplus.
//
// A node at zero is claimed with the intermediate state; only the
// claimer arrives at the parent (before publishing the node's nonzero
// count, so a failed parent arrival needs no cleanup beyond the local
// unwind — the property that makes closability cheap). Concurrent
// arrivers join provisionally and share the claimer's outcome.
func (n *node) treeArrive() bool {
	for {
		x := n.cnt.Load()
		switch {
		case x&nodeFailBit != 0:
			// A failed zero-crossing is unwinding; wait it out.
			atomicx.SpinUntil(func() bool { return n.cnt.Load()&nodeFailBit == 0 })

		case x&nodeHalfBit != 0:
			// Zero-crossing in flight: join provisionally.
			if !n.cnt.CompareAndSwap(x, x+1) {
				continue
			}
			atomicx.SpinUntil(func() bool { return n.cnt.Load()&nodeHalfBit == 0 })
			if n.cnt.Load()&nodeFailBit == 0 {
				return true // counted; the claimer's parent arrival stands
			}
			n.uncount()
			return false

		case x > 0:
			if n.cnt.CompareAndSwap(x, x+1) {
				return true
			}

		default: // x == 0: claim the zero-crossing
			if !n.cnt.CompareAndSwap(0, nodeHalfBit|1) {
				continue
			}
			ok := n.parentArrive()
			// Resolve: publish the count on success; otherwise un-count
			// ourselves and hand the unwind to any provisional joiners.
			for {
				x := n.cnt.Load()
				cnt := x & nodeCountMask
				var next uint64
				switch {
				case ok:
					next = cnt
				case cnt == 1:
					next = 0
				default:
					next = nodeFailBit | (cnt - 1)
				}
				if n.cnt.CompareAndSwap(x, next) {
					return ok
				}
			}
		}
	}
}

// uncount removes one provisional arrival during a failure unwind; the
// last leaver returns the node to zero (clearing the fail flag).
func (n *node) uncount() {
	for {
		x := n.cnt.Load()
		cnt := x & nodeCountMask
		var next uint64
		if cnt == 1 {
			next = 0
		} else {
			next = nodeFailBit | (cnt - 1)
		}
		if n.cnt.CompareAndSwap(x, next) {
			return
		}
	}
}

// treeDepart decrements this node, propagating to the parent when the
// count returns to zero. Returns false iff the C-SNZI ends closed with
// zero surplus. The flags are never visible here: the departer's own
// arrival keeps the count positive until this CAS.
func (n *node) treeDepart() bool {
	for {
		x := n.cnt.Load()
		if x&(nodeHalfBit|nodeFailBit) != 0 || x == 0 {
			panic("csnzi: Depart without matching arrival")
		}
		if n.cnt.CompareAndSwap(x, x-1) {
			if x == 1 {
				return n.parentDepart()
			}
			return true
		}
	}
}

func (n *node) parentArrive() bool {
	if n.parent == nil {
		return n.owner.rootTreeArrive()
	}
	return n.parent.treeArrive()
}

func (n *node) parentDepart() bool {
	if n.parent == nil {
		return n.owner.rootTreeDepart()
	}
	return n.parent.treeDepart()
}

// leafFor returns the leaf assigned to id and its index, building the
// tree on first use (lazy allocation, §2.2: only contended C-SNZIs pay
// the space). The reduction is unsigned: -id would overflow for
// math.MinInt and leave the remainder negative.
func (c *CSNZI) leafFor(id int) (int, *node) {
	t := c.tree.Load()
	if t == nil {
		t = c.buildTree()
	}
	i := int(uint(id) % uint(len(t.leaves)))
	return i, &t.leaves[i]
}

func (c *CSNZI) buildTree() *tree {
	t := &tree{leaves: make([]node, c.leaves)}
	layer := make([]*node, c.leaves)
	for i := range t.leaves {
		layer[i] = &t.leaves[i]
	}
	for len(layer) > c.fanout {
		nParents := (len(layer) + c.fanout - 1) / c.fanout
		parentNodes := make([]node, nParents)
		t.inner = append(t.inner, parentNodes)
		for i, child := range layer {
			child.parent = &parentNodes[i/c.fanout]
		}
		layer = layer[:nParents]
		for i := range layer {
			layer[i] = &parentNodes[i]
		}
	}
	for i := range t.leaves {
		t.leaves[i].owner = c
	}
	for _, ns := range t.inner {
		for i := range ns {
			ns[i].owner = c
		}
	}
	if c.tree.CompareAndSwap(nil, t) {
		return t
	}
	return c.tree.Load()
}

// TreeAllocated reports whether the leaf tree has been built; exposed
// for tests asserting lazy allocation.
func (c *CSNZI) TreeAllocated() bool { return c.tree.Load() != nil }

// Snapshot returns the current root word decomposed for diagnostics and
// tests: the direct count, tree count, and open flag. The three values
// are mutually consistent (single atomic load).
func (c *CSNZI) Snapshot() (direct, tree uint64, open bool) {
	w := c.root.Load()
	return directCount(w), treeCount(w), !isClosed(w)
}

func describe(w uint64) string {
	state := "OPEN"
	if isClosed(w) {
		state = "CLOSED"
	}
	if hasWaiters(w) {
		state += "+WAITERS"
	}
	return fmt.Sprintf("C-SNZI{state=%s direct=%d tree=%d}", state, directCount(w), treeCount(w))
}

// Describe renders the current root word for diagnostics — the decoded
// indicator state a trace watchdog dump reports for C-SNZI-backed
// locks.
func (c *CSNZI) Describe() string { return describe(c.root.Load()) }
