// Package rind defines the closable read-indicator contract the OLL
// locks are built on, and names its three indicators — which are two
// implementations.
//
// The paper's core move is compositional: "take a reader-writer lock
// and replace the central reader count with a C-SNZI". BRAVO (Dice &
// Kogan, ATC '19) generalizes the observation — a reader-writer lock
// design is largely a choice of *read indicator*: the mechanism through
// which readers announce and retract their presence and writers block
// new readers and detect the old ones draining. This package makes that
// choice a first-class axis of the module, along BRAVO's taxonomy
// (central counter, SNZI, ingress/egress):
//
//   - CSNZI: the paper's closable scalable nonzero indicator tree
//     (package csnzi) — the default, and the subject of the paper. A
//     *csnzi.CSNZI is an Indicator as it stands; NewCSNZI returns one.
//   - Central: a single CAS-able counter word, the degenerate indicator
//     the paper's introduction criticizes; kept as the ablation floor.
//     The first entry of the taxonomy is a special case of the second —
//     a C-SNZI with no tree *is* that word — so Central is a
//     constructor, csnzi.New(csnzi.WithLeaves(0)), not a type.
//   - Sharded: cache-line-padded per-proc ingress/egress counter pairs
//     behind a closable gate word, in the style of BRAVO's
//     ingress-egress taxonomy — readers stripe across slots, writers
//     seal the slots and sum them.
//
// A closable indicator tracks a surplus (arrivals minus departures) and
// an open/closed state. While closed, Arrive fails without changing the
// surplus, so once a closed indicator's surplus drains to zero it stays
// zero until reopened. The locks map their entire state onto this:
//
//	lock free       = open, surplus 0
//	write-acquired  = closed, surplus 0
//	read-acquired   = surplus > 0 (open, or closed when a writer waits)
//
// Exactly one caller observes each drain: the Depart that takes a
// closed indicator's surplus to zero returns false (all others return
// true), or the Close/CloseAndMark/CloseIfEmpty/TryUpgrade call that
// transitions an empty indicator reports acquisition. That exactly-once
// property is what lets the locks hand ownership over without further
// arbitration.
//
// # Tickets and the inline route
//
// Every indicator hands out the same Ticket, one pointer-free word: 0 a
// failed arrival, Direct an arrival at the central word (C-SNZI root,
// Sharded gate), 2+i distributed arrival point i (C-SNZI leaf, Sharded
// slot). It goes back to the indicator that issued it,
// which alone knows what the index means.
//
// A lock holds its indicator as this interface and, resolved once at
// construction by Root, as the C-SNZI it is (nil for Sharded and for
// anything behind a wrapper). Through the latter its read sites make
// the conflict-free pair inline — csnzi.ArriveRoot and, for a Direct
// ticket, csnzi.DepartRoot — and fall into ArriveLocal/Depart here for
// everything else. The inline arrival is the first iteration of
// ArriveLocal that would have succeeded, counted by the lock under the
// same name through the same per-proc buffer, so no counter or trace
// route tells the two routes apart (internal/locksuite holds them to it).
//
// # The waiters flag
//
// The word that holds closed/surplus also holds one flag the indicator
// carries but never acts on: "somebody is queued behind the closer" —
// the Solaris lockword's RW_HAS_WAITERS, which the paper's Figure 3
// drops when it swaps that word for a C-SNZI, and with it the ability
// to release in one CAS. A lock whose waiters queue under a mutex
// (GOLL) uses it like this:
//
//   - a thread about to queue holds the queue mutex and sets the flag
//     in the same atomic step that confirms the indicator is closed
//     (MarkWaiters for a reader, CloseAndMark for a writer) — on an
//     open indicator the step fails or acquires, and nobody queues;
//   - the write owner releases with OpenIfNoWaiters, one CAS from
//     "closed, zero surplus, no flag" to open, without the mutex; it
//     fails exactly when the flag is set, and only then does the owner
//     take the mutex and consult the queue.
//
// Because mark and release are CASes on one word, one of them goes
// first: either the release wins and the would-be waiter sees an open
// indicator, or the mark wins and the releaser sees the flag. The flag
// exists only while closed: Open, OpenIfNoWaiters and
// OpenWithArrivals(n, false) clear it; OpenWithArrivals(n, true) and
// TryUpgrade keep it; Arrive, Depart and every drain test ignore it. A
// flag that outlives its waiters (a cancelled wait, a writer-to-writer
// hand-off) costs the next release one trip through the mutex, whose
// Open clears it. The plain-store transitions (Open, OpenWithArrivals)
// must be serialized with MarkWaiters/CloseAndMark by the caller — GOLL
// runs all of them under its queue mutex; OpenIfNoWaiters and
// TryUpgrade are CASes and may race them freely. Locks that never mark
// (FOLL, ROLL) never see the flag.
package rind

import (
	"ollock/internal/csnzi"
	"ollock/internal/obs"
)

// Indicator is a closable read indicator. Implementations must be safe
// for concurrent use. The zero state of every implementation returned
// by the package constructors is open with zero surplus.
type Indicator interface {
	// Arrive attempts to increment the surplus. It fails (returns a
	// ticket for which Arrived is false) iff the indicator is closed;
	// a failed arrival never modifies the surplus. The id selects the
	// arrival point (leaf, slot) under contention; pass a stable
	// per-goroutine value.
	Arrive(id int) Ticket

	// ArriveLocal is Arrive with event accounting routed through the
	// caller's per-proc buffer (obs.Local). A nil lc falls back to the
	// indicator's shared stats block, if any.
	ArriveLocal(id int, lc *obs.Local) Ticket

	// Depart decrements the surplus. It returns false iff the
	// resulting state is closed with zero surplus — the caller was the
	// last departer out of a closed indicator and must hand the
	// guarded resource to the closer. The ticket must come from a
	// successful Arrive (or be a DirectTicket matched by an
	// OpenWithArrivals), each ticket departing at most once.
	Depart(t Ticket) bool

	// Query returns whether the indicator has a surplus and whether it
	// is open. Both answers can be stale by the time they return.
	Query() (nonzero, open bool)

	// Close transitions the indicator from open to closed. It returns
	// true iff the closer thereby acquired the indicator outright:
	// the transition happened with the surplus zero (and, arrivals now
	// failing, it stays zero). Closing an already-closed indicator
	// returns false and changes nothing.
	Close() bool

	// CloseIfEmpty closes the indicator only if it is open with zero
	// surplus, reporting whether it did. This is the writer fast path.
	CloseIfEmpty() bool

	// CloseAndMark is Close for a closer that queues unless it
	// acquires: it leaves the indicator closed with the waiters flag
	// set, the two in one atomic step, and returns true iff the caller
	// thereby acquired the indicator outright (in which case the flag
	// may or may not have been left set — a set one is merely stale).
	// On an already-closed indicator it sets the flag and returns
	// false.
	CloseAndMark() bool

	// MarkWaiters sets the waiters flag iff the indicator is closed,
	// reporting whether it is; idempotent. On an open indicator it
	// changes nothing and returns false.
	MarkWaiters() bool

	// OpenIfNoWaiters reopens an indicator that is closed with zero
	// surplus and has no waiters flag, reporting whether it did; on
	// false nothing changed and the caller still owns the closed
	// indicator. This is the writer's release fast path: one CAS.
	OpenIfNoWaiters() bool

	// Open reopens the indicator and clears the waiters flag. It
	// requires (and panics otherwise) that the indicator is closed
	// with zero surplus.
	Open()

	// OpenWithArrivals atomically opens the indicator, performs cnt
	// direct arrivals, and, if close is set, closes it again (keeping
	// the waiters flag; an open result clears it). The matching
	// departures must use DirectTicket, and must not begin until
	// OpenWithArrivals returns. Like Open it requires the indicator to
	// be closed with zero surplus.
	OpenWithArrivals(cnt int, close bool)

	// DirectTicket constructs the ticket for a departure matching an
	// OpenWithArrivals arrival (a reader woken by a releasing writer
	// that pre-arrived on its behalf).
	DirectTicket() Ticket

	// TradeToRoot converts the ticket of a held arrival into a direct
	// ticket, so that SoleDirect/TryUpgrade can attribute the surplus.
	// The caller must hold a successful arrival. Direct tickets are
	// returned unchanged.
	TradeToRoot(t Ticket) Ticket

	// SoleDirect reports whether exactly one direct arrival and no
	// other surplus exists — the probe behind write upgrade (§3.2.1):
	// a caller holding a direct ticket learns whether it is the only
	// thread with an arrival. Advisory: the answer can be stale.
	SoleDirect() bool

	// TryUpgrade attempts to atomically transition from "exactly one
	// direct arrival, no other surplus" to "closed with zero surplus"
	// (write-acquired), regardless of the current open/closed state.
	// On success the caller's direct arrival is consumed (do not
	// Depart it) and the waiters flag is kept. It fails if any other
	// arrival exists.
	TryUpgrade() bool
}

// Factory constructs indicators. FOLL/ROLL hold one indicator per
// ring-pool node, so they take a Factory rather than an Indicator;
// recycled nodes then recycle indicators of any kind.
type Factory func() Indicator

// Ticket names the arrival point an Arrive landed at: the C-SNZI's own
// one-word ticket, shared by every indicator — 0 a failed arrival,
// Direct the central word (root or gate), 2+i distributed arrival point
// i (a C-SNZI leaf, a Sharded slot). Only the indicator that issued a
// ticket can tell which; pass it back to Depart (or TradeToRoot) there.
type Ticket = csnzi.Ticket

// Direct is the ticket of an arrival at the central word.
const Direct = csnzi.Direct

// NewCSNZI returns an open C-SNZI with zero surplus — the default
// indicator of every OLL lock. The C-SNZI is the Indicator: there is no
// adapter between the two.
func NewCSNZI(opts ...csnzi.Option) *csnzi.CSNZI { return csnzi.New(opts...) }

// NewCentral returns an open centralized indicator with zero surplus:
// the zero-leaf C-SNZI, one CAS-able word that every arrival and
// departure hits, all of whose tickets are direct.
func NewCentral() *csnzi.CSNZI { return csnzi.New(csnzi.WithLeaves(0)) }

// Instrument attaches an obs.Stats block to an indicator before it is
// shared between goroutines, returning ind. Both implementations count
// their own events under the csnzi.* names, so snapshots compare across
// indicators: root/gate arrivals are csnzi.arrive.root, leaf/slot
// arrivals csnzi.arrive.tree, failures csnzi.arrive.fail, transitions
// csnzi.close and csnzi.open (Sharded's retry loops emit no
// csnzi.cas.retry; see ALGORITHMS.md). A nil block, or an indicator
// from outside this module, is left as it is.
func Instrument(ind Indicator, st *obs.Stats) Indicator {
	if s, ok := ind.(interface{ SetStats(*obs.Stats) }); ok && st != nil {
		s.SetStats(st)
	}
	return ind
}

// Root resolves an indicator, once, at lock construction, to the
// C-SNZI whose root word the lock may then arrive at and depart from
// inline (csnzi.ArriveRoot/DepartRoot) in place of a call through the
// interface; st is the lock's stats block. It is non-nil only for a
// C-SNZI — the default or the zero-leaf Central — and then only when
// the inline pair is indistinguishable from ArriveLocal/Depart: the
// arrival policy tries the root first, and the counts the lock makes on
// the C-SNZI's behalf (csnzi.arrive.root, through its procs' buffers)
// land in the block the C-SNZI itself counts into. Sharded and any
// indicator behind a wrapper resolve to nil, and every call stays on
// the interface.
func Root(ind Indicator, st *obs.Stats) *csnzi.CSNZI {
	if c, ok := ind.(*csnzi.CSNZI); ok && c.RootFirst(st) {
		return c
	}
	return nil
}

// CSNZIFactory returns a Factory producing C-SNZI indicators with the
// given configuration.
func CSNZIFactory(opts ...csnzi.Option) Factory {
	return func() Indicator { return NewCSNZI(opts...) }
}

// CentralFactory returns a Factory producing centralized single-word
// indicators.
func CentralFactory() Factory {
	return func() Indicator { return NewCentral() }
}

// ShardedFactory returns a Factory producing sharded ingress/egress
// indicators with nshards slots each (nshards <= 0 selects
// DefaultShards).
func ShardedFactory(nshards int) Factory {
	return func() Indicator { return NewSharded(nshards) }
}
