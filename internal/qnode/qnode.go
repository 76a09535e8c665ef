// Package qnode is the queue-node substrate the FOLL and ROLL locks of
// §4.2–§4.3 of "Scalable Reader-Writer Locks" are both built on: the
// MCS-style queue of per-thread writer nodes and shared reader nodes,
// the ring pool the reader nodes are recycled through, the grant /
// abandonment state machine, and the release protocol. The paper
// defines ROLL as FOLL with a doubly linked queue and a reader-join
// rule, and the code follows: internal/foll and internal/roll each
// supply only their acquisition policy (how a reader finds a group to
// join, and when a writer closes its reader predecessor), over this
// package's unchanged machinery.
//
// Writers enqueue per-thread nodes and wait locally; successive readers
// share one queue node through a per-node closable read indicator
// (internal/rind), so under read-only load readers never write the tail
// pointer. Reader nodes outlive the acquisition of the thread that
// enqueued them (the enqueuer need not be the last to depart), so they
// are recycled through a ring pool of N nodes for N threads, per the
// availability argument of §4.2.1: a node is freed exactly once per
// allocation, either by the thread that allocated but never enqueued
// it, or by the unique thread that observed the node's indicator become
// closed with zero surplus (the last departing reader, or the closing
// writer when no readers were present).
//
// The substrate has no notion of which policy runs over it. The one
// per-policy word in a node, QPrev, is maintained by load-compare-store
// like every other word (see Reset), which for a policy that never
// links backward is one plain load of a word that is always nil.
//
// A node in the pool is at rest (RestFault). Recycling gets it there by
// load-compare-store too — a writer that closed the group empty before
// linking behind it never wrote QNext — so the one word a recycled node
// may carry for Reset to store over is a grant word left Granted.
package qnode

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync/atomic"

	"ollock/internal/atomicx"
	"ollock/internal/csnzi"
	"ollock/internal/lockcore"
	"ollock/internal/rind"
)

// Node kinds.
const (
	Reader uint32 = iota
	Writer
)

// Node allocation states (reader nodes only).
const (
	allocFree uint32 = iota
	allocInUse
)

// Node grant states: the one-word race between a hand-off and an
// abandonment. A node enters the queue Live; whoever hands the lock to
// it first CASes Live→Granted and only then clears its flag, while a
// writer abandoning a timed acquisition CASes Live→Abandoned and walks
// away. Exactly one CAS wins, so a grant is never delivered to an
// abandoned node (the granter skips it; see grant) and an abandonment
// never swallows an in-flight grant (the canceler that loses the race
// must collect the acquisition and release it normally). Reader nodes
// enter the queue Live like any other (see Reset) but are never
// abandoned — canceling readers leave through the indicator's Depart
// accounting, which keeps the §4.2.1 pool invariant intact.
const (
	Live uint32 = iota
	Granted
	Abandoned
)

// dumpLimit bounds DumpLockState's backward walk, which may chase stale
// links through recycled nodes.
const dumpLimit = 256

// Node is a queue node. Writer nodes belong to one thread each; reader
// nodes live in the queue's ring pool and are shared by groups of
// readers.
type Node struct {
	Kind  uint32 // immutable
	QNext atomicx.PaddedPointer[Node]
	// QPrev is the backward link of a doubly linked queue. The policy
	// sets it (through Reset, or once its Swap reveals the predecessor);
	// a writer node clears its own when it becomes the head (BecomeHead),
	// and a reader node's is left for its next Reset, since no walk
	// follows a reader node's link.
	QPrev atomicx.PaddedPointer[Node]
	// Flag is the node's grant flag (the "spin" boolean of Figure 4),
	// policy-aware so blocked threads can yield or park instead of
	// burning CPU; see internal/park via lockcore. On a reader node its
	// Blocked bit doubles as "this group is still waiting".
	Flag lockcore.Flag
	// GState is the grant/abandon race word (Live, Granted, Abandoned).
	GState atomic.Uint32
	// Reader-node-only fields.
	Ind rind.Indicator // closed whenever the node is not enqueued
	// Root is Ind resolved once, at Init: the C-SNZI behind the default
	// indicator, whose root word readers arrive at and depart from
	// inline, or nil when every call goes through Ind (see rind.Root).
	// Read sites spell the attempt, its count and the fall-through out;
	// a shared helper holding all three is past the inliner's budget.
	Root       *csnzi.CSNZI
	allocState atomic.Uint32
	ringNext   *Node // immutable ring pointer for the pool
}

// NewWriterNode returns a writer node at rest: a proc's first, or the
// replacement for one it left in the queue abandoned.
func NewWriterNode() *Node { return &Node{Kind: Writer} }

// Reset brings a private node — a proc's own writer node between
// acquisitions, or a ring node between allocation and enqueue — to the
// canonical state every node enters the queue in: no successor, grant
// word live, QPrev the predecessor it is about to be linked behind
// (nil at the head and under a policy without back links; a writer
// learns its predecessor only from the Swap, and stores it then). The
// flag is the enqueue site's to set (Flag.Set follows the same rule).
// Each word is loaded and stored only if it differs: an atomic store is
// a locked instruction, a node almost always comes back clean (release
// paths clear QNext, a writer clears QPrev as it becomes the head; only
// a delivered grant dirties GState, and a granted reader node keeps its
// back link until here), and the node is private, so eliding a store of
// the value already there is unobservable. Every enqueue site goes
// through here, so the empty-queue writer path is one Swap and one CAS.
func (n *Node) Reset(prev *Node) {
	if n.QNext.Load() != nil {
		n.QNext.Store(nil)
	}
	if n.GState.Load() != Live {
		n.GState.Store(Live)
	}
	if n.QPrev.Load() != prev {
		n.QPrev.Store(prev)
	}
}

// BecomeHead is a writer node's first step once it holds the lock: it
// clears its own back link, by load-compare-store like Reset. The grant
// leaves the link alone (see grant), so until this step a backward walk
// may follow it to a node that has since been released, recycled or
// re-enqueued; the walk joins only a waiting, open group, which only an
// enqueued one is, and is bounded. Under a policy without back links it
// is one load of a nil word.
func (n *Node) BecomeHead() {
	if n.QPrev.Load() != nil {
		n.QPrev.Store(nil)
	}
}

// InUse reports whether a ring node is checked out of the pool
// (diagnostic).
func (n *Node) InUse() bool { return n.allocState.Load() == allocInUse }

// Events names the counters a lock built on the substrate reports
// under, so each policy keeps its own metric family (foll.*, roll.*)
// for the events the shared code counts.
type Events struct {
	ReadJoin, ReadEnqueue, NodeRecycle, Timeout, Cancel lockcore.Event
}

// Queue is the shared half of a FOLL or ROLL lock: the tail pointer,
// the reader-node ring pool, and the lock's instrumentation. A policy
// package embeds it, sets Factory and In from its options, and calls
// Init.
type Queue struct {
	Tail atomicx.PaddedPointer[Node]
	// Factory mints the per-node read indicators (nil = C-SNZI). A
	// factory rather than an instance: every ring-pool node carries its
	// own indicator, and recycled nodes then recycle indicators of the
	// chosen kind.
	Factory rind.Factory
	// In is the instrumentation bundle (zero = all off): the stats
	// block is shared with every ring node's indicator, and the wait
	// policy routes every blocking site.
	In    lockcore.Instr
	name  string
	ev    Events
	ring  []Node
	procs atomic.Int64
}

// Init sizes the queue for maxProcs participating goroutines (the ring
// pool holds exactly maxProcs reader nodes, which §4.2.1 proves
// sufficient). name prefixes panics and the state dump; ev is the
// policy's counter family.
func (q *Queue) Init(name string, ev Events, maxProcs int) {
	if maxProcs <= 0 {
		panic(name + ": maxProcs must be positive")
	}
	q.name, q.ev = name, ev
	if q.Factory == nil {
		q.Factory = rind.CSNZIFactory()
	}
	q.ring = make([]Node, maxProcs)
	for i := range q.ring {
		n := &q.ring[i]
		n.Kind = Reader
		n.ringNext = &q.ring[(i+1)%maxProcs]
		n.Ind = rind.Instrument(q.Factory(), q.In.Stats)
		n.Root = rind.Root(n.Ind, q.In.Stats)
		// Fresh nodes start closed with no surplus (§4.2: "when just
		// allocated, has a closed C-SNZI"): a node's indicator is open
		// only while the node is enqueued.
		n.Ind.CloseIfEmpty()
	}
}

// Proc is the per-goroutine base a policy's Proc embeds. It carries the
// thread-local state of the paper's pseudocode (default reader node,
// writer node, last arrival ticket) and everything about an acquisition
// that does not depend on the policy: release, the non-blocking tries,
// and the abandonment machinery (cancel.go). A Proc supports one
// outstanding acquisition at a time.
type Proc struct {
	Q          *Queue
	ID         int
	rNode      *Node // default ring start for allocation
	WNode      *Node
	departFrom *Node
	ticket     rind.Ticket
	// PI is the proc's instrumentation view (buffered counters +
	// flight-recorder ring); one predictable branch per site when off.
	PI lockcore.ProcInstr
}

// AddProc registers a goroutine with the queue; it panics if more than
// maxProcs handles are created. Each handle gets a distinct default
// ring node, which keeps allocation contention low.
func (q *Queue) AddProc() Proc {
	id := int(q.procs.Add(1)) - 1
	if id >= len(q.ring) {
		panic(q.name + ": more procs than maxProcs")
	}
	return Proc{Q: q, ID: id, rNode: &q.ring[id], WNode: NewWriterNode(), PI: q.In.NewProc(id)}
}

// AllocReaderNode returns a free reader node, walking the ring from the
// proc's default node. Availability is guaranteed by the §4.2.1
// accounting (N nodes, N threads), so the walk terminates.
func (p *Proc) AllocReaderNode() *Node {
	cur := p.rNode
	for {
		if cur.allocState.Load() == allocFree &&
			cur.allocState.CompareAndSwap(allocFree, allocInUse) {
			return cur
		}
		cur = cur.ringNext
		if cur == p.rNode {
			// Full loop without success: another thread is between
			// freeing and reallocating; yield and retry.
			runtime.Gosched()
		}
	}
}

// free returns a node to the pool. At most one thread frees a node per
// allocation (the §4.2.1 argument), so a plain store suffices.
func (n *Node) free() { n.allocState.Store(allocFree) }

// Unalloc returns a ring node that was allocated for an enqueue that
// never happened (nil when there is none): every way out of a read
// acquisition that does not leave the node in the queue passes through
// here. A failed enqueue CAS behind a writer leaves the node linked to
// that writer with its flag raised; both are undone so the node rests
// clean like any other free node.
func Unalloc(n *Node) {
	if n != nil {
		n.Reset(nil)
		n.Flag.Set(false)
		n.free()
	}
}

// Recycle returns reader node n to the pool on behalf of the proc that
// observed its indicator closed with zero surplus and has finished with
// its successor link, if one was ever written.
func (p *Proc) Recycle(n *Node) {
	if n.QNext.Load() != nil {
		n.QNext.Store(nil)
	}
	n.free()
	p.PI.Inc(p.Q.ev.NodeRecycle)
}

// Recycle is Proc.Recycle for a reaper, which has no proc buffer to
// count through.
func (q *Queue) Recycle(n *Node, id int) {
	if n.QNext.Load() != nil {
		n.QNext.Store(nil)
	}
	n.free()
	q.In.Inc(q.ev.NodeRecycle, id)
}

// Hold records the reader group and ticket the proc's read acquisition
// must depart from.
func (p *Proc) Hold(n *Node, t rind.Ticket) {
	p.departFrom = n
	p.ticket = t
}

// OpenArrived opens reader node n, which the proc has just enqueued,
// with the proc's own arrival already inside — §2.1 gives Open its
// (count, close) form for this — and holds it: one store, and no moment
// at which a writer queuing behind n can close it before its enqueuer
// is in. The arrival is a root arrival by construction, counted as one.
func (p *Proc) OpenArrived(n *Node) {
	n.Ind.OpenWithArrivals(1, false)
	p.PI.Inc(lockcore.CSNZIArriveRoot)
	p.Hold(n, rind.Direct)
}

// grant hands the lock to n, skipping nodes whose writers abandoned
// their acquisition. Every hand-off site routes through here: winning
// the GState CAS commits the grant before the flag is cleared, and
// losing it means the node's writer timed out, so ownership passes to
// the successor instead — waiting for the enqueue/link race to settle
// exactly as Unlock does, and emptying the queue if the abandoned node
// was the tail. The grant writes the grantee's grant word and flag and
// nothing else of it: the back link the grantee wrote at enqueue is its
// own to clear (BecomeHead), off the releaser's path. Skipped writer
// nodes are garbage (their procs already replaced them); reader nodes
// are never abandoned, so for them the CAS always succeeds.
func (q *Queue) grant(n *Node, id int, tr *lockcore.TraceLocal) {
	for {
		if n.GState.CompareAndSwap(Live, Granted) {
			n.Flag.Clear()
			return
		}
		succ := n.QNext.Load()
		if succ == nil {
			if q.Tail.CompareAndSwap(n, nil) {
				return // abandoned tail: the queue is now empty
			}
			lockcore.WaitCond(q.In.Wait, id, tr, func() bool { return n.QNext.Load() != nil })
			succ = n.QNext.Load()
		}
		n.QNext.Store(nil)
		n = succ
	}
}

// RUnlock releases a read acquisition. If this thread is the last to
// depart a closed indicator, it signals the writer that closed it and
// recycles the reader node.
func (p *Proc) RUnlock() {
	n := p.departFrom
	var live bool
	if r := n.Root; r != nil && p.ticket == rind.Direct {
		live = r.DepartRoot()
	} else {
		live = n.Ind.Depart(p.ticket)
	}
	if !live {
		p.PI.Emit(lockcore.KindIndDrain, 0, 0)
		p.passOn(n)
	}
	p.PI.Released(lockcore.KindReadReleased)
	p.PI.ProfReleased()
}

// passOn is the last-departer duty on drained reader node n: hand the
// lock to the writer that closed it (which linked itself before
// closing, so QNext is set) and recycle the node.
func (p *Proc) passOn(n *Node) {
	succ := n.QNext.Load()
	p.Q.grant(succ, p.ID, p.PI.TR)
	p.Recycle(n)
	p.PI.Emit(lockcore.KindHandoff, 0, lockcore.PackHandoff(1, succ.Kind == Writer))
}

// Unlock releases a write acquisition.
func (p *Proc) Unlock() {
	q := p.Q
	w := p.WNode
	if w.QNext.Load() == nil {
		if q.Tail.CompareAndSwap(w, nil) {
			p.PI.Released(lockcore.KindWriteReleased)
			p.PI.ProfReleased()
			return
		}
		lockcore.WaitCond(q.In.Wait, p.ID, p.PI.TR, func() bool { return w.QNext.Load() != nil })
	}
	succ := w.QNext.Load()
	q.grant(succ, p.ID, p.PI.TR)
	w.QNext.Store(nil) // clean up
	p.PI.Emit(lockcore.KindHandoff, 0, lockcore.PackHandoff(1, succ.Kind == Writer))
	p.PI.Released(lockcore.KindWriteReleased)
	p.PI.ProfReleased()
}

// UnlockNode is the release protocol on an explicit node, for reapers
// releasing an acquisition whose proc already walked away (the proc's
// WNode was replaced, so Unlock no longer reaches the queued node). No
// trace ring here — rings are single-writer and belong to the proc's
// goroutine.
func (q *Queue) UnlockNode(w *Node, id int) {
	if w.QNext.Load() == nil {
		if q.Tail.CompareAndSwap(w, nil) {
			return
		}
		lockcore.WaitCond(q.In.Wait, id, nil, func() bool { return w.QNext.Load() != nil })
	}
	succ := w.QNext.Load()
	q.grant(succ, id, nil)
	w.QNext.Store(nil)
}

// MaxProcs returns the ring size (diagnostic).
func (q *Queue) MaxProcs() int { return len(q.ring) }

// NodesInUse returns the number of allocated ring-pool nodes
// (diagnostic; exact only at quiescence).
func (q *Queue) NodesInUse() int {
	c := 0
	for i := range q.ring {
		if q.ring[i].InUse() {
			c++
		}
	}
	return c
}

// RestFault names the first way n, a node outside the queue — a free
// ring node, or a proc's writer node between acquisitions — departs
// from the resting state ("" if none): no successor link, no abandoned
// grant word, for a writer node no back link, and for a ring node a
// lowered flag over a closed, drained indicator. A ring node may keep
// the back link of its last enqueue: no walk follows a reader node's
// link, and Reset overwrites it at the next enqueue. From rest, Reset
// and Flag.Set make a writer node canonical storing at most the two
// words a finished acquisition may leave behind: the grant word
// (Granted after a delivered grant) and the flag; a ring node, at most
// its back link besides.
func (n *Node) RestFault() string {
	switch {
	case n.QNext.Load() != nil:
		return "stale qNext"
	case n.GState.Load() == Abandoned:
		return "abandoned grant word"
	case n.Kind == Writer && n.QPrev.Load() != nil:
		return "stale qPrev"
	case n.Kind == Writer:
		return ""
	case n.Flag.Blocked():
		return "raised flag"
	}
	if nonzero, open := n.Ind.Query(); nonzero || open {
		return "indicator not closed and drained"
	}
	return ""
}

// RingFault names the first free ring node that is not at rest ("" if
// none).
func (q *Queue) RingFault() string {
	for i := range q.ring {
		if n := &q.ring[i]; !n.InUse() {
			if f := n.RestFault(); f != "" {
				return fmt.Sprintf("free ring node %d: %s", i, f)
			}
		}
	}
	return ""
}

// Idle reports whether the lock is free and its pool clean
// (diagnostic; exact only at quiescence): every free ring node is at
// rest (see RestFault), and either the queue is empty, or the tail is
// a drained reader group — an open, zero-surplus, unblocked reader
// node, which is how the lock rests after read-mostly traffic (the
// node stays in place for future readers to join).
func (q *Queue) Idle() bool {
	if q.RingFault() != "" {
		return false
	}
	n := q.Tail.Load()
	return n == nil || n.resting()
}

// resting reports whether n, read as the tail, is a drained reader
// group: open, zero surplus, unblocked.
func (n *Node) resting() bool {
	if n.Kind != Reader || n.Flag.Blocked() {
		return false
	}
	nonzero, open := n.Ind.Query()
	return open && !nonzero
}

// DumpLockState renders the live queue for the trace watchdog: the
// backward chain from the tail to the first node whose flag is lowered
// — the head; a link behind it is stale (a granted reader group keeps
// its link, a granted writer keeps its own until BecomeHead) — or just
// the tail under a policy without back links, then every other in-use
// ring node. The chain is bounded all the same, since a stale link read
// mid-update can still mislead it. All fields read are atomics or
// immutable, so the racy read is safe, merely advisory.
func (q *Queue) DumpLockState(w io.Writer) {
	tail := q.Tail.Load()
	if tail == nil {
		fmt.Fprintf(w, "%s: queue empty (lock free)\n", q.name)
		return
	}
	var chain []*Node
	for cur := tail; cur != nil && len(chain) < dumpLimit; cur = cur.QPrev.Load() {
		pos := "tail"
		if len(chain) > 0 {
			pos = fmt.Sprintf("tail-%d", len(chain))
		}
		fmt.Fprintf(w, "%s: queue node %s: %s\n", q.name, pos, cur)
		chain = append(chain, cur)
		if !cur.Flag.Blocked() {
			break // the head
		}
	}
	for i := range q.ring {
		if n := &q.ring[i]; n.InUse() && !slices.Contains(chain, n) {
			fmt.Fprintf(w, "%s: ring node %d: %s\n", q.name, i, n)
		}
	}
}

// String describes the node for the state dump.
func (n *Node) String() string {
	if n.Kind == Writer {
		return fmt.Sprintf("writer spin=%v", n.Flag.Blocked())
	}
	return fmt.Sprintf("reader spin=%v ind=%s", n.Flag.Blocked(), rind.Describe(n.Ind))
}
