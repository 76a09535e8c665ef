package qnode

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"ollock/internal/atomicx"
	"ollock/internal/lockcore"
)

// The grant / abandonment state machine on a bare Queue, with no policy
// over it: the test enqueues writer nodes the way every policy's write
// acquisition does and drives the shared machinery directly.

func newQueue(maxProcs int) (*Queue, []*Proc) {
	q := &Queue{}
	q.Init("qnode", Events{}, maxProcs)
	ps := make([]*Proc, maxProcs)
	for i := range ps {
		p := q.AddProc()
		ps[i] = &p
	}
	return q, ps
}

// enqueueWriter is the enqueue half of a write acquisition: the proc
// holds the lock if the queue was empty, and waits on its flag
// otherwise.
func enqueueWriter(p *Proc) {
	w := p.WNode
	w.Reset(nil)
	if old := p.Q.Tail.Swap(w); old != nil {
		w.Flag.Set(true)
		old.QNext.Store(w)
	}
}

// expired is a deadline that has already passed.
func expired() lockcore.Deadline { return lockcore.After(-time.Second) }

func wantRest(t *testing.T, q *Queue, ps []*Proc) {
	t.Helper()
	if q.Tail.Load() != nil {
		t.Error("queue not empty")
	}
	for i, p := range ps {
		if f := p.WNode.RestFault(); f != "" {
			t.Errorf("proc %d writer node not at rest: %s", i, f)
		}
	}
	if f := q.RingFault(); f != "" {
		t.Error(f)
	}
}

func TestGrantSkipsAbandonedNodes(t *testing.T) {
	q, ps := newQueue(3)
	head, mid, tail := ps[0], ps[1], ps[2]
	for _, p := range ps {
		enqueueWriter(p)
	}
	midNode, tailNode := mid.WNode, tail.WNode
	for _, p := range []*Proc{mid, tail} {
		if p.CancelWriteWait(expired(), 0, 0, 0) {
			t.Fatal("CancelWriteWait reported an acquisition")
		}
	}
	if mid.WNode == midNode || tail.WNode == tailNode {
		t.Fatal("an abandoned writer node was not replaced")
	}

	head.Unlock() // grant walks mid → tail, finds both abandoned

	for _, n := range []*Node{midNode, tailNode} {
		if g := n.GState.Load(); g != Abandoned {
			t.Errorf("abandoned node's gstate = %d, want Abandoned", g)
		}
		if !n.Flag.Blocked() {
			t.Error("a grant was delivered to an abandoned node")
		}
	}
	if midNode.QNext.Load() != nil {
		t.Error("skipped node still linked to its successor")
	}
	wantRest(t, q, ps)
}

// TestCancelLosesToInFlightGrant hand-steps the other outcome of the
// GState race: the granter's CAS has won but its flag clear has not
// landed when the writer times out. The canceler must wait for the
// grant, take the acquisition, and release it to its successor.
func TestCancelLosesToInFlightGrant(t *testing.T) {
	q, ps := newQueue(3)
	head, loser, succ := ps[0], ps[1], ps[2]
	for _, p := range ps {
		enqueueWriter(p)
	}
	w := loser.WNode
	// First half of head's release: grant's CAS.
	if !w.GState.CompareAndSwap(Live, Granted) {
		t.Fatal("node not live")
	}
	done := make(chan bool)
	go func() { done <- loser.CancelWriteWait(expired(), 0, 0, 0) }()
	select {
	case <-done:
		t.Fatal("canceler returned before the in-flight grant was delivered")
	case <-time.After(20 * time.Millisecond):
	}
	// Second half: the flag clear, then head's own cleanup.
	w.Flag.Clear()
	head.WNode.QNext.Store(nil)
	if <-done {
		t.Fatal("CancelWriteWait reported an acquisition")
	}
	if loser.WNode != w {
		t.Error("the granted node was replaced as if abandoned")
	}
	// The forced acquisition was released: the successor holds the lock.
	if succ.WNode.Flag.Blocked() || succ.WNode.GState.Load() != Granted {
		t.Fatal("the collected acquisition was not passed on")
	}
	succ.Unlock()
	wantRest(t, q, ps)
}

// TestBecomeHeadNotGrantClearsBackLink: a grant writes the grantee's
// grant word and flag and nothing else of it; the back link the grantee
// wrote at enqueue is the grantee's own to clear once it holds the lock.
func TestBecomeHeadNotGrantClearsBackLink(t *testing.T) {
	q, ps := newQueue(2)
	for _, p := range ps {
		enqueueWriter(p)
	}
	w, sentinel := ps[1].WNode, NewWriterNode()
	w.QPrev.Store(sentinel)
	ps[0].Unlock()
	if w.Flag.Blocked() || w.GState.Load() != Granted {
		t.Fatal("the grant was not delivered")
	}
	if w.QPrev.Load() != sentinel {
		t.Fatal("the grant wrote the grantee's back link")
	}
	if f := w.RestFault(); f != "stale qPrev" {
		t.Fatalf("a writer node holding a back link rests with fault %q, want stale qPrev", f)
	}
	w.BecomeHead()
	ps[1].Unlock()
	wantRest(t, q, ps)
}

// TestNodeHandOffLine checks, by the addresses the allocator handed out,
// that a node's hand-off words — the successor link, the grant word, and
// the flag's word and parked list — share one cache line, and that the
// back link and the words arriving readers touch are off it.
func TestNodeHandOffLine(t *testing.T) {
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / atomicx.CacheLineSize }
	check := func(name string, n *Node) {
		t.Helper()
		hot := line(unsafe.Pointer(&n.QNext))
		for field, span := range map[string][2]unsafe.Pointer{
			"GState": {unsafe.Pointer(&n.GState), unsafe.Add(unsafe.Pointer(&n.GState), unsafe.Sizeof(n.GState)-1)},
			"Flag":   {unsafe.Pointer(&n.Flag), unsafe.Add(unsafe.Pointer(&n.Flag), unsafe.Sizeof(n.Flag)-1)},
			"QNext":  {unsafe.Pointer(&n.QNext), unsafe.Add(unsafe.Pointer(&n.QNext), unsafe.Sizeof(n.QNext)-1)},
		} {
			if line(span[0]) != hot || line(span[1]) != hot {
				t.Errorf("%s: %s spans %#x..%#x, off QNext's line %#x", name, field, span[0], span[1], hot*atomicx.CacheLineSize)
			}
		}
		for field, p := range map[string]unsafe.Pointer{
			"QPrev":      unsafe.Pointer(&n.QPrev),
			"Root":       unsafe.Pointer(&n.Root),
			"allocState": unsafe.Pointer(&n.allocState),
		} {
			if line(p) == hot {
				t.Errorf("%s: %s at %p is on the hand-off line", name, field, p)
			}
		}
	}
	for i := 0; i < 8; i++ { // consecutive slots of one span, at every offset the class gives
		check("NewWriterNode", NewWriterNode())
	}
	for _, size := range []int{1, 2, 3, 64, 256} {
		q, _ := newQueue(size)
		for i := range q.ring {
			check(fmt.Sprintf("ring of %d, node %d", size, i), &q.ring[i])
		}
	}
}

// TestProcLayout pins the memory the read fast path touches in a Proc:
// the queue, the group it must depart from and the ticket (one
// pointer-free word: csnzi's TestTicketIsOnePointerFreeWord) all sit in
// the handle's first cache line, and
// every ring node carries its indicator resolved (the default C-SNZI)
// beside the interface it was resolved from.
func TestProcLayout(t *testing.T) {
	var p Proc
	for name, end := range map[string]uintptr{
		"Q":          unsafe.Offsetof(p.Q) + unsafe.Sizeof(p.Q),
		"departFrom": unsafe.Offsetof(p.departFrom) + unsafe.Sizeof(p.departFrom),
		"ticket":     unsafe.Offsetof(p.ticket) + unsafe.Sizeof(p.ticket),
	} {
		if end > atomicx.CacheLineSize {
			t.Errorf("Proc.%s ends at byte %d, outside the first cache line", name, end)
		}
	}
	var n Node
	if unsafe.Offsetof(n.Root) != unsafe.Offsetof(n.Ind)+unsafe.Sizeof(n.Ind) {
		t.Errorf("Node.Root at %d does not follow Node.Ind at %d", unsafe.Offsetof(n.Root), unsafe.Offsetof(n.Ind))
	}
	q, _ := newQueue(2)
	for i := range q.ring {
		if q.ring[i].Root == nil {
			t.Errorf("ring node %d: default indicator not resolved", i)
		}
	}
}
