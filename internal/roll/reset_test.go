package roll

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ollock/internal/xrand"
)

// The enqueue sites no longer store a node's words unconditionally:
// reset and Flag.Set load, compare, and store only what differs. These
// tests pin the other half of that bargain — whatever a node looks like
// when it reaches an enqueue site, it enters the queue canonical — and
// that finished acquisitions, abandonments and recycles leave nodes in
// the resting state the elided stores assume.

// scribble leaves on n the worst a finished acquisition, an
// abandonment, or a bug upstream could: stale links both ways, a
// consumed grant word, and the flag the wrong way up for the coming
// enqueue.
func scribble(n, stale *Node, blocked bool) {
	n.qNext.Store(stale)
	n.qPrev.Store(stale)
	n.gstate.Store(gGranted)
	n.flag.Set(blocked)
}

// canonFault names the first way n departs from the canonical state of
// a node enqueued behind prev ("" if none). The flag is checked only
// where the site asks for one: a writer taking an empty queue never
// touches its flag.
func canonFault(n, prev *Node, checkFlag, blocked bool) string {
	switch {
	case n.qNext.Load() != nil:
		return "stale qNext"
	case n.qPrev.Load() != prev:
		return "qPrev is not the predecessor"
	case n.gstate.Load() != gLive:
		return fmt.Sprintf("gstate = %d, want gLive", n.gstate.Load())
	case checkFlag && n.flag.Blocked() != blocked:
		return fmt.Sprintf("flag blocked = %v, want %v", !blocked, blocked)
	}
	return ""
}

// awaitLinked waits until n is the tail, linked behind pred.
func awaitLinked(t *testing.T, l *RWLock, pred, n *Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.tail.Load() != n || pred.qNext.Load() != n {
		if time.Now().After(deadline) {
			t.Fatal("node never enqueued behind its predecessor")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestEnqueueSitesResetDirtyNodes(t *testing.T) {
	stale := &Node{kind: kindWriter}

	t.Run("Lock/empty", func(t *testing.T) {
		l := New(2)
		p := l.NewProc()
		scribble(p.wNode, stale, true)
		p.Lock()
		if l.tail.Load() != p.wNode {
			t.Fatal("writer node is not the tail")
		}
		if f := canonFault(p.wNode, nil, false, false); f != "" {
			t.Fatal(f)
		}
		p.Unlock()
	})

	t.Run("TryLock", func(t *testing.T) {
		l := New(2)
		p := l.NewProc()
		scribble(p.wNode, stale, true)
		if !p.TryLock() {
			t.Fatal("TryLock failed on a free lock")
		}
		if f := canonFault(p.wNode, nil, false, false); f != "" {
			t.Fatal(f)
		}
		p.Unlock()
	})

	t.Run("Lock/behind-writer", func(t *testing.T) {
		l := New(2)
		holder, p := l.NewProc(), l.NewProc()
		holder.Lock()
		w := p.wNode
		scribble(w, stale, false)
		done := make(chan struct{})
		go func() { p.Lock(); close(done) }()
		awaitLinked(t, l, holder.wNode, w)
		if f := canonFault(w, holder.wNode, true, true); f != "" {
			t.Fatal(f)
		}
		holder.Unlock()
		<-done
		p.Unlock()
	})

	t.Run("RLock/empty", func(t *testing.T) {
		l := New(2)
		p := l.NewProc()
		scribble(p.rNode, stale, true)
		p.RLock()
		if l.tail.Load() != p.rNode {
			t.Fatal("reader node is not the tail")
		}
		if f := canonFault(p.rNode, nil, true, false); f != "" {
			t.Fatal(f)
		}
		p.RUnlock()
	})

	t.Run("TryRLock", func(t *testing.T) {
		l := New(2)
		p := l.NewProc()
		scribble(p.rNode, stale, true)
		if !p.TryRLock() {
			t.Fatal("TryRLock failed on a free lock")
		}
		if f := canonFault(p.rNode, nil, true, false); f != "" {
			t.Fatal(f)
		}
		p.RUnlock()
	})

	t.Run("RLock/behind-writer", func(t *testing.T) {
		l := New(2)
		holder, p := l.NewProc(), l.NewProc()
		holder.Lock()
		n := p.rNode
		scribble(n, stale, false)
		done := make(chan struct{})
		go func() { p.RLock(); close(done) }()
		awaitLinked(t, l, holder.wNode, n)
		if f := canonFault(n, holder.wNode, true, true); f != "" {
			t.Fatal(f)
		}
		holder.Unlock()
		<-done
		p.RUnlock()
	})
}

// TestNodesReenterCanonicalAfterRealHistories replaces the scribbling
// with the protocol's own ways of dirtying a node.
func TestNodesReenterCanonicalAfterRealHistories(t *testing.T) {
	t.Run("granted-writer", func(t *testing.T) {
		l := New(2)
		holder, p := l.NewProc(), l.NewProc()
		holder.Lock()
		done := make(chan struct{})
		go func() { p.Lock(); close(done) }()
		awaitLinked(t, l, holder.wNode, p.wNode)
		holder.Unlock()
		<-done
		p.Unlock()
		// A delivered grant is the one thing that dirties a resting
		// writer node; rest tolerates it, reset repairs it.
		if g := p.wNode.gstate.Load(); g != gGranted {
			t.Fatalf("gstate after a granted acquisition = %d, want gGranted", g)
		}
		if f := p.wNode.restFault(); f != "" {
			t.Fatalf("granted writer node not at rest: %s", f)
		}
		p.Lock()
		if f := canonFault(p.wNode, nil, false, false); f != "" {
			t.Fatal(f)
		}
		p.Unlock()
	})

	t.Run("replaced-after-abandonment", func(t *testing.T) {
		l := New(2)
		holder, p := l.NewProc(), l.NewProc()
		holder.Lock()
		old := p.wNode
		if p.LockFor(5 * time.Millisecond) {
			t.Fatal("LockFor succeeded while the lock was held")
		}
		if p.wNode == old || old.gstate.Load() != gAbandoned {
			t.Fatal("abandoned writer node was not replaced")
		}
		if f := p.wNode.restFault(); f != "" {
			t.Fatalf("replacement writer node not at rest: %s", f)
		}
		holder.Unlock() // skips and orphans the abandoned node
		p.Lock()
		if l.tail.Load() != p.wNode {
			t.Fatal("replacement writer node is not the tail")
		}
		if f := canonFault(p.wNode, nil, false, false); f != "" {
			t.Fatal(f)
		}
		p.Unlock()
		if !l.Idle() {
			t.Fatal("lock not idle after the abandoned node was skipped")
		}
	})

	t.Run("granted-group-recycled-after-closedEmpty", func(t *testing.T) {
		l := New(2)
		holder, r := l.NewProc(), l.NewProc()
		holder.Lock()
		n := r.rNode
		done := make(chan struct{})
		go func() { r.RLock(); close(done) }()
		awaitLinked(t, l, holder.wNode, n)
		holder.Unlock() // grants the group: gstate gGranted
		<-done
		r.RUnlock() // the drained group stays enqueued, open
		holder.Lock()
		// The writer's deferred close found the group drained and
		// recycled its node.
		if n.allocState.Load() != allocFree {
			t.Fatal("closed-empty reader node was not recycled")
		}
		if f := l.ringFault(); f != "" {
			t.Fatalf("after closedEmpty recycle: %s", f)
		}
		if g := n.gstate.Load(); g != gGranted {
			t.Fatalf("recycled group's gstate = %d, want the gGranted its activation left", g)
		}
		holder.Unlock()
		r.RLock()
		if l.tail.Load() != n {
			t.Fatal("recycled node was not reused")
		}
		if f := canonFault(n, nil, true, false); f != "" {
			t.Fatal(f)
		}
		r.RUnlock()
	})
}

// TestNodesRestAfterCancelStorm is the quiescence half: after a storm
// of blocking, try, timed and context-bounded traffic — abandonments,
// reapers and recycles included — every free ring node and every
// proc's writer node must be back at rest.
func TestNodesRestAfterCancelStorm(t *testing.T) {
	const procs, ops = 6, 400
	l := New(procs)
	ps := make([]*Proc, procs)
	for i := range ps {
		ps[i] = l.NewProc()
	}
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(p *Proc, r *xrand.Rand) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				d := time.Duration(1+r.Intn(50)) * time.Microsecond
				switch draw := r.Intn(100); {
				case draw < 30:
					p.RLock()
					p.RUnlock()
				case draw < 45:
					p.Lock()
					p.Unlock()
				case draw < 65:
					if p.RLockFor(d) {
						p.RUnlock()
					}
				case draw < 80:
					if p.LockFor(d) {
						p.Unlock()
					}
				case draw < 90:
					ctx, cancel := context.WithTimeout(context.Background(), d)
					if p.LockCtx(ctx) == nil {
						p.Unlock()
					}
					cancel()
				default:
					if p.TryLock() {
						p.Unlock()
					} else if p.TryRLock() {
						p.RUnlock()
					}
				}
			}
		}(p, xrand.New(uint64(i+1)*7919))
	}
	wg.Wait()
	// Reapers may still be finishing detached duties.
	deadline := time.Now().Add(10 * time.Second)
	for l.NodesInUse() > 1 || !l.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence: NodesInUse=%d Idle=%v ring=%q", l.NodesInUse(), l.Idle(), l.ringFault())
		}
		time.Sleep(time.Millisecond)
	}
	for i, p := range ps {
		if f := p.wNode.restFault(); f != "" {
			t.Errorf("proc %d writer node not at rest: %s", i, f)
		}
	}
}
