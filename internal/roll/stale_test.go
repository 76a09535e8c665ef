package roll

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock/internal/lockcore"
	"ollock/internal/obs"
	"ollock/internal/qnode"
	"ollock/internal/xrand"
)

// A grant leaves the grantee's back link in place until the grantee,
// now the head, clears it (qnode.Node.BecomeHead). Until then a reader
// walking backward can follow it to a node that has since been freed,
// re-enqueued or released. These tests build each such queue by hand
// and run the walk over it.

// waitFor polls until cond holds: for a queue state another goroutine
// is about to reach.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// goDo runs f on its own goroutine; the channel closes when it returns.
func goDo(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	return done
}

// notYet fails the test if done closes within a grace period.
func notYet(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatal(what)
	case <-time.After(10 * time.Millisecond):
	}
}

// staleQueue is a lock whose proc h holds the lock as the granted head
// with its back link not yet cleared, and whose proc w waits behind it.
type staleQueue struct {
	l      *RWLock
	st     *obs.Stats
	h, w   *Proc
	locked <-chan struct{} // closes when w holds the lock
}

// newStaleQueue builds a staleQueue over a lock for procs goroutines;
// the caller then makes h's back link stale.
func newStaleQueue(t *testing.T, procs int) *staleQueue {
	s := &staleQueue{st: obs.New()}
	s.l = New(procs, WithInstr(lockcore.Instr{Stats: s.st}))
	s.h, s.w = s.l.NewProc(), s.l.NewProc()
	s.h.Lock()
	s.locked = goDo(s.w.Lock)
	waitFor(t, "the writer to queue behind the head", func() bool {
		return s.l.Tail.Load() == s.w.WNode && s.h.WNode.QNext.Load() == s.w.WNode
	})
	return s
}

// release clears the head's link (the step the stale window precedes)
// and lets the writers through.
func (s *staleQueue) release(t *testing.T) {
	t.Helper()
	s.h.WNode.BecomeHead()
	s.h.Unlock()
	<-s.locked
	s.w.Unlock()
}

// overtakes returns how many joins the lock counted for procs ps.
func (s *staleQueue) overtakes(ps ...*Proc) uint64 {
	for _, p := range ps {
		p.PI.LC.Flush()
	}
	return s.st.Count(lockcore.ROLLOvertake)
}

// awaitIdle waits for the lock to come to rest.
func (s *staleQueue) awaitIdle(t *testing.T) {
	t.Helper()
	waitFor(t, "the lock to come to rest", func() bool { return s.l.Idle() && s.l.NodesInUse() <= 1 })
	for _, p := range []*Proc{s.h, s.w} {
		if f := p.WNode.RestFault(); f != "" {
			t.Errorf("writer node not at rest: %s", f)
		}
	}
}

// readBehind starts r's read acquisition and waits until it has queued
// a new group behind the tail writer, which it returns.
func (s *staleQueue) readBehind(t *testing.T, r *Proc) (g *qnode.Node, read <-chan struct{}) {
	t.Helper()
	tail := s.l.Tail.Load()
	read = goDo(r.RLock)
	waitFor(t, "the reader to queue a group", func() bool {
		g = s.l.Tail.Load()
		return g != tail && tail.QNext.Load() == g
	})
	return g, read
}

func TestStaleLinkWalk(t *testing.T) {
	// (a) The head names a free ring node at rest: the walk stops there
	// without joining it, and the reader queues a group of its own.
	t.Run("free-node", func(t *testing.T) {
		s := newStaleQueue(t, 4)
		r, d := s.l.NewProc(), s.l.NewProc()
		x := d.AllocReaderNode() // not r's: r allocates from its own
		qnode.Unalloc(x)
		s.h.WNode.QPrev.Store(x)
		g, read := s.readBehind(t, r)
		if g == x || g.Kind != qnode.Reader || !g.Flag.Blocked() {
			t.Fatal("the reader did not queue a waiting group of its own")
		}
		if x.InUse() || x.RestFault() != "" {
			t.Fatal("the walk disturbed the free node it was led to")
		}
		notYet(t, read, "the reader acquired over the writers")
		s.release(t)
		<-read
		r.RUnlock()
		if n := s.overtakes(r); n != 0 {
			t.Errorf("roll.overtake = %d, want 0", n)
		}
		s.awaitIdle(t)
	})

	// A walker that read such a link earlier may reach the group only
	// once it has been granted: a granted group is not waiting, and the
	// walk stops there without joining it.
	t.Run("granted-group", func(t *testing.T) {
		l := New(3)
		r1, x, r := l.NewProc(), l.NewProc(), l.NewProc()
		r1.RLock() // the group is granted, open, and the tail
		g := l.Tail.Load()
		x.WNode.QPrev.Store(g) // the link as the walker read it
		if st := r.overtake(x.WNode, 0, 0, lockcore.Deadline{}); st != joinNo {
			t.Fatalf("the walk returned %d, want joinNo", st)
		}
		if direct, tree, _ := g.Root.Snapshot(); direct+tree != 1 {
			t.Fatal("the walk joined a granted group")
		}
		r1.RUnlock()
	})

	// (b) The node the head names was re-enqueued behind the waiting
	// writer as a waiting group: a walk from the tail the reader loaded
	// before that enqueue reaches it through the stale link, and joins
	// it — a waiting, open group is a legitimate one to overtake into.
	t.Run("re-enqueued-as-waiting-group", func(t *testing.T) {
		s := newStaleQueue(t, 4)
		e, r := s.l.NewProc(), s.l.NewProc()
		x := e.AllocReaderNode() // e's own: its read re-enqueues it
		qnode.Unalloc(x)
		s.h.WNode.QPrev.Store(x)
		if g, _ := s.readBehind(t, e); g != x {
			t.Fatal("the reader did not re-enqueue the node the head names")
		}
		var st int
		joined := goDo(func() { st = r.overtake(s.w.WNode, 0, 0, lockcore.Deadline{}) })
		waitFor(t, "the walk to join the group", func() bool {
			direct, tree, _ := x.Root.Snapshot()
			return direct+tree == 2
		})
		notYet(t, joined, "the walk's join acquired over the writers")
		s.release(t)
		<-joined
		if st != joinAcquired {
			t.Fatalf("the walk returned %d, want joinAcquired", st)
		}
		e.RUnlock()
		r.RUnlock()
		if n := s.overtakes(e, r); n != 1 {
			t.Errorf("roll.overtake = %d, want 1", n)
		}
		s.awaitIdle(t)
	})

	// (c) The head names the released writer now queued behind it, which
	// names the head: a cycle of writers. The walk gives up at
	// searchLimit and the reader queues a group.
	t.Run("cycle-through-released-writer", func(t *testing.T) {
		s := newStaleQueue(t, 3)
		r := s.l.NewProc()
		s.h.WNode.QPrev.Store(s.w.WNode)
		g, read := s.readBehind(t, r)
		if g.Kind != qnode.Reader || !g.Flag.Blocked() {
			t.Fatal("the reader did not queue a waiting group")
		}
		notYet(t, read, "the reader acquired over the writers")
		s.release(t)
		<-read
		r.RUnlock()
		if n := s.overtakes(r); n != 0 {
			t.Errorf("roll.overtake = %d, want 0", n)
		}
		s.awaitIdle(t)
	})
}

// TestStaleLinkHammer runs write-heavy traffic, so that readers walk
// back through chains of writers whose links are granted but not yet
// cleared, and checks exclusion throughout and rest at quiescence.
func TestStaleLinkHammer(t *testing.T) {
	const procs, ops = 6, 1500
	l := New(procs)
	var readers, writers, bad atomic.Int32
	ps := make([]*Proc, procs)
	var wg sync.WaitGroup
	for g := range ps {
		ps[g] = l.NewProc()
		wg.Add(1)
		go func(p *Proc, r *xrand.Rand) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if r.Bool(0.4) {
					p.RLock()
					readers.Add(1)
					if writers.Load() != 0 {
						bad.Add(1)
					}
					readers.Add(-1)
					p.RUnlock()
					continue
				}
				p.Lock()
				if writers.Add(1) != 1 || readers.Load() != 0 {
					bad.Add(1)
				}
				writers.Add(-1)
				p.Unlock()
			}
		}(ps[g], xrand.New(uint64(g+1)*104729))
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d exclusion violations", n)
	}
	if !l.Idle() || l.NodesInUse() > 1 {
		t.Fatalf("at quiescence: Idle=%v NodesInUse=%d ring=%q", l.Idle(), l.NodesInUse(), l.RingFault())
	}
	for i, p := range ps {
		if f := p.WNode.RestFault(); f != "" {
			t.Errorf("proc %d writer node not at rest: %s", i, f)
		}
	}
}

// TestDumpStopsAtHead: the state dump walks back from the tail only as
// far as the head. A granted reader group keeps the link to the writer
// it was queued behind, released since; printing past the group would
// show that writer as queued.
func TestDumpStopsAtHead(t *testing.T) {
	l := New(3)
	h, r, w := l.NewProc(), l.NewProc(), l.NewProc()
	h.Lock()
	read := goDo(r.RLock)
	waitFor(t, "the group to queue", func() bool { return h.WNode.QNext.Load() != nil })
	g := l.Tail.Load()
	locked := goDo(w.Lock)
	waitFor(t, "the writer to queue", func() bool { return g.QNext.Load() == w.WNode })
	h.Unlock()
	<-read
	if g.QPrev.Load() != h.WNode {
		t.Fatal("the granted group does not keep its link to the released writer")
	}
	var dump strings.Builder
	l.DumpLockState(&dump)
	want := []string{
		"roll: lastReader hint: ",
		"roll: queue node tail: writer spin=true",
		"roll: queue node tail-1: reader spin=false",
	}
	lines := strings.Split(strings.TrimSuffix(dump.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("dump has %d lines, want %d:\n%s", len(lines), len(want), dump.String())
	}
	for i, prefix := range want {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("dump line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	r.RUnlock()
	<-locked
	w.Unlock()
}
