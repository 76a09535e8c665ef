// Package qnodetest is the white-box battery every lock built on
// internal/qnode must pass, in the manner of testing/fstest: each
// scenario is written once against the substrate's exported state, and
// a policy package (internal/foll, internal/roll) runs it from its own
// tests with its Policy row. The scenarios pin both halves of the
// conditional-store bargain — whatever a node looks like when it
// reaches an enqueue site, it enters the queue canonical; and finished
// acquisitions, abandonments and recycles leave nodes in the resting
// state the elided stores assume — plus the timed-acquisition surface
// the policies share.
package qnodetest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ollock/internal/lockcore"
	"ollock/internal/obs"
	"ollock/internal/qnode"
	"ollock/internal/xrand"
)

// Acquirer is the acquisition surface of a policy's per-goroutine
// handle.
type Acquirer interface {
	RLock()
	RUnlock()
	Lock()
	Unlock()
	TryRLock() bool
	TryLock() bool
	RLockFor(time.Duration) bool
	LockFor(time.Duration) bool
	RLockCtx(context.Context) error
	LockCtx(context.Context) error
}

// Proc pairs a policy's handle with the substrate base it embeds.
type Proc struct {
	Acquirer
	Base *qnode.Proc
}

// Lock pairs a policy's lock with the substrate queue it embeds.
type Lock struct {
	*qnode.Queue
	NewProc func() Proc
}

// Policy is one row of the battery.
type Policy struct {
	// New builds a lock for maxProcs goroutines with the given
	// instrumentation.
	New func(maxProcs int, in lockcore.Instr) Lock
	// Events is the policy's counter family.
	Events qnode.Events
	// BackLinks says the policy links nodes backward: a node enqueued
	// behind a predecessor must carry it in QPrev (nil otherwise).
	BackLinks bool
}

func (pol Policy) new(maxProcs int) Lock { return pol.New(maxProcs, lockcore.Instr{}) }

// holdWrite write-locks l on a fresh proc and returns the holder.
func holdWrite(l Lock) Proc {
	p := l.NewProc()
	p.Lock()
	return p
}

// ringNode returns the (free) ring node p's next read enqueue will
// allocate.
func ringNode(p Proc) *qnode.Node {
	n := p.Base.AllocReaderNode()
	qnode.Unalloc(n)
	return n
}

// scribble leaves on n the worst a finished acquisition, an
// abandonment, or a bug upstream could: stale links both ways, a
// consumed grant word, and the flag the wrong way up for the coming
// enqueue.
func scribble(n *qnode.Node, blocked bool) {
	stale := qnode.NewWriterNode()
	n.QNext.Store(stale)
	n.QPrev.Store(stale)
	n.GState.Store(qnode.Granted)
	n.Flag.Set(blocked)
}

// canonFault names the first way n departs from the canonical state of
// a node enqueued behind pred ("" if none). The flag is checked only
// where the site asks for one: a writer taking an empty queue never
// touches its flag.
func (pol Policy) canonFault(n, pred *qnode.Node, checkFlag, blocked bool) string {
	if !pol.BackLinks {
		pred = nil
	}
	switch {
	case n.QNext.Load() != nil:
		return "stale qNext"
	case n.QPrev.Load() != pred:
		return "qPrev is not the predecessor (nil without back links)"
	case n.GState.Load() != qnode.Live:
		return fmt.Sprintf("gstate = %d, want Live", n.GState.Load())
	case checkFlag && n.Flag.Blocked() != blocked:
		return fmt.Sprintf("flag blocked = %v, want %v", !blocked, blocked)
	}
	return ""
}

// awaitLinked waits until n is the tail, linked behind pred.
func awaitLinked(t *testing.T, l Lock, pred, n *qnode.Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.Tail.Load() != n || pred.QNext.Load() != n {
		if time.Now().After(deadline) {
			t.Fatal("node never enqueued behind its predecessor")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// awaitQuiescence waits (reapers may still be finishing detached
// duties) until at most inUse ring nodes are out and the lock is idle.
func awaitQuiescence(t *testing.T, l Lock, inUse int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for l.NodesInUse() > inUse || !l.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence: NodesInUse=%d Idle=%v ring=%q", l.NodesInUse(), l.Idle(), l.RingFault())
		}
		time.Sleep(time.Millisecond)
	}
}

// EnqueueSitesResetDirtyNodes scribbles on a node ahead of each of the
// enqueue sites and checks it enters the queue canonical.
func EnqueueSitesResetDirtyNodes(t *testing.T, pol Policy) {
	// Each case dirties the node its acquisition will enqueue, acquires
	// (behind a write holder when queued is set), and names the flag the
	// site must leave (checkFlag false: the site never touches it).
	lock := func(p Proc) bool { p.Lock(); return true }
	rlock := func(p Proc) bool { p.RLock(); return true }
	cases := []struct {
		name               string
		reader, queued     bool
		acquire            func(Proc) bool
		checkFlag, blocked bool
	}{
		{"Lock/empty", false, false, lock, false, false},
		{"TryLock", false, false, Proc.TryLock, false, false},
		{"Lock/behind-writer", false, true, lock, true, true},
		{"RLock/empty", true, false, rlock, true, false},
		{"TryRLock", true, false, Proc.TryRLock, true, false},
		{"RLock/behind-writer", true, true, rlock, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := pol.new(2)
			var holder Proc
			var pred *qnode.Node
			if c.queued {
				holder = holdWrite(l)
				pred = holder.Base.WNode
			}
			p := l.NewProc()
			n, release := p.Base.WNode, p.Unlock
			if c.reader {
				n, release = ringNode(p), p.RUnlock
			}
			scribble(n, !c.blocked)
			if c.queued {
				done := make(chan struct{})
				go func() { c.acquire(p); close(done) }()
				awaitLinked(t, l, pred, n)
				defer func() { holder.Unlock(); <-done; release() }()
			} else {
				if !c.acquire(p) {
					t.Fatal("acquisition failed on a free lock")
				}
				defer release()
				if l.Tail.Load() != n {
					t.Fatal("the node is not the tail")
				}
			}
			if f := pol.canonFault(n, pred, c.checkFlag, c.blocked); f != "" {
				t.Fatal(f)
			}
		})
	}
}

// NodesReenterCanonicalAfterRealHistories replaces the scribbling with
// the protocol's own ways of dirtying a node.
func NodesReenterCanonicalAfterRealHistories(t *testing.T, pol Policy) {
	t.Run("granted-writer", func(t *testing.T) {
		l := pol.new(2)
		holder, p := holdWrite(l), l.NewProc()
		w := p.Base.WNode
		done := make(chan struct{})
		go func() { p.Lock(); close(done) }()
		awaitLinked(t, l, holder.Base.WNode, w)
		holder.Unlock()
		<-done
		p.Unlock()
		// A delivered grant is the one thing that dirties a resting
		// writer node; rest tolerates it, Reset repairs it.
		if g := w.GState.Load(); g != qnode.Granted {
			t.Fatalf("gstate after a granted acquisition = %d, want Granted", g)
		}
		if f := w.RestFault(); f != "" {
			t.Fatalf("granted writer node not at rest: %s", f)
		}
		p.Lock()
		if f := pol.canonFault(w, nil, false, false); f != "" {
			t.Fatal(f)
		}
		p.Unlock()
	})

	t.Run("replaced-after-abandonment", func(t *testing.T) {
		l := pol.new(2)
		holder, p := holdWrite(l), l.NewProc()
		old := p.Base.WNode
		if p.LockFor(5 * time.Millisecond) {
			t.Fatal("LockFor succeeded while the lock was held")
		}
		w := p.Base.WNode
		if w == old || old.GState.Load() != qnode.Abandoned {
			t.Fatal("abandoned writer node was not replaced")
		}
		if f := w.RestFault(); f != "" {
			t.Fatalf("replacement writer node not at rest: %s", f)
		}
		holder.Unlock() // skips and orphans the abandoned node
		p.Lock()
		if l.Tail.Load() != w {
			t.Fatal("replacement writer node is not the tail")
		}
		if f := pol.canonFault(w, nil, false, false); f != "" {
			t.Fatal(f)
		}
		p.Unlock()
		if !l.Idle() {
			t.Fatal("lock not idle after the abandoned node was skipped")
		}
	})

	t.Run("granted-group-recycled-after-closedEmpty", func(t *testing.T) {
		l := pol.new(2)
		holder, r := holdWrite(l), l.NewProc()
		n := ringNode(r)
		done := make(chan struct{})
		go func() { r.RLock(); close(done) }()
		awaitLinked(t, l, holder.Base.WNode, n)
		holder.Unlock() // grants the group: gstate Granted
		<-done
		r.RUnlock() // the drained group stays enqueued, open
		holder.Lock()
		// The writer's close found the group drained and recycled its
		// node.
		if n.InUse() {
			t.Fatal("closed-empty reader node was not recycled")
		}
		if f := l.RingFault(); f != "" {
			t.Fatalf("after closedEmpty recycle: %s", f)
		}
		if g := n.GState.Load(); g != qnode.Granted {
			t.Fatalf("recycled group's gstate = %d, want the Granted its activation left", g)
		}
		holder.Unlock()
		r.RLock()
		if l.Tail.Load() != n {
			t.Fatal("recycled node was not reused")
		}
		if f := pol.canonFault(n, nil, true, false); f != "" {
			t.Fatal(f)
		}
		r.RUnlock()
	})
}

// NodesRestAfterCancelStorm is the quiescence half: after a storm of
// blocking, try, timed and context-bounded traffic — abandonments,
// reapers and recycles included — every free ring node and every
// proc's writer node must be back at rest.
func NodesRestAfterCancelStorm(t *testing.T, pol Policy) {
	const procs, ops = 6, 400
	l := pol.new(procs)
	ps := make([]Proc, procs)
	for i := range ps {
		ps[i] = l.NewProc()
	}
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(p Proc, r *xrand.Rand) {
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
	awaitQuiescence(t, l, 1)
	for i, p := range ps {
		if f := p.Base.WNode.RestFault(); f != "" {
			t.Errorf("proc %d writer node not at rest: %s", i, f)
		}
	}
}

// statsLock builds a lock counting into a fresh stats block.
func (pol Policy) statsLock(maxProcs int) (Lock, *obs.Stats) {
	st := obs.New()
	return pol.New(maxProcs, lockcore.Instr{Stats: st}), st
}

// wantCount fails unless exactly one event e was counted.
func wantCount(t *testing.T, st *obs.Stats, e obs.Event) {
	t.Helper()
	if got := st.Count(e); got != 1 {
		t.Fatalf("%s = %d, want 1", e, got)
	}
}

// WriteTimeoutBehindWriter: a timed-out writer is counted, and its
// abandoned node is skipped by the holder's release.
func WriteTimeoutBehindWriter(t *testing.T, pol Policy) {
	l, st := pol.statsLock(4)
	holder, p := holdWrite(l), l.NewProc()
	if p.LockFor(20 * time.Millisecond) {
		t.Fatal("LockFor succeeded while lock held")
	}
	wantCount(t, st, pol.Events.Timeout)
	holder.Unlock()
	if !p.LockFor(time.Second) {
		t.Fatal("LockFor failed on free lock")
	}
	p.Unlock()
	if !l.Idle() {
		t.Fatal("queue not empty at quiescence")
	}
}

// ReadTimeoutBehindWriter: a timed-out reader retracts its arrival and
// is counted as a timeout.
func ReadTimeoutBehindWriter(t *testing.T, pol Policy) {
	l, st := pol.statsLock(4)
	holder, p := holdWrite(l), l.NewProc()
	if p.RLockFor(20 * time.Millisecond) {
		t.Fatal("RLockFor succeeded while write-held")
	}
	wantCount(t, st, pol.Events.Timeout)
	holder.Unlock()
	if !p.RLockFor(time.Second) {
		t.Fatal("RLockFor failed on free lock")
	}
	p.RUnlock()
}

// ReadCtxCancel: a canceled context abandons a blocked reader with the
// context's error, counted as a cancel.
func ReadCtxCancel(t *testing.T, pol Policy) {
	l, st := pol.statsLock(4)
	defer holdWrite(l).Unlock()
	p := l.NewProc()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := p.RLockCtx(ctx); err != context.Canceled {
		t.Fatalf("RLockCtx = %v, want context.Canceled", err)
	}
	wantCount(t, st, pol.Events.Cancel)
}

// ReadCtxCancelBehindWriter: a context's own deadline is a cancel, not
// a timeout — the bound's source decides, not its kind.
func ReadCtxCancelBehindWriter(t *testing.T, pol Policy) {
	l, st := pol.statsLock(4)
	holder, p := holdWrite(l), l.NewProc()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.RLockCtx(ctx); err != context.DeadlineExceeded {
		t.Fatalf("RLockCtx = %v, want context.DeadlineExceeded", err)
	}
	wantCount(t, st, pol.Events.Cancel)
	holder.Unlock()
	if !p.RLockFor(time.Second) {
		t.Fatal("RLockFor failed on free lock")
	}
	p.RUnlock()
}

// TrySemantics: tries succeed on a free lock and alongside active
// readers, and fail against a conflicting holder.
func TrySemantics(t *testing.T, pol Policy) {
	l := pol.new(4)
	p1, p2 := l.NewProc(), l.NewProc()
	if !p1.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	if p2.TryLock() || p2.TryRLock() {
		t.Fatal("Try succeeded while write-held")
	}
	p1.Unlock()
	if !p1.TryRLock() {
		t.Fatal("TryRLock failed on free lock")
	}
	if !p2.TryRLock() {
		t.Fatal("TryRLock (join) failed on read-held lock")
	}
	if p2.TryLock() {
		t.Fatal("TryLock succeeded while read-held")
	}
	p1.RUnlock()
	p2.RUnlock()
}
