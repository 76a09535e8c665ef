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

	"ollock/internal/chaos"
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

// BecomeHeadClearsOwnBackLink runs every path on which a writer node
// comes to hold the lock behind a predecessor, each from a node whose
// back link names a sentinel, and requires each to leave the node at
// rest: the node clears its own link (Node.BecomeHead), since the grant
// writes only the grantee's grant word and flag. A granted reader group,
// whose link nothing clears, shows the grant left its sentinel alone.
// The paths through the policy's own write acquisition, and the reaper
// of a duty-phase abandonment, exist only under a policy with back links.
func BecomeHeadClearsOwnBackLink(t *testing.T, pol Policy) {
	// wantRest fails unless writer node w is at rest, link cleared, and
	// the lock idle once any reaper is done.
	wantRest := func(t *testing.T, l Lock, w *qnode.Node) {
		t.Helper()
		awaitQuiescence(t, l, 0)
		if f := w.RestFault(); f != "" {
			t.Fatalf("writer node not at rest: %s", f)
		}
	}
	// timedOutGroup leaves, behind a write holder, a waiting reader group
	// whose only member timed out: enqueued, open and empty.
	timedOutGroup := func(t *testing.T, l Lock) (holder Proc, g *qnode.Node) {
		holder = holdWrite(l)
		if l.NewProc().RLockFor(5 * time.Millisecond) {
			t.Fatal("RLockFor succeeded while write-held")
		}
		return holder, l.Tail.Load()
	}
	expired := lockcore.After(-time.Second)
	cases := []struct {
		name      string
		backLinks bool
		run       func(t *testing.T, sentinel *qnode.Node)
	}{
		{"grant-leaves-group-link", false, func(t *testing.T, sentinel *qnode.Node) {
			l := pol.new(3)
			holder, r := holdWrite(l), l.NewProc()
			g := ringNode(r)
			read := background(r.RLock)
			awaitLinked(t, l, holder.Base.WNode, g)
			g.QPrev.Store(sentinel)
			holder.Unlock()
			await(t, read, "the group's grant")
			if g.QPrev.Load() != sentinel {
				t.Fatal("the grant wrote the granted group's back link")
			}
			r.RUnlock()
			holder.Lock() // takes the drained group empty and recycles it
			if f := l.RingFault(); f != "" {
				t.Fatalf("a reader node keeping its link is not at rest: %s", f)
			}
			holder.Unlock()
			wantRest(t, l, holder.Base.WNode)
		}},
		{"lock/behind-writer", true, func(t *testing.T, sentinel *qnode.Node) {
			l := pol.new(3)
			holder, p := holdWrite(l), l.NewProc()
			w := p.Base.WNode
			locked := background(p.Lock)
			awaitLinked(t, l, holder.Base.WNode, w)
			w.QPrev.Store(sentinel)
			holder.Unlock()
			await(t, locked, "the grant")
			p.Unlock()
			wantRest(t, l, w)
		}},
		{"lock/behind-group", true, func(t *testing.T, sentinel *qnode.Node) {
			l := pol.new(3)
			holder, r, p := holdWrite(l), l.NewProc(), l.NewProc()
			g, w := ringNode(r), p.Base.WNode
			read := background(r.RLock)
			awaitLinked(t, l, holder.Base.WNode, g)
			locked := background(p.Lock)
			awaitLinked(t, l, g, w)
			w.QPrev.Store(sentinel)
			holder.Unlock()
			await(t, read, "the group's grant")
			awaitClosed(t, g) // under the reader: its departure grants w
			r.RUnlock()
			await(t, locked, "the last departer's grant")
			p.Unlock()
			wantRest(t, l, w)
		}},
		{"lock/drained-group", true, func(t *testing.T, sentinel *qnode.Node) {
			l := pol.new(3)
			holder, g := timedOutGroup(t, l)
			p := l.NewProc()
			w := p.Base.WNode
			locked := background(p.Lock)
			awaitLinked(t, l, g, w)
			w.QPrev.Store(sentinel)
			holder.Unlock() // grants the empty group: w closes it drained
			await(t, locked, "the drained group's take-over")
			p.Unlock()
			wantRest(t, l, w)
		}},
		{"CancelWriteWait/lost-race", false, func(t *testing.T, sentinel *qnode.Node) {
			l := pol.new(3)
			holdWrite(l)
			p := l.NewProc()
			w := p.Base.WNode
			// Enqueue w behind the holder as a write acquisition does.
			w.Reset(nil)
			pred := l.Tail.Swap(w)
			w.QPrev.Store(sentinel)
			w.Flag.Set(true)
			pred.QNext.Store(w)
			// The first half of the holder's release wins the grant word;
			// the canceler then loses the race and must collect the grant.
			if !w.GState.CompareAndSwap(qnode.Live, qnode.Granted) {
				t.Fatal("node not live")
			}
			canceled := background(func() { p.Base.CancelWriteWait(expired, 0, 0, 0) })
			stillBlocked(t, canceled, "the canceler returned before the grant was delivered")
			w.Flag.Clear()
			pred.QNext.Store(nil) // the rest of the holder's release
			await(t, canceled, "the canceler to release the collected grant")
			if p.Base.WNode != w {
				t.Fatal("the granted node was replaced as if abandoned")
			}
			wantRest(t, l, w)
		}},
		{"ReapDrain/closed-empty", true, func(t *testing.T, sentinel *qnode.Node) {
			l := pol.new(3)
			holder, g := timedOutGroup(t, l)
			p := l.NewProc()
			w := p.Base.WNode
			if p.LockFor(5 * time.Millisecond) {
				t.Fatal("LockFor succeeded behind a waiting group")
			}
			if p.Base.WNode == w {
				t.Fatal("the duty-phase abandonment kept its node")
			}
			awaitLinked(t, l, g, w)
			w.QPrev.Store(sentinel)
			holder.Unlock() // grants the empty group: the reaper closes it drained
			wantRest(t, l, w)
		}},
		{"ReapDrain/granted", false, func(t *testing.T, sentinel *qnode.Node) {
			in, reached, resume := parkAt(1, stepQueueEnqueue)
			l := pol.New(3, lockcore.Instr{Chaos: in})
			r, p := l.NewProc(), l.NewProc()
			r.RLock()
			r.RUnlock()
			g, w := l.Tail.Load(), p.Base.WNode
			var got bool
			tried := background(func() { got = p.TryLock() })
			await(t, reached, "the try to swap itself in")
			r.Base.Hold(g, g.Ind.Arrive(r.Base.ID)) // a reader gets in first
			close(resume)
			await(t, tried, "the try to return")
			if got || p.Base.WNode == w {
				t.Fatal("the try did not leave its node to a reaper")
			}
			awaitLinked(t, l, g, w)
			w.QPrev.Store(sentinel)
			awaitClosed(t, g) // under the reader: its departure grants w
			r.RUnlock()
			wantRest(t, l, w)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.backLinks && !pol.BackLinks {
				t.Skip("the policy never links a writer backward on this path")
			}
			c.run(t, qnode.NewWriterNode())
		})
	}
}

// awaitClosed waits until reader group g's indicator is closed.
func awaitClosed(t *testing.T, g *qnode.Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, open := g.Ind.Query(); open; _, open = g.Ind.Query() {
		if time.Now().After(deadline) {
			t.Fatal("the group was never closed")
		}
		time.Sleep(100 * time.Microsecond)
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
	// The lock now rests on the drained group those readers left at the
	// tail: free, to either try.
	if !p2.TryLock() {
		t.Fatal("TryLock failed on a lock at rest after reads")
	}
	if l.NodesInUse() != 0 {
		t.Fatal("TryLock did not recycle the resting group it closed")
	}
	p2.Unlock()
	p1.RLock()
	p1.RUnlock()
	if !p2.TryRLock() {
		t.Fatal("TryRLock failed on a lock at rest after reads")
	}
	p2.RUnlock()
	if !l.Idle() {
		t.Fatal("lock not idle after the tries")
	}
}

// TryLockHammer races TryLock against readers and blocking writers: a
// try that wins the tail but loses the group to a reader hands its node
// to a reaper, and when those finish the lock must be idle with the
// pool at rest.
func TryLockHammer(t *testing.T, pol Policy) {
	const procs, ops = 6, 2000
	l := pol.new(procs)
	var a, b int64 // writers keep a == b; readers verify
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int, p Proc) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				switch {
				case g < 3:
					p.RLock()
					if a != b {
						t.Error("reader saw a torn write")
					}
					p.RUnlock()
					continue
				case g == 3:
					p.Lock()
				case !p.TryLock():
					continue
				}
				a++
				b++
				p.Unlock()
			}
		}(g, l.NewProc())
	}
	wg.Wait()
	awaitQuiescence(t, l, 1)
}

// parkAt returns a chaos stepper that parks proc id at the nth protocol
// step (Emit site, counted from 1) it reaches: reached is closed when
// it gets there, and it proceeds once resume is closed.
func parkAt(id, n int) (in *chaos.Injector, reached, resume chan struct{}) {
	reached, resume = make(chan struct{}), make(chan struct{})
	steps := 0 // touched only by proc id's goroutine
	in = chaos.NewStepper(func(at int) {
		if at != id {
			return
		}
		if steps++; steps == n {
			close(reached)
			<-resume
		}
	})
	return in, reached, resume
}

// await fails the test unless ch is closed in time.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// stillBlocked fails the test if ch is closed within a grace period.
func stillBlocked(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatal(what)
	case <-time.After(10 * time.Millisecond):
	}
}

// background runs f on its own goroutine and returns a channel closed
// when it returns.
func background(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// The write steps a proc emits behind a reader predecessor, in order.
const (
	stepQueueEnqueue = 1 // after the Swap, before the group is tried empty
	stepIndClose     = 2 // the group is closed
)

// CloseBeforeLink hand-steps a writer that finds a reader group at the
// tail: it takes a drained, active group with one CloseIfEmpty and never
// links behind it; anything else in its way — a reader that got in
// first, an indicator its enqueuer has not opened yet — sends it down
// the linking path, where the last departer finds it.
func CloseBeforeLink(t *testing.T, pol Policy) {
	// rest builds a lock whose proc 1 parks at step, and leaves it
	// resting on a drained group (proc 0's).
	st := obs.New()
	rest := func(step int) (l Lock, r, w Proc, g *qnode.Node, reached, resume chan struct{}) {
		in, reached, resume := parkAt(1, step)
		l = pol.New(3, lockcore.Instr{Chaos: in, Stats: st})
		r, w = l.NewProc(), l.NewProc()
		r.RLock()
		r.RUnlock()
		return l, r, w, l.Tail.Load(), reached, resume
	}

	t.Run("never-linked", func(t *testing.T) {
		l, _, w, g, reached, resume := rest(stepIndClose)
		locked := background(w.Lock)
		await(t, reached, "the writer to close the group")
		wn := w.Base.WNode
		if g.QNext.Load() != nil || wn.QPrev.Load() != nil || wn.QNext.Load() != nil {
			t.Error("the writer linked itself behind a group it took empty")
		}
		if nonzero, open := g.Ind.Query(); nonzero || open {
			t.Error("the group is not closed and drained")
		}
		close(resume)
		await(t, locked, "the writer to acquire")
		if g.InUse() {
			t.Error("the closed group was not recycled")
		}
		if f := l.RingFault(); f != "" {
			t.Error(f)
		}
		w.Unlock()
		if !l.Idle() || l.Tail.Load() != nil {
			t.Error("lock not free and empty after the writer's release")
		}
	})

	t.Run("stale-reader-first", func(t *testing.T) {
		l, r, w, g, reached, resume := rest(stepQueueEnqueue)
		locked := background(w.Lock)
		await(t, reached, "the writer to swap itself in")
		// A reader that read the tail before the swap joins the group now.
		ticket := g.Ind.Arrive(r.Base.ID)
		if !ticket.Arrived() {
			t.Fatal("the group closed before the writer tried it")
		}
		r.Base.Hold(g, ticket)
		close(resume)
		awaitLinked(t, l, g, w.Base.WNode)
		stillBlocked(t, locked, "the writer acquired over a reader")
		r.RUnlock() // last out of the closed group: grants the writer
		await(t, locked, "the reader's release to grant the writer")
		w.Unlock()
		awaitQuiescence(t, l, 0)
	})

	t.Run("try-loses-group-to-reader", func(t *testing.T) {
		l, r, w, g, reached, resume := rest(stepQueueEnqueue)
		var got bool
		tried := background(func() { got = w.TryLock() })
		await(t, reached, "the try to swap itself in")
		wn := w.Base.WNode
		ticket := g.Ind.Arrive(r.Base.ID)
		r.Base.Hold(g, ticket)
		close(resume)
		await(t, tried, "the try to return")
		if got {
			t.Fatal("TryLock succeeded over a reader")
		}
		// The node the try left behind owes the group its close; a reaper
		// has it, and the proc a fresh one.
		if w.Base.WNode == wn {
			t.Error("the refused try kept the node it enqueued")
		}
		awaitLinked(t, l, g, wn)
		r.RUnlock()
		awaitQuiescence(t, l, 0)
		if !w.TryLock() {
			t.Fatal("TryLock failed on the free lock the reaper left")
		}
		w.Unlock()
		if n := st.Count(pol.Events.Timeout) + st.Count(pol.Events.Cancel); n != 0 {
			t.Errorf("a refused try was counted as %d abandoned timed acquisitions", n)
		}
	})

	t.Run("group-not-yet-open", func(t *testing.T) {
		// Proc 1 is the reader here, parked between enqueuing its group
		// behind a write holder and opening it.
		in, reached, resume := parkAt(1, 1)
		l := pol.New(3, lockcore.Instr{Chaos: in})
		holder, r, w := holdWrite(l), l.NewProc(), l.NewProc()
		read := background(r.RLock)
		await(t, reached, "the reader to enqueue its group")
		g := l.Tail.Load()
		if _, open := g.Ind.Query(); g.Kind != qnode.Reader || open {
			t.Fatal("the tail is not an unopened reader group")
		}
		locked := background(w.Lock)
		awaitLinked(t, l, g, w.Base.WNode) // refused on the closed word: linking path
		close(resume)
		holder.Unlock()
		await(t, read, "the group's grant")
		stillBlocked(t, locked, "the writer acquired over a reader")
		r.RUnlock()
		await(t, locked, "the reader's release to grant the writer")
		w.Unlock()
		awaitQuiescence(t, l, 0)
	})
}
