package roll

import (
	"sync"
	"testing"
	"time"

	"ollock/internal/lockcore"
	"ollock/internal/obs"
)

func holdWrite(l *RWLock) func() {
	p := l.NewProc()
	p.Lock()
	return p.Unlock
}

// TestWriterDrainTimeoutReaper drives the qnode.ReapDrain path: a
// writer times out while waiting for its waiting reader predecessor
// group to activate (the pre-close reader-preference wait). The
// detached reaper must still perform the deferred close and pass the
// lock on, and the pool must drain to zero.
func TestWriterDrainTimeoutReaper(t *testing.T) {
	l := New(8)
	release := holdWrite(l)

	// A waiting reader group forms behind the held lock... via a writer
	// predecessor so its spin flag is set: enqueue writer W1 (blocks),
	// then a reader group behind W1.
	w1 := l.NewProc()
	w1done := make(chan struct{})
	go func() {
		w1.Lock()
		w1.Unlock()
		close(w1done)
	}()
	time.Sleep(10 * time.Millisecond)

	var rg sync.WaitGroup
	rAcquired := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			p := l.NewProc()
			p.RLock()
			rAcquired <- struct{}{}
			time.Sleep(30 * time.Millisecond)
			p.RUnlock()
		}()
	}
	time.Sleep(10 * time.Millisecond) // group is waiting behind W1

	// W2 enqueues behind the waiting reader group and times out before
	// the group activates (W1 still blocked behind the held lock).
	w2 := l.NewProc()
	if w2.LockFor(20 * time.Millisecond) {
		t.Fatal("W2 LockFor succeeded while queue blocked")
	}

	release() // W1 runs, then the reader group, then W2's reaper
	<-w1done
	rg.Wait()

	// Everything must drain: the reaper closes the group's indicator,
	// recycles the node, and releases W2's forced acquisition.
	deadline := time.Now().Add(2 * time.Second)
	for l.NodesInUse() != 0 || !l.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("at quiescence: NodesInUse=%d Idle=%v", l.NodesInUse(), l.Idle())
		}
		time.Sleep(time.Millisecond)
	}
	// And the lock must still work.
	if !w2.LockFor(time.Second) {
		t.Fatal("LockFor failed after reaper drain")
	}
	w2.Unlock()
}

// TestWaitingGroupIsNotTriedEmpty: a ROLL writer takes its reader
// predecessor empty, before linking, only when the group is active. A
// group still waiting — here the sharpest case, one whose only member
// timed out, so a CloseIfEmpty would have succeeded — must stay open: a
// reader arriving later overtakes the writer into it, and runs first.
func TestWaitingGroupIsNotTriedEmpty(t *testing.T) {
	st := obs.New()
	l := New(4, WithInstr(lockcore.Instr{Stats: st}))
	release := holdWrite(l)
	r1, r2, w := l.NewProc(), l.NewProc(), l.NewProc()
	if r1.RLockFor(5 * time.Millisecond) {
		t.Fatal("RLockFor succeeded while write-held")
	}
	g := l.Tail.Load()
	locked := make(chan struct{})
	go func() { w.Lock(); close(locked) }()
	waitFor(t, "the writer to link behind the group", func() bool { return g.QNext.Load() == w.WNode })
	if _, open := g.Ind.Query(); !open {
		t.Fatal("the writer closed a waiting group")
	}
	read := make(chan struct{})
	go func() { r2.RLock(); close(read) }()
	waitFor(t, "the reader to join the group", func() bool { nonzero, _ := g.Ind.Query(); return nonzero })
	release()
	<-read
	select {
	case <-locked:
		t.Fatal("the writer acquired over the reader that overtook it")
	case <-time.After(10 * time.Millisecond):
	}
	r2.RUnlock()
	<-locked
	w.Unlock()
	r2.PI.LC.Flush()
	if n := st.Count(lockcore.ROLLOvertake); n != 1 {
		t.Errorf("roll.overtake = %d, want 1", n)
	}
	if l.NodesInUse() != 0 || !l.Idle() {
		t.Errorf("at quiescence: NodesInUse=%d Idle=%v", l.NodesInUse(), l.Idle())
	}
}
