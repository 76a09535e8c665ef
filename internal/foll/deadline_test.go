package foll

import (
	"sync"
	"testing"
	"time"

	"ollock/internal/lockcore"
	"ollock/internal/obs"
)

// holdWrite grabs the write lock on a fresh proc and returns a release
// func.
func holdWrite(l *RWLock) func() {
	p := l.NewProc()
	p.Lock()
	return p.Unlock
}

// awaitRest waits (reapers may still be finishing) until the lock is
// idle with every ring node back in the pool.
func awaitRest(t *testing.T, l *RWLock) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.NodesInUse() != 0 || !l.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("at quiescence: NodesInUse=%d Idle=%v", l.NodesInUse(), l.Idle())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllReadersCancelGroupWithWriterBehind drives the reaper path: a
// waiting reader group whose every member times out while a writer has
// already closed the group's indicator. The reaper must hand the lock
// through to the writer and recycle the node.
func TestAllReadersCancelGroupWithWriterBehind(t *testing.T) {
	l := New(8)
	release := holdWrite(l)

	const readers = 3
	var rg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			p := l.NewProc()
			if p.RLockFor(50 * time.Millisecond) {
				p.RUnlock()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the group form behind the writer

	wDone := make(chan struct{})
	go func() {
		p := l.NewProc()
		p.Lock() // closes the reader group's indicator
		p.Unlock()
		close(wDone)
	}()
	time.Sleep(10 * time.Millisecond) // let the writer close the group
	rg.Wait()                         // all readers cancel; last one spawns the reaper
	release()                         // grant reaches the group, reaper passes it on

	select {
	case <-wDone:
	case <-time.After(5 * time.Second):
		t.Fatal("writer behind an all-canceled group never acquired (lost wakeup)")
	}
	awaitRest(t, l)
}

// TestTimedWriterClosesBlockedEmptyGroup: a waiting group whose only
// member timed out sits in the queue open, empty and still blocked. A
// FOLL writer closes it at enqueue all the same — empty, so without
// linking behind it — and from then on owes the node its recycle; when
// the writer's own bound expires before the group's grant arrives, that
// duty goes to reapClosedEmpty, which must recycle the node exactly
// once and release the acquisition the close forced through.
func TestTimedWriterClosesBlockedEmptyGroup(t *testing.T) {
	st := obs.New()
	l := New(4, WithInstr(lockcore.Instr{Stats: st}))
	release := holdWrite(l)
	r, w := l.NewProc(), l.NewProc()
	if r.RLockFor(5 * time.Millisecond) {
		t.Fatal("RLockFor succeeded while write-held")
	}
	g := l.Tail.Load()
	if w.LockFor(5 * time.Millisecond) {
		t.Fatal("LockFor succeeded while write-held")
	}
	if nonzero, open := g.Ind.Query(); nonzero || open {
		t.Error("the writer did not close the empty group")
	}
	if g.QNext.Load() != nil {
		t.Error("the writer linked itself behind a group it closed empty")
	}
	if !g.InUse() || !g.Flag.Blocked() {
		t.Error("the group was recycled before its grant")
	}
	release() // grants the group; the reaper recycles it and releases
	awaitRest(t, l)
	if n := st.Count(lockcore.FOLLNodeRecycle); n != 1 {
		t.Errorf("the group was recycled %d times, want 1", n)
	}
	w.Lock()
	w.Unlock()
}
