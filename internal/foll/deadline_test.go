package foll

import (
	"sync"
	"testing"
	"time"
)

// holdWrite grabs the write lock on a fresh proc and returns a release
// func.
func holdWrite(l *RWLock) func() {
	p := l.NewProc()
	p.Lock()
	return p.Unlock
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
	deadline := time.Now().Add(time.Second)
	for l.NodesInUse() != 0 || !l.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("at quiescence: NodesInUse=%d Idle=%v", l.NodesInUse(), l.Idle())
		}
		time.Sleep(time.Millisecond)
	}
}
