package roll

import (
	"sync"
	"testing"
	"time"
)

func holdWrite(l *RWLock) func() {
	p := l.NewProc()
	p.Lock()
	return p.Unlock
}

// TestWriterDrainTimeoutReaper drives the reapWriterDrain path: a
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
