package roll

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock/internal/xrand"
)

func TestProcLimit(t *testing.T) {
	l := New(1)
	l.NewProc()
	defer func() {
		if recover() == nil {
			t.Fatal("exceeding maxProcs did not panic")
		}
	}()
	l.NewProc()
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// TestReaderOvertakesWaitingWriter is THE defining ROLL behaviour: with
// the lock write-held, a reader group waiting, and a second writer
// queued behind the group, a newly arriving reader must join the waiting
// group (overtaking the second writer) and be admitted with the group —
// before the second writer runs.
func TestReaderOvertakesWaitingWriter(t *testing.T) {
	l := New(8)
	holder := l.NewProc()
	holder.Lock() // write-hold the lock

	// First reader queues: creates the waiting group node.
	r1 := l.NewProc()
	r1In := make(chan struct{})
	go func() {
		r1.RLock()
		close(r1In)
		time.Sleep(20 * time.Millisecond) // hold so the late joiner overlaps
		r1.RUnlock()
	}()
	time.Sleep(30 * time.Millisecond)

	// Second writer queues behind the reader group.
	w2 := l.NewProc()
	w2In := make(chan struct{})
	go func() {
		w2.Lock()
		close(w2In)
		w2.Unlock()
	}()
	time.Sleep(30 * time.Millisecond)

	// Late reader: must overtake w2 and join r1's waiting group.
	r2 := l.NewProc()
	r2In := make(chan struct{})
	go func() {
		r2.RLock()
		close(r2In)
		r2.RUnlock()
	}()
	time.Sleep(30 * time.Millisecond)

	select {
	case <-r1In:
		t.Fatal("reader admitted while writer held the lock")
	case <-r2In:
		t.Fatal("late reader admitted while writer held the lock")
	case <-w2In:
		t.Fatal("second writer admitted while first held the lock")
	default:
	}

	holder.Unlock()
	// The reader group (r1 AND r2) must be admitted before w2.
	select {
	case <-r2In:
	case <-time.After(20 * time.Second):
		t.Fatal("late reader was not admitted with the group (no overtake)")
	}
	select {
	case <-w2In:
	case <-time.After(20 * time.Second):
		t.Fatal("second writer never admitted")
	}
}

// TestHintPopulatedOnJoin: joining a waiting group populates the
// lastReader hint; a failed hint join clears it.
func TestHintPopulatedOnJoin(t *testing.T) {
	l := New(8)
	holder := l.NewProc()
	holder.Lock()

	r1 := l.NewProc()
	go func() {
		r1.RLock()
		r1.RUnlock()
	}()
	time.Sleep(30 * time.Millisecond)
	if !l.HintSet() {
		t.Fatal("hint not set after a reader created a waiting group")
	}
	holder.Unlock()
	time.Sleep(30 * time.Millisecond)
}

func TestReadersShareUncontended(t *testing.T) {
	l := New(2)
	p1, p2 := l.NewProc(), l.NewProc()
	p1.RLock()
	done := make(chan struct{})
	go func() {
		p2.RLock()
		close(done)
		p2.RUnlock()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("readers failed to share")
	}
	p1.RUnlock()
}

// TestWriterReclaimsDrainedGroup: the group drains entirely before the
// writer behind it closes; the writer must reclaim the node and proceed
// on its own.
func TestWriterReclaimsDrainedGroup(t *testing.T) {
	l := New(4)
	rp := l.NewProc()
	wp := l.NewProc()
	rp.RLock()
	rp.RUnlock() // node enqueued, open, surplus 0
	done := make(chan struct{})
	go func() {
		wp.Lock()
		wp.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("writer stuck behind drained reader node")
	}
}

func TestNodePoolQuiescence(t *testing.T) {
	const procs = 4
	l := New(procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := l.NewProc()
			r := xrand.New(uint64(id+1) * 7561)
			for i := 0; i < 3000; i++ {
				if r.Bool(0.7) {
					p.RLock()
					p.RUnlock()
				} else {
					p.Lock()
					p.Unlock()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stalled (pool exhaustion or lost signal)")
	}
	// At most one node may remain in use: the drained reader node left
	// enqueued at the head (recycled only when a later writer closes it).
	inUse := l.NodesInUse()
	if inUse > 1 {
		t.Fatalf("%d ring nodes in use after quiescence, want <= 1", inUse)
	}
	if tail := l.Tail.Load(); inUse == 1 && (tail == nil || !tail.InUse()) {
		t.Fatal("the in-use ring node is not the enqueued tail")
	}
}

func TestMixedInvariantStress(t *testing.T) {
	const procs = 8
	l := New(procs)
	var readers, writers atomic.Int32
	var bad atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := l.NewProc()
			r := xrand.New(uint64(id+1) * 65537)
			for i := 0; i < 2000; i++ {
				if r.Bool(0.85) {
					p.RLock()
					readers.Add(1)
					if writers.Load() != 0 {
						bad.Add(1)
					}
					readers.Add(-1)
					p.RUnlock()
				} else {
					p.Lock()
					if writers.Add(1) != 1 || readers.Load() != 0 {
						bad.Add(1)
					}
					writers.Add(-1)
					p.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d exclusion violations", bad.Load())
	}
}

func TestSequentialKindSwitching(t *testing.T) {
	l := New(1)
	p := l.NewProc()
	for i := 0; i < 2000; i++ {
		p.RLock()
		p.RUnlock()
		p.Lock()
		p.Unlock()
	}
}
