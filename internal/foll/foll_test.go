package foll

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock/internal/xrand"
)

func TestProcLimit(t *testing.T) {
	l := New(2)
	l.NewProc()
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

// TestReadersShareOneNode: concurrent readers on an uncontended lock all
// join the single enqueued reader node — observable as at most one
// in-use ring node at any time.
func TestReadersShareOneNode(t *testing.T) {
	const procs = 8
	l := New(procs)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := l.NewProc()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.RLock()
				p.RUnlock()
			}
		}()
	}
	// Sample the pool occupancy while the readers hammer the lock.
	maxInUse := 0
	for i := 0; i < 200; i++ {
		inUse := l.NodesInUse()
		if inUse > maxInUse {
			maxInUse = inUse
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	// Read-only workload: only one node is ever enqueued at a time, plus
	// transient allocations that are freed unenqueued. Seeing more than
	// 2 in use would mean nodes leak or readers fragment across nodes.
	if maxInUse > 2 {
		t.Fatalf("up to %d ring nodes in use under read-only load, want <= 2", maxInUse)
	}
}

// TestNodeRecycling: nodes freed by last-departing readers are reusable;
// the ring never exhausts across many writer/reader alternations.
func TestNodeRecycling(t *testing.T) {
	const procs = 4
	l := New(procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := l.NewProc()
			r := xrand.New(uint64(id+1) * 1299709)
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
		t.Fatal("stalled: likely ring pool exhaustion or lost signal")
	}
	// Quiescent: at most one node may remain in use — the drained reader
	// node legitimately left enqueued at the head (it is recycled only
	// when a later writer closes it), and it must be the queue tail.
	inUse := l.NodesInUse()
	if inUse > 1 {
		t.Fatalf("%d ring nodes in use after quiescence, want <= 1", inUse)
	}
	if tail := l.Tail.Load(); inUse == 1 && (tail == nil || !tail.InUse()) {
		t.Fatal("the in-use ring node is not the enqueued tail")
	}
}

// TestFIFOWritersNoOvertake: FOLL is FIFO — a reader arriving after a
// queued writer waits for it.
func TestFIFOWritersNoOvertake(t *testing.T) {
	l := New(4)
	holder := l.NewProc()
	wproc := l.NewProc()
	rproc := l.NewProc()

	holder.RLock()
	writerIn := make(chan struct{})
	go func() {
		wproc.Lock()
		close(writerIn)
		time.Sleep(10 * time.Millisecond)
		wproc.Unlock()
	}()
	time.Sleep(30 * time.Millisecond) // writer queued, closed holder's node

	readerIn := make(chan struct{})
	go func() {
		rproc.RLock()
		close(readerIn)
		rproc.RUnlock()
	}()
	select {
	case <-readerIn:
		t.Fatal("reader overtook queued writer in FOLL")
	case <-time.After(30 * time.Millisecond):
	}
	holder.RUnlock()
	<-writerIn
	select {
	case <-readerIn:
	case <-time.After(20 * time.Second):
		t.Fatal("queued reader never admitted")
	}
}

// TestWriterClosesEmptyReaderNode: a writer behind a reader node whose
// readers have all departed (C-SNZI open, surplus 0) must reclaim the
// node itself and proceed.
func TestWriterClosesEmptyReaderNode(t *testing.T) {
	l := New(2)
	rp := l.NewProc()
	wp := l.NewProc()
	// Reader leaves an empty-but-enqueued node at the head.
	rp.RLock()
	rp.RUnlock()
	// Writer must get through it without any reader signalling.
	done := make(chan struct{})
	go func() {
		wp.Lock()
		wp.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("writer stuck behind empty reader node")
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
	// The trailing Lock/Unlock closed and recycled any drained reader
	// node, so the ring must be fully free here.
	if n := l.NodesInUse(); n != 0 {
		t.Fatalf("%d ring nodes leaked", n)
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
			r := xrand.New(uint64(id+1) * 104729)
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

func TestMaxProcsAccessor(t *testing.T) {
	if New(5).MaxProcs() != 5 {
		t.Fatal("MaxProcs mismatch")
	}
}
