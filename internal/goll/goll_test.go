package goll

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock/internal/csnzi"
	"ollock/internal/xrand"
)

func TestReadersShare(t *testing.T) {
	l := New()
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

// TestWriterHandsToReaderGroup: the Solaris policy — a releasing writer
// admits ALL waiting readers together.
func TestWriterHandsToReaderGroup(t *testing.T) {
	l := New()
	w := l.NewProc()
	w.Lock()
	const readers = 4
	var active atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := l.NewProc()
			p.RLock()
			active.Add(1)
			for active.Load() < readers {
				time.Sleep(time.Millisecond)
			}
			p.RUnlock()
		}()
	}
	time.Sleep(30 * time.Millisecond)
	w.Unlock()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("reader group split: only %d admitted together", active.Load())
	}
}

// TestReaderHandsToWriter: last departing reader wakes the queued
// writer, which then owns the lock.
func TestReaderHandsToWriter(t *testing.T) {
	l := New()
	r1, r2 := l.NewProc(), l.NewProc()
	r1.RLock()
	r2.RLock()
	w := l.NewProc()
	writerIn := make(chan struct{})
	go func() {
		w.Lock()
		close(writerIn)
		w.Unlock()
	}()
	time.Sleep(30 * time.Millisecond)
	r1.RUnlock()
	select {
	case <-writerIn:
		t.Fatal("writer admitted with a reader still present")
	case <-time.After(30 * time.Millisecond):
	}
	r2.RUnlock()
	select {
	case <-writerIn:
	case <-time.After(20 * time.Second):
		t.Fatal("writer never handed the lock")
	}
}

// TestLateReadersQueueBehindWriter: with a writer waiting (C-SNZI
// closed), new readers must queue, not join the active group.
func TestLateReadersQueueBehindWriter(t *testing.T) {
	l := New()
	r1 := l.NewProc()
	r1.RLock()
	w := l.NewProc()
	writerDone := make(chan struct{})
	go func() {
		w.Lock()
		time.Sleep(10 * time.Millisecond)
		w.Unlock()
		close(writerDone)
	}()
	time.Sleep(30 * time.Millisecond) // writer closed the C-SNZI

	r2 := l.NewProc()
	r2In := make(chan struct{})
	go func() {
		r2.RLock()
		close(r2In)
		r2.RUnlock()
	}()
	select {
	case <-r2In:
		t.Fatal("late reader joined despite waiting writer")
	case <-time.After(30 * time.Millisecond):
	}
	r1.RUnlock() // hand off to writer, then writer hands to r2
	<-writerDone
	select {
	case <-r2In:
	case <-time.After(20 * time.Second):
		t.Fatal("late reader never admitted")
	}
}

func TestTryUpgradeSoleReader(t *testing.T) {
	l := New()
	p := l.NewProc()
	p.RLock()
	if !p.TryUpgrade() {
		t.Fatal("sole reader failed to upgrade")
	}
	// Now a writer: other readers must be excluded.
	r := l.NewProc()
	rIn := make(chan struct{})
	go func() {
		r.RLock()
		close(rIn)
		r.RUnlock()
	}()
	select {
	case <-rIn:
		t.Fatal("reader admitted during upgraded write hold")
	case <-time.After(50 * time.Millisecond):
	}
	p.Unlock()
	<-rIn
}

func TestTryUpgradeFailsWithTwoReaders(t *testing.T) {
	l := New()
	p1, p2 := l.NewProc(), l.NewProc()
	p1.RLock()
	p2.RLock()
	if p1.TryUpgrade() {
		t.Fatal("upgrade succeeded with two readers")
	}
	// p1 must still hold read ownership.
	p2.RUnlock()
	p1.RUnlock()
	// Lock must now be free for a writer.
	w := l.NewProc()
	w.Lock()
	w.Unlock()
}

func TestUpgradeWithTreeTicket(t *testing.T) {
	// Force tree arrivals so the upgrade exercises TradeToRoot.
	l := New(WithIndicator(csnzi.New(csnzi.WithLeaves(4), csnzi.WithDirectRetries(0))))
	p := l.NewProc()
	p.RLock()
	if !p.TryUpgrade() {
		t.Fatal("tree-ticket sole reader failed to upgrade")
	}
	p.Unlock()
}

func TestDowngrade(t *testing.T) {
	l := New()
	p := l.NewProc()
	p.Lock()
	p.Downgrade()
	// Now read-held: another reader may join.
	r := l.NewProc()
	done := make(chan struct{})
	go func() {
		r.RLock()
		close(done)
		r.RUnlock()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("reader blocked after downgrade")
	}
	p.RUnlock()
	// Fully released: writer can acquire.
	w := l.NewProc()
	w.Lock()
	w.Unlock()
}

func TestDowngradeAdmitsWaitingReaders(t *testing.T) {
	l := New()
	p := l.NewProc()
	p.Lock()
	r := l.NewProc()
	rIn := make(chan struct{})
	go func() {
		r.RLock()
		close(rIn)
		r.RUnlock()
	}()
	time.Sleep(30 * time.Millisecond) // reader queued
	p.Downgrade()
	select {
	case <-rIn:
	case <-time.After(20 * time.Second):
		t.Fatal("waiting reader not admitted by downgrade")
	}
	p.RUnlock()
}

// TestUpgradeAheadOfQueuedWriter: an upgrade may succeed even when a
// writer has closed the C-SNZI; the upgrader takes ownership first and
// the queued writer gets it on release.
func TestUpgradeAheadOfQueuedWriter(t *testing.T) {
	l := New()
	p := l.NewProc()
	p.RLock()
	w := l.NewProc()
	wIn := make(chan struct{})
	go func() {
		w.Lock()
		close(wIn)
		w.Unlock()
	}()
	time.Sleep(30 * time.Millisecond) // writer queued, C-SNZI closed
	if !p.TryUpgrade() {
		t.Fatal("sole reader failed to upgrade under a queued writer")
	}
	select {
	case <-wIn:
		t.Fatal("queued writer ran during upgraded hold")
	case <-time.After(30 * time.Millisecond):
	}
	p.Unlock()
	select {
	case <-wIn:
	case <-time.After(20 * time.Second):
		t.Fatal("queued writer never admitted after upgrader released")
	}
}

func TestMixedInvariantStress(t *testing.T) {
	l := New()
	var readers, writers atomic.Int32
	var bad atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := l.NewProc()
			r := xrand.New(uint64(id+1) * 179426549)
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

// TestWriterPriorityOvertakesReaders: a strictly-higher-priority waiting
// writer is preferred over waiting readers at a writer-release hand-off
// (the Solaris-policy priority rule).
func TestWriterPriorityOvertakesReaders(t *testing.T) {
	l := New()
	holder := l.NewProc()
	holder.Lock()

	// Queue two readers and a high-priority writer behind the holder.
	rIn := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		r := l.NewProc()
		go func() {
			r.RLock()
			rIn <- struct{}{}
			r.RUnlock()
		}()
	}
	time.Sleep(30 * time.Millisecond)
	hi := l.NewProc()
	hi.SetPriority(10)
	hiIn := make(chan struct{})
	go func() {
		hi.Lock()
		close(hiIn)
		time.Sleep(10 * time.Millisecond)
		hi.Unlock()
	}()
	time.Sleep(30 * time.Millisecond)

	holder.Unlock()
	// The high-priority writer must be admitted before the readers.
	select {
	case <-hiIn:
	case <-rIn:
		t.Fatal("reader admitted before a strictly-higher-priority writer")
	case <-time.After(20 * time.Second):
		t.Fatal("nobody admitted")
	}
	<-rIn
	<-rIn
}

// TestEqualPriorityWriterYieldsToReaders: with equal priorities the
// Solaris policy stands — a releasing writer hands to the reader group.
func TestEqualPriorityWriterYieldsToReaders(t *testing.T) {
	l := New()
	holder := l.NewProc()
	holder.Lock()
	rIn := make(chan struct{})
	r := l.NewProc()
	go func() {
		r.RLock()
		close(rIn)
		time.Sleep(10 * time.Millisecond)
		r.RUnlock()
	}()
	time.Sleep(30 * time.Millisecond)
	w := l.NewProc()
	wIn := make(chan struct{})
	go func() {
		w.Lock()
		close(wIn)
		w.Unlock()
	}()
	time.Sleep(30 * time.Millisecond)
	holder.Unlock()
	select {
	case <-rIn:
	case <-wIn:
		t.Fatal("equal-priority writer overtook waiting readers on writer release")
	case <-time.After(20 * time.Second):
		t.Fatal("nobody admitted")
	}
	<-wIn
}

func TestTryLockSemantics(t *testing.T) {
	l := New()
	p := l.NewProc()
	if !p.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	q := l.NewProc()
	if q.TryLock() {
		t.Fatal("TryLock on write-held lock succeeded")
	}
	if q.TryRLock() {
		t.Fatal("TryRLock on write-held lock succeeded")
	}
	p.Unlock()
	if !q.TryRLock() {
		t.Fatal("TryRLock on free lock failed")
	}
	r := l.NewProc()
	if !r.TryRLock() {
		t.Fatal("second TryRLock failed (readers share)")
	}
	if p.TryLock() {
		t.Fatal("TryLock with readers present succeeded")
	}
	q.RUnlock()
	r.RUnlock()
}

func TestTryRLockFailsWhileWriterWaits(t *testing.T) {
	l := New()
	holder := l.NewProc()
	holder.RLock()
	w := l.NewProc()
	wIn := make(chan struct{})
	go func() {
		w.Lock()
		close(wIn)
		w.Unlock()
	}()
	time.Sleep(30 * time.Millisecond) // writer queued: C-SNZI closed
	r := l.NewProc()
	if r.TryRLock() {
		t.Fatal("TryRLock succeeded while a writer was waiting")
	}
	holder.RUnlock()
	<-wIn
	if !r.TryRLock() {
		t.Fatal("TryRLock failed on a free lock")
	}
	r.RUnlock()
}
