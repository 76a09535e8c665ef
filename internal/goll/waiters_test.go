package goll

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock/internal/chaos"
	"ollock/internal/lockcore"
	"ollock/internal/rind"
)

// Tests for the waiters-bit release protocol: the uncontended
// Lock/Unlock pair never reaches the queue mutex, and no interleaving
// of a releaser's one-CAS fast path with a thread on its way into the
// queue loses the wake-up.

// indicatorsUnderTest is every in-tree indicator GOLL runs over.
var indicatorsUnderTest = []struct {
	name string
	new  func() rind.Indicator
}{
	{"csnzi", func() rind.Indicator { return rind.NewCSNZI() }},
	{"central", func() rind.Indicator { return rind.NewCentral() }},
	{"sharded", func() rind.Indicator { return rind.NewSharded(4) }},
}

const stepTimeout = 20 * time.Second

// await fails the test unless ch is signaled (or closed) in time.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(stepTimeout):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// stillBlocked fails the test if ch is signaled within a grace period.
func stillBlocked(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// queued returns the wait-queue length, read under the queue mutex.
func queued(l *RWLock) int {
	l.meta.Lock()
	defer l.meta.Unlock()
	return l.q.Len()
}

// awaitQueued waits until n threads are linked into the wait queue.
func awaitQueued(t *testing.T, l *RWLock, n int) {
	t.Helper()
	for deadline := time.Now().Add(stepTimeout); queued(l) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d, want %d", queued(l), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// marked reports whether the indicator word shows the waiters bit.
func marked(l *RWLock) bool { return strings.Contains(rind.Describe(l.cs), "+WAITERS") }

// wantFree asserts the lock is at rest: nobody queued, and the
// indicator word exactly open with zero surplus and no waiters bit —
// which is precisely what a CloseIfEmpty/OpenIfNoWaiters round trip
// demands of it (each is one CAS expecting the exact word).
func wantFree(t *testing.T, l *RWLock) {
	t.Helper()
	if n := queued(l); n != 0 {
		t.Errorf("%d threads still queued", n)
	}
	if marked(l) {
		t.Errorf("waiters bit left on a free lock: %s", rind.Describe(l.cs))
	}
	if !l.cs.CloseIfEmpty() {
		t.Fatalf("lock not free at rest: %s", rind.Describe(l.cs))
	}
	if !l.cs.OpenIfNoWaiters() {
		t.Fatalf("closed-empty indicator did not reopen: %s", rind.Describe(l.cs))
	}
}

// callCounter counts the indicator operations a lock performs.
type callCounter struct {
	rind.Indicator
	closeIfEmpty, openIfNoWaiters, other int
}

func (c *callCounter) CloseIfEmpty() bool { c.closeIfEmpty++; return c.Indicator.CloseIfEmpty() }
func (c *callCounter) OpenIfNoWaiters() bool {
	c.openIfNoWaiters++
	return c.Indicator.OpenIfNoWaiters()
}
func (c *callCounter) CloseAndMark() bool { c.other++; return c.Indicator.CloseAndMark() }
func (c *callCounter) MarkWaiters() bool  { c.other++; return c.Indicator.MarkWaiters() }
func (c *callCounter) Close() bool        { c.other++; return c.Indicator.Close() }
func (c *callCounter) Open()              { c.other++; c.Indicator.Open() }
func (c *callCounter) OpenWithArrivals(n int, close bool) {
	c.other++
	c.Indicator.OpenWithArrivals(n, close)
}

// TestUncontendedWriteIsTwoIndicatorCASes: a Lock/Unlock pair on a free
// lock is one CloseIfEmpty and one OpenIfNoWaiters — each a single CAS
// on the indicator word (see the rind contract table) — and nothing
// else: no other indicator call, and no queue mutex, which the test
// holds locked throughout so that touching it would hang. The read
// path runs under the same held mutex.
func TestUncontendedWriteIsTwoIndicatorCASes(t *testing.T) {
	for _, ik := range indicatorsUnderTest {
		t.Run(ik.name, func(t *testing.T) {
			cc := &callCounter{Indicator: ik.new()}
			l := New(WithIndicator(cc))
			p := l.NewProc()
			const rounds = 100
			l.meta.Lock()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < rounds; i++ {
					p.Lock()
					p.Unlock()
					if !p.LockFor(time.Second) {
						t.Error("LockFor failed on a free lock")
						return
					}
					p.Unlock()
					p.RLock()
					p.RUnlock()
				}
			}()
			await(t, done, "uncontended acquisitions with the queue mutex held by the test")
			l.meta.Unlock()
			if cc.closeIfEmpty != 2*rounds || cc.openIfNoWaiters != 2*rounds || cc.other != 0 {
				t.Fatalf("%d write pairs made %d CloseIfEmpty, %d OpenIfNoWaiters and %d other close/open/mark calls; want %d, %d, 0",
					2*rounds, cc.closeIfEmpty, cc.openIfNoWaiters, cc.other, 2*rounds, 2*rounds)
			}
			wantFree(t, l)
		})
	}
}

// parkFirstStep returns a chaos stepper that parks proc id at the first
// protocol step (Emit site) it reaches: reached is closed when it gets
// there, and it proceeds once resume is closed.
func parkFirstStep(id int) (in *chaos.Injector, reached, resume chan struct{}) {
	reached, resume = make(chan struct{}), make(chan struct{})
	fired := false // touched only by proc id's goroutine
	in = chaos.NewStepper(func(at int) {
		if at == id && !fired {
			fired = true
			close(reached)
			<-resume
		}
	})
	return in, reached, resume
}

// TestReleaseRacesQueueingThread hand-steps the window the waiters bit
// exists to close. A waiter (reader or writer) fails its fast path
// against a write holder and is parked, through the chaos seam, before
// it takes the queue mutex — after its failed Arrive and before its
// mark, or after its failed CloseIfEmpty and before its close-and-mark.
// Then either side goes first:
//
//   - the holder releases (its one-CAS fast path must succeed: nobody is
//     marked or queued) and the waiter, resumed, must find the indicator
//     open and acquire without ever queueing;
//   - the waiter is resumed and queues, and the holder's release must
//     fail its fast path, take the mutex and hand the lock over.
func TestReleaseRacesQueueingThread(t *testing.T) {
	for _, ik := range indicatorsUnderTest {
		for _, writer := range []bool{false, true} {
			for _, releaseFirst := range []bool{true, false} {
				name := ik.name + "/reader"
				if writer {
					name = ik.name + "/writer"
				}
				if releaseFirst {
					name += "/release-first"
				} else {
					name += "/mark-first"
				}
				t.Run(name, func(t *testing.T) {
					in, reached, resume := parkFirstStep(1)
					l := New(WithIndicator(ik.new()), WithInstr(lockcore.Instr{Chaos: in}))
					holder, waiter := l.NewProc(), l.NewProc() // ids 0, 1
					holder.Lock()
					acquired := make(chan struct{})
					go func() {
						if writer {
							waiter.Lock()
						} else {
							waiter.RLock()
						}
						close(acquired)
					}()
					await(t, reached, "the waiter to fail its fast path")
					if marked(l) || queued(l) != 0 {
						t.Fatalf("waiter parked before the mutex, yet marked=%v queued=%d", marked(l), queued(l))
					}
					if releaseFirst {
						holder.Unlock()
						if _, open := l.cs.Query(); !open {
							t.Fatalf("release with nobody marked left the indicator %s", rind.Describe(l.cs))
						}
						close(resume)
						await(t, acquired, "the waiter to retry on the open indicator")
						if n := queued(l); n != 0 {
							t.Fatalf("waiter acquired but %d threads are queued", n)
						}
					} else {
						close(resume)
						awaitQueued(t, l, 1)
						if !marked(l) {
							t.Fatalf("a thread is queued but the word is unmarked: %s", rind.Describe(l.cs))
						}
						stillBlocked(t, acquired, "waiter acquired while the writer still holds")
						holder.Unlock()
						await(t, acquired, "the releaser to find the queued waiter")
					}
					if writer {
						waiter.Unlock()
					} else {
						waiter.RUnlock()
					}
					wantFree(t, l)
				})
			}
		}
	}
}

// markHook parks a thread inside its marking step — after the indicator
// word is marked, before the entry is linked, the queue mutex held.
type markHook struct {
	rind.Indicator
	marked, resume chan struct{}
}

func (h *markHook) pause() {
	close(h.marked)
	<-h.resume
}

func (h *markHook) MarkWaiters() bool {
	ok := h.Indicator.MarkWaiters()
	h.pause()
	return ok
}

func (h *markHook) CloseAndMark() bool {
	ok := h.Indicator.CloseAndMark()
	h.pause()
	return ok
}

// TestReleaseWaitsForMarkedButUnlinkedWaiter: the waiter has marked the
// word but not yet linked its queue entry when the holder releases. The
// release must not complete past it: the fast-path CAS fails on the
// bit, and the hand-off path blocks on the mutex the waiter holds until
// the entry is there to be found.
func TestReleaseWaitsForMarkedButUnlinkedWaiter(t *testing.T) {
	for _, ik := range indicatorsUnderTest {
		for _, writer := range []bool{false, true} {
			name := ik.name + "/reader"
			if writer {
				name = ik.name + "/writer"
			}
			t.Run(name, func(t *testing.T) {
				h := &markHook{Indicator: ik.new(), marked: make(chan struct{}), resume: make(chan struct{})}
				l := New(WithIndicator(h))
				holder, waiter := l.NewProc(), l.NewProc()
				holder.Lock()
				acquired, released := make(chan struct{}), make(chan struct{})
				go func() {
					if writer {
						waiter.Lock()
					} else {
						waiter.RLock()
					}
					close(acquired)
				}()
				await(t, h.marked, "the waiter to mark the indicator")
				go func() {
					holder.Unlock()
					close(released)
				}()
				stillBlocked(t, released, "release completed past a marked, not yet linked waiter")
				stillBlocked(t, acquired, "waiter acquired while the writer still holds")
				close(h.resume)
				await(t, released, "the release to complete")
				await(t, acquired, "the releaser to find the waiter")
				if writer {
					waiter.Unlock()
				} else {
					waiter.RUnlock()
				}
				wantFree(t, l)
			})
		}
	}
}

// TestUpgradeKeepsQueuedWriterReachable is the bug guard for the
// upgrade path: reader R holds, writer W queues (word = closed +
// waiters, surplus 1), R upgrades and unlocks. An upgrade that swapped
// the word to bare "closed" would let R's one-CAS release succeed and
// strand W in the queue.
func TestUpgradeKeepsQueuedWriterReachable(t *testing.T) {
	for _, ik := range indicatorsUnderTest {
		t.Run(ik.name, func(t *testing.T) {
			l := New(WithIndicator(ik.new()))
			r, w := l.NewProc(), l.NewProc()
			r.RLock()
			wIn := make(chan struct{})
			go func() {
				w.Lock()
				close(wIn)
			}()
			awaitQueued(t, l, 1)
			if !marked(l) {
				t.Fatalf("writer queued behind a reader but the word is unmarked: %s", rind.Describe(l.cs))
			}
			var dump strings.Builder
			l.DumpLockState(&dump)
			if !strings.Contains(dump.String(), "CLOSED+WAITERS") || !strings.Contains(dump.String(), "1 waiters (1 writers, 0 readers)") {
				t.Errorf("watchdog dump does not show the marked word and its waiter:\n%s", dump.String())
			}
			if !r.TryUpgrade() {
				t.Fatal("sole reader failed to upgrade under a queued writer")
			}
			if !marked(l) {
				t.Fatalf("upgrade dropped the waiters bit: %s", rind.Describe(l.cs))
			}
			stillBlocked(t, wIn, "queued writer ran during the upgraded hold")
			r.Unlock()
			await(t, wIn, "the upgrader's release to hand the lock to the queued writer")
			w.Unlock()
			wantFree(t, l)
		})
	}
}

// TestDowngradeKeepsQueuedWriterReachable: a writer downgrades with a
// reader and a second writer queued. The reader is admitted alongside,
// the indicator stays closed and marked for the writer, and the last
// departer of the read group hands the lock to it.
func TestDowngradeKeepsQueuedWriterReachable(t *testing.T) {
	for _, ik := range indicatorsUnderTest {
		t.Run(ik.name, func(t *testing.T) {
			l := New(WithIndicator(ik.new()))
			w1, w2, r := l.NewProc(), l.NewProc(), l.NewProc()
			w1.Lock()
			w2In, rIn := make(chan struct{}), make(chan struct{})
			go func() {
				w2.Lock()
				close(w2In)
			}()
			awaitQueued(t, l, 1)
			go func() {
				r.RLock()
				close(rIn)
			}()
			awaitQueued(t, l, 2)
			w1.Downgrade()
			await(t, rIn, "the downgrade to admit the queued reader")
			if _, open := l.cs.Query(); open || !marked(l) {
				t.Fatalf("downgrade with a writer queued left the indicator %s", rind.Describe(l.cs))
			}
			r.RUnlock()
			stillBlocked(t, w2In, "queued writer admitted with the downgrader still reading")
			w1.RUnlock()
			await(t, w2In, "the last departer to hand the lock to the queued writer")
			w2.Unlock()
			wantFree(t, l)
		})
	}
}

// TestWaitersBitHammer races the one-CAS release against threads that
// queue and give up. One writer loops Lock/Unlock (every few rounds
// yielding with the lock held, so the others find it taken); the other
// procs acquire with deadlines of a few microseconds, so many of them
// mark the word, queue, time out and leave a stale bit (or lose the
// unlink race and are handed a lock they give straight back). A lost
// wake-up hangs a waiter whose deadline has not landed yet, or the
// writer; a release that skips a live waiter breaks exclusion; and
// whatever happened, the lock must end at rest with the word exactly
// open/zero.
func TestWaitersBitHammer(t *testing.T) {
	const procs, wantAbandoned = 6, 100
	attempts := 3000
	if testing.Short() {
		attempts = 600
	}
	for _, ik := range indicatorsUnderTest {
		t.Run(ik.name, func(t *testing.T) {
			l := New(WithIndicator(ik.new()))
			var writers, readers atomic.Int32
			var bad, timedOut atomic.Int64
			enter := func(write bool) {
				if write {
					if writers.Add(1) != 1 || readers.Load() != 0 {
						bad.Add(1)
					}
					writers.Add(-1)
					return
				}
				readers.Add(1)
				if writers.Load() != 0 {
					bad.Add(1)
				}
				readers.Add(-1)
			}
			var stop atomic.Bool
			var contenders, writer sync.WaitGroup
			start := make(chan struct{})
			giveUp := time.Now().Add(30 * time.Second)
			for g := 0; g < procs; g++ {
				contenders.Add(1)
				go func(g int) {
					defer contenders.Done()
					p := l.NewProc()
					<-start
					// Keep going until enough waits were abandoned to have
					// left stale bits behind (how soon depends on how the
					// scheduler interleaves us with the writer), within
					// reason.
					for i := 0; i < attempts || (timedOut.Load() < wantAbandoned && time.Now().Before(giveUp)); i++ {
						if i%16 == 0 {
							runtime.Gosched() // interleave on few processors
						}
						d := time.Duration(1+(i+g)%8) * time.Microsecond
						write := (i+g)%3 == 0
						switch {
						case write && p.LockFor(d):
							enter(true)
							p.Unlock()
						case !write && p.RLockFor(d):
							enter(false)
							p.RUnlock()
						default:
							timedOut.Add(1)
						}
					}
				}(g)
			}
			writer.Add(1)
			go func() {
				defer writer.Done()
				p := l.NewProc()
				<-start
				for i := 0; !stop.Load(); i++ {
					p.Lock()
					enter(true)
					if i%4 == 0 {
						runtime.Gosched()
					}
					p.Unlock()
				}
			}()
			close(start)
			done := make(chan struct{})
			go func() {
				contenders.Wait()
				stop.Store(true)
				writer.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				stop.Store(true)
				t.Fatalf("stalled (lost wake-up?): %s, %d queued", rind.Describe(l.cs), queued(l))
			}
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d exclusion violations", n)
			}
			if n := timedOut.Load(); n < wantAbandoned {
				t.Errorf("only %d timed acquisitions gave up in 30 s: the hammer left too few stale bits to mean anything", n)
			}
			t.Logf("%d timed acquisitions abandoned", timedOut.Load())
			wantFree(t, l)
		})
	}
}
