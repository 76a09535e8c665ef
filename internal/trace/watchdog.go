// Stall watchdog: a background goroutine that polls the stall words
// every waiting Local publishes (see Local.Begin) and, when a waiter
// has been stuck in one phase past a threshold, writes a post-mortem
// dump of the lock's live wait-queue/indicator state through the
// StateDumpers registered on the lock (LockTrace.AddDumper).
//
// The watchdog is strictly an observer: it reads the padded stall
// words, never the rings the procs are writing, and the dumpers it
// calls are read-only descriptions of lock state. Each distinct stall
// (same proc, same wait-start) is reported once.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Stall describes one waiter stuck past the watchdog threshold.
type Stall struct {
	Lock   string
	LockID uint16
	Proc   int32
	Phase  Phase
	Since  int64 // wait-start, ns since the tracer epoch
	Waited time.Duration
}

// Watchdog polls a Tracer's waiters for stalls.
type Watchdog struct {
	tr        *Tracer
	threshold time.Duration
	interval  time.Duration
	out       io.Writer

	// rec is a watchdog-owned ring so stalls also appear as KindStall
	// events in the recording, attributed to the stuck (lock, proc)
	// track. Only the watchdog writes it (single-writer rule).
	rec *Local

	mu   sync.Mutex
	seen map[uint64]int64 // (lock,proc) -> wait-start already reported
	stop chan struct{}
	done chan struct{}
}

// NewWatchdog returns a watchdog reporting waiters stuck longer than
// threshold to out. Call Start to begin polling (at threshold/4, at
// least every millisecond), or CheckNow to poll synchronously (tests,
// lockmon watch). A nil tracer yields an inert watchdog.
func NewWatchdog(tr *Tracer, threshold time.Duration, out io.Writer) *Watchdog {
	w := &Watchdog{tr: tr, threshold: threshold, out: out, seen: map[uint64]int64{}}
	w.interval = threshold / 4
	if w.interval < time.Millisecond {
		w.interval = time.Millisecond
	}
	if tr != nil {
		w.rec = &Local{tr: tr, proc: -1}
		w.rec.ring.init(256)
		tr.mu.Lock()
		tr.locals = append(tr.locals, w.rec)
		tr.mu.Unlock()
	}
	return w
}

// Start launches the polling goroutine. Stop terminates it.
func (w *Watchdog) Start() {
	if w.tr == nil || w.stop != nil {
		return
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		tick := time.NewTicker(w.interval)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.CheckNow()
			}
		}
	}()
}

// Stop terminates the polling goroutine and waits for it to exit.
func (w *Watchdog) Stop() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
	w.stop, w.done = nil, nil
}

// CheckNow scans every waiter once, dumping state for each new stall,
// and returns the stalls found (reported or not). It must not be
// called concurrently with itself or with a running Start loop.
func (w *Watchdog) CheckNow() []Stall {
	if w.tr == nil {
		return nil
	}
	w.tr.mu.Lock()
	locals := append([]*Local(nil), w.tr.locals...)
	w.tr.mu.Unlock()
	now := w.tr.Now()
	var stalls []Stall
	for _, l := range locals {
		ph, since, ok := l.stall()
		if !ok {
			continue
		}
		waited := time.Duration(now - since)
		if waited < w.threshold {
			continue
		}
		s := Stall{
			Lock: w.tr.LockName(l.lock), LockID: l.lock, Proc: l.proc,
			Phase: ph, Since: since, Waited: waited,
		}
		stalls = append(stalls, s)
		key := uint64(l.lock)<<32 | uint64(uint32(l.proc))
		w.mu.Lock()
		dup := w.seen[key] == since
		if !dup {
			w.seen[key] = since
		}
		w.mu.Unlock()
		if dup {
			continue
		}
		w.rec.ring.put(now,
			uint64(KindStall)<<56|uint64(ph)<<48|uint64(l.lock)<<32|uint64(uint32(l.proc)),
			uint64(waited))
		w.report(s)
	}
	return stalls
}

// report writes the stall header and the lock's live-state dump.
func (w *Watchdog) report(s Stall) {
	if w.out == nil {
		return
	}
	fmt.Fprintf(w.out, "trace watchdog: proc %d of lock %q stuck in %s for %v\n",
		s.Proc, s.Lock, s.Phase, s.Waited.Round(time.Millisecond))
	dumpers := w.tr.dumpersOf(s.LockID)
	if len(dumpers) == 0 {
		fmt.Fprintf(w.out, "  (no state dumpers registered for this lock)\n")
		return
	}
	fmt.Fprintf(w.out, "--- live state of %q ---\n", s.Lock)
	for _, d := range dumpers {
		d.DumpLockState(w.out)
	}
	fmt.Fprintf(w.out, "--- end state ---\n")
}
