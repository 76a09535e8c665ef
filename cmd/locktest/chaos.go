package main

// The -chaos torture mode: every cancellable lock kind, crossed with
// every read indicator and wait policy the kind accepts, hammered by a
// mixed population of blocking, timed, context-cancelled, and try
// acquirers while a chaos fault injector (ollock.WithChaos) widens the
// race windows at the protocols' linearization points. Each critical
// section checks the reader-writer invariants; after the storm the
// runner proves the lock still works (no lost wakeup), and for the
// ring-pool locks that every abandoned node came back (no leaked pool
// node, no double recycle).

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ollock"
	"ollock/internal/xrand"
)

// chaosCombo is one cell of the torture matrix.
type chaosCombo struct {
	kind ollock.Kind
	ind  ollock.IndicatorKind // "" = kind default
	wait ollock.WaitMode      // "" = kind default
}

// chaosMatrix enumerates the cells: every Cancellable kind, crossed
// with the indicators and wait modes its capabilities admit.
func chaosMatrix() []chaosCombo {
	var out []chaosCombo
	for _, info := range ollock.KindInfos() {
		if !info.Cancellable {
			continue
		}
		inds := []ollock.IndicatorKind{""}
		if info.Indicator {
			inds = ollock.IndicatorKinds()
		}
		waits := []ollock.WaitMode{""}
		if info.Wait {
			waits = ollock.WaitModes()
		}
		for _, ind := range inds {
			for _, w := range waits {
				out = append(out, chaosCombo{kind: info.Kind, ind: ind, wait: w})
			}
		}
	}
	return out
}

func (c chaosCombo) String() string {
	s := string(c.kind)
	if c.ind != "" {
		s += "/" + string(c.ind)
	}
	if c.wait != "" {
		s += "/" + string(c.wait)
	}
	return s
}

// chaosTorture runs the full matrix; it reports whether every cell
// passed. Each cell gets a distinct derived seed so a failure report
// names the exact schedule to replay.
func chaosTorture(stdout io.Writer, threads, ops int, seed uint64, timeout time.Duration) bool {
	ok := true
	for i, c := range chaosMatrix() {
		cellSeed := seed + uint64(i)*0x9E3779B97F4A7C15
		res := runChaosCell(c, threads, ops, cellSeed, timeout)
		status := "ok"
		if res != "" {
			status = "FAILED: " + res
			ok = false
		}
		fmt.Fprintf(stdout, "chaos %-24s seed=%-20d %s\n", c, cellSeed, status)
	}
	return ok
}

// poolChecker is the quiescence diagnostic of the ring-pool locks.
type poolChecker interface {
	NodesInUse() int
	Idle() bool
}

// runChaosCell tortures one matrix cell; it returns "" on success or a
// description of the first violation.
func runChaosCell(c chaosCombo, threads, ops int, seed uint64, timeout time.Duration) string {
	opts := []ollock.Option{ollock.WithChaos(seed)}
	if c.ind != "" {
		opts = append(opts, ollock.WithIndicator(c.ind))
	}
	if c.wait != "" {
		opts = append(opts, ollock.WithWait(c.wait))
	}
	info, _ := ollock.InfoOf(c.kind)
	if !info.Instrumented {
		opts = opts[1:] // WithChaos rides the instrumentation seam
	}
	// threads workers plus the post-quiescence prober.
	l, err := ollock.New(c.kind, threads+1, opts...)
	if err != nil {
		return "New: " + err.Error()
	}

	var readers, writers atomic.Int32
	var violations atomic.Int64
	var timeouts, cancels atomic.Int64
	var a, b int64 // writer-guarded pair: a == b outside writer sections
	check := func(cond bool) {
		if !cond {
			violations.Add(1)
		}
	}
	readBody := func() {
		readers.Add(1)
		check(writers.Load() == 0)
		check(a == b)
		readers.Add(-1)
	}
	writeBody := func() {
		check(writers.Add(1) == 1)
		check(readers.Load() == 0)
		a++
		check(a == b+1)
		b++
		writers.Add(-1)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := l.NewProc().(ollock.DeadlineProc)
			rng := xrand.New(seed ^ (uint64(id)*0xBF58476D1CE4E5B9 + 1))
			for i := 0; i < ops; i++ {
				// Short, jittered bounds keep a healthy fraction of the
				// timed acquisitions expiring under contention while the
				// rest succeed — both outcomes exercised every run.
				d := time.Duration(1+rng.Intn(50)) * time.Microsecond
				switch draw := rng.Intn(100); {
				case draw < 35:
					p.RLock()
					readBody()
					p.RUnlock()
				case draw < 50:
					p.Lock()
					writeBody()
					p.Unlock()
				case draw < 70:
					if p.RLockFor(d) {
						readBody()
						p.RUnlock()
					} else {
						timeouts.Add(1)
					}
				case draw < 85:
					if p.LockFor(d) {
						writeBody()
						p.Unlock()
					} else {
						timeouts.Add(1)
					}
				case draw < 90:
					ctx, cancel := context.WithTimeout(context.Background(), d)
					if p.RLockCtx(ctx) == nil {
						readBody()
						p.RUnlock()
					} else {
						cancels.Add(1)
					}
					cancel()
				case draw < 95:
					ctx, cancel := context.WithTimeout(context.Background(), d)
					if p.LockCtx(ctx) == nil {
						writeBody()
						p.Unlock()
					} else {
						cancels.Add(1)
					}
					cancel()
				default:
					if p.TryLock() {
						writeBody()
						p.Unlock()
					} else if p.TryRLock() {
						readBody()
						p.RUnlock()
					}
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		return fmt.Sprintf("watchdog: workers stuck after %v (lost wakeup?)", timeout)
	}
	if v := violations.Load(); v != 0 {
		return fmt.Sprintf("%d invariant violations", v)
	}

	// Post-quiescence: the lock must still hand out both modes (a
	// leaked hand-off or double drain would wedge or corrupt here), and
	// the ring-pool locks must have every node back.
	post := make(chan string, 1)
	go func() {
		p := l.NewProc().(ollock.DeadlineProc)
		p.Lock()
		if a != b {
			post <- "guarded pair torn after quiescence"
			p.Unlock()
			return
		}
		p.Unlock()
		p.RLock()
		p.RUnlock()
		post <- ""
	}()
	select {
	case msg := <-post:
		if msg != "" {
			return msg
		}
	case <-time.After(timeout):
		return "post-quiescence acquisition stuck (lock wedged)"
	}
	target := l
	if bw, ok := l.(*ollock.BravoLock); ok {
		target = bw.Base()
	}
	if pc, ok := target.(poolChecker); ok {
		// A quiescent lock holds at most one ring node: the resting
		// reader tail group (1) or nothing after a writer drained the
		// queue (0). More means a leaked abandoned node.
		if n := pc.NodesInUse(); n > 1 {
			return fmt.Sprintf("ring pool: %d nodes in use after quiescence, want <= 1 (leaked node)", n)
		}
		// Idle covers the pool too: every free ring node must be back
		// at rest (no stale link, flag lowered, indicator closed and
		// drained) — the state the enqueue sites' elided resets assume.
		if !pc.Idle() {
			return "lock not idle after quiescence (queue occupied, or a free ring node not at rest)"
		}
	}
	if cnt, ok := ollock.ChaosCountOf(l); ok && cnt == 0 && ops*threads >= 1000 {
		return "chaos injector never fired (seam unplugged?)"
	}
	return ""
}
