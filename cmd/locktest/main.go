// Command locktest stress-tests the reader-writer locks for exclusion
// violations: goroutines hammer one lock with a random read/write mix
// while every critical section checks the invariant (at most one writer,
// never a writer concurrent with readers, writers keep a two-word
// guarded value consistent).
//
// Usage:
//
//	locktest [-lock goll|foll|roll|...|all] [-threads N] [-ops N]
//	         [-readpct 0..100] [-seed N] [-upgrade] [-latency]
//	locktest -chaos [-threads N] [-ops N] [-seed N] [-chaos-timeout D]
//
// Every result line carries the seed, so a failure replays with -seed.
// Exits 1 if any violation is detected, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ollock/internal/harness"
	"ollock/internal/locksuite"
	"ollock/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: arguments in, output and exit status out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("locktest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lockFlag := fs.String("lock", "all", "lock to test (see -list) or all")
	threads := fs.Int("threads", 16, "concurrent goroutines")
	ops := fs.Int("ops", 50000, "operations per goroutine")
	readPct := fs.Float64("readpct", 90, "percentage of read acquisitions")
	seed := fs.Uint64("seed", uint64(time.Now().UnixNano()), "PRNG seed (printed on every result line)")
	upgrade := fs.Bool("upgrade", false, "also exercise TryUpgrade/Downgrade on locks that support it")
	latency := fs.Bool("latency", false, "also report per-kind acquisition latency")
	list := fs.Bool("list", false, "list available locks and exit")
	chaosRun := fs.Bool("chaos", false, "run the chaos cancellation torture matrix (every cancellable kind x indicator x wait policy under fault injection) and exit")
	chaosTimeout := fs.Duration("chaos-timeout", 2*time.Minute, "per-cell watchdog for -chaos")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *chaosRun {
		if !chaosTorture(stdout, *threads, *ops, *seed, *chaosTimeout) {
			return 1
		}
		return 0
	}
	if *list {
		for _, impl := range locksuite.Locks {
			fmt.Fprintln(stdout, impl.Name)
		}
		return 0
	}
	var impls []locksuite.Impl
	if *lockFlag == "all" {
		impls = locksuite.Locks
	} else {
		for _, name := range strings.Split(*lockFlag, ",") {
			impl := locksuite.ByName(strings.TrimSpace(name))
			if impl == nil {
				fmt.Fprintf(stderr, "locktest: unknown lock %q (use -list)\n", name)
				return 2
			}
			impls = append(impls, *impl)
		}
	}

	code := 0
	for _, impl := range impls {
		violations, elapsed := stress(impl, *threads, *ops, *readPct/100, *seed, *upgrade)
		status := "ok"
		if violations != 0 {
			status = fmt.Sprintf("FAILED (%d violations)", violations)
			code = 1
		}
		total := float64(*threads) * float64(*ops)
		fmt.Fprintf(stdout, "%-14s %8d goroutines x %d ops (%.0f%% reads) seed=%d: %-28s %.2e acq/s\n",
			impl.Name, *threads, *ops, *readPct, *seed, status, total/elapsed.Seconds())
		if *latency {
			lr := harness.RunLatency(harness.Config{
				Impl:         impl,
				Threads:      *threads,
				ReadFraction: *readPct / 100,
				OpsPerThread: *ops / 5,
				Seed:         *seed,
			})
			fmt.Fprintf(stdout, "%-14s   latency: read mean %v p50 %v p99 %v max %v | write mean %v p50 %v p99 %v max %v\n",
				"", lr.Read.Mean, lr.Read.P50, lr.Read.P99, lr.Read.Max,
				lr.Write.Mean, lr.Write.P50, lr.Write.P99, lr.Write.Max)
		}
	}
	return code
}

func stress(impl locksuite.Impl, threads, ops int, readFrac float64, seed uint64, upgrade bool) (int64, time.Duration) {
	mk := impl.New(threads)
	var readers, writers atomic.Int32
	var violations atomic.Int64
	var a, b int64 // writer-guarded pair: a == b outside writer sections
	check := func(cond bool) {
		if !cond {
			violations.Add(1)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := mk()
			u, canUpgrade := p.(locksuite.Upgrader)
			rng := xrand.New(seed + uint64(id)*0x9E3779B9 + 1)
			for i := 0; i < ops; i++ {
				if rng.Bool(readFrac) {
					p.RLock()
					readers.Add(1)
					check(writers.Load() == 0)
					check(a == b)
					if upgrade && canUpgrade && rng.Bool(0.05) && u.TryUpgrade() {
						readers.Add(-1)
						check(writers.Add(1) == 1)
						a++
						b++
						writers.Add(-1)
						if rng.Bool(0.5) {
							u.Downgrade()
							readers.Add(1)
							check(a == b)
							readers.Add(-1)
							p.RUnlock()
						} else {
							p.Unlock()
						}
						continue
					}
					readers.Add(-1)
					p.RUnlock()
				} else {
					p.Lock()
					check(writers.Add(1) == 1)
					check(readers.Load() == 0)
					a++
					check(a == b+1)
					b++
					writers.Add(-1)
					p.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	return violations.Load(), time.Since(start)
}
