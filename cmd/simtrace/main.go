// Command simtrace replays a small lock scenario on the simulator and
// dumps the shared-memory event trace — every load, store, CAS, park
// and wake with virtual timestamps. It exists to make the algorithms
// inspectable: the interleaving that explains a throughput number (or a
// bug) can be read line by line.
//
// Usage:
//
//	simtrace [-lock roll] [-threads 3] [-ops 2] [-readpct 50]
//	         [-seed 1] [-max 400]
//
// Output columns: virtual time, thread, event, word id, value. After
// the trace the command prints the lock's obs counters (for
// instrumented kinds) and exits non-zero if any critical section saw
// the reader-writer exclusion invariant violated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
	"ollock/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// lockNames lists the simulated locks -lock accepts, from the registry.
func lockNames() string {
	names := make([]string, len(simlock.Locks))
	for i, f := range simlock.Locks {
		names[i] = f.Name
	}
	return strings.Join(names, ", ")
}

// run is the command: arguments in, output and exit status out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lockName := fs.String("lock", "roll", "lock to trace: "+lockNames())
	threads := fs.Int("threads", 3, "simulated threads")
	ops := fs.Int("ops", 2, "acquisitions per thread")
	readPct := fs.Float64("readpct", 50, "percentage of read acquisitions")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	max := fs.Int("max", 400, "maximum events to print (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	f := simlock.ByName(*lockName)
	if f == nil {
		fmt.Fprintf(stderr, "simtrace: unknown lock %q; have %s\n", *lockName, lockNames())
		return 2
	}

	cfg := sim.T5440()
	cfg.MaxSteps = 10_000_000
	m := sim.New(cfg)
	printed := 0
	truncated := false
	m.SetTrace(func(e sim.Event) {
		if *max > 0 && printed >= *max {
			truncated = true
			return
		}
		printed++
		switch e.Kind {
		case sim.EvSpinWake:
			fmt.Fprintf(stdout, "%8d  t%-3d %-5s w%-4d = %-6d (by t%d)\n",
				e.Time, e.Thread, e.Kind, e.Word, e.Value, e.Waker)
		case sim.EvWork:
			fmt.Fprintf(stdout, "%8d  t%-3d %-5s %d cycles\n", e.Time, e.Thread, e.Kind, e.Value)
		default:
			fmt.Fprintf(stdout, "%8d  t%-3d %-5s w%-4d = %d\n", e.Time, e.Thread, e.Kind, e.Word, e.Value)
		}
	})

	l := f.New(m, *threads)
	// Host-side invariant counters are safe: simulated threads execute
	// one at a time, and the Work call inside each critical section
	// opens the interleaving window that would expose a broken lock.
	var readers, writers, violations int
	for i := 0; i < *threads; i++ {
		p := l.NewProc(i)
		rng := xrand.New(*seed + uint64(i)*977)
		m.Spawn(func(c *sim.Ctx) {
			for j := 0; j < *ops; j++ {
				if rng.Bool(*readPct / 100) {
					p.RLock(c)
					readers++
					if writers != 0 {
						violations++
					}
					c.Work(10)
					if writers != 0 {
						violations++
					}
					readers--
					p.RUnlock(c)
				} else {
					p.Lock(c)
					writers++
					if writers != 1 || readers != 0 {
						violations++
					}
					c.Work(10)
					if writers != 1 || readers != 0 {
						violations++
					}
					writers--
					p.Unlock(c)
				}
			}
		})
	}
	cycles := m.Run()
	if truncated {
		fmt.Fprintf(stdout, "... trace truncated at %d events (-max)\n", *max)
	}
	fmt.Fprintf(stdout, "done: %s, %d threads x %d ops, %d virtual cycles, %d scheduler steps, %d words\n",
		f.Name, *threads, *ops, cycles, m.Steps(), m.Words())
	if st := simlock.StatsOf(l); st != nil {
		sn := st.Snapshot()
		fmt.Fprintln(stdout, "counters:")
		for _, name := range sn.Names() {
			fmt.Fprintf(stdout, "  %-24s %d\n", name, sn.Counters[name])
		}
		hists := make([]string, 0, len(sn.Hists))
		for name := range sn.Hists {
			hists = append(hists, name)
		}
		sort.Strings(hists)
		for _, name := range hists {
			h := sn.Hists[name]
			fmt.Fprintf(stdout, "  %-24s count=%d p50=%d p99=%d max=%d (cycles)\n",
				name, h.Count, h.P50, h.P99, h.Max)
		}
	}
	if violations != 0 {
		fmt.Fprintf(stderr, "simtrace: %d exclusion invariant violations\n", violations)
		return 1
	}
	return 0
}
