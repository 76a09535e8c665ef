// Command simfig5 regenerates the paper's Figure 5 on the simulated
// T5440 (4 chips × 64 hardware threads): throughput (acquires/s) versus
// thread count for the GOLL, FOLL, ROLL, KSUH and Solaris-like locks at
// each of the paper's read percentages.
//
// Usage:
//
//	simfig5 [-panel a|b|c|d|e|f|all] [-threads 1,2,...] [-ops N]
//	        [-runs N] [-seed N] [-locks goll,foll,...] [-csv] [-plot]
//
// The default thread list spans 1..256 with the paper's x-axis density;
// output is one table per panel (threads as rows, locks as columns),
// CSV with -csv, or an ASCII log-scale chart with -plot — the fastest
// way to compare curve shapes against the paper. Runs are deterministic
// for a given seed; -runs averages over seed+i per the paper's 3-run
// methodology.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ollock/internal/plot"
	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

var panels = map[string]float64{
	"a": 1.00, "b": 0.99, "c": 0.95, "d": 0.80, "e": 0.50, "f": 0.00,
}

var panelOrder = []string{"a", "b", "c", "d", "e", "f"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: arguments in, output and exit status out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simfig5", flag.ContinueOnError)
	fs.SetOutput(stderr)
	panel := fs.String("panel", "all", "panel to regenerate: a (100% reads), b (99%), c (95%), d (80%), e (50%), f (0%), or all")
	threadsFlag := fs.String("threads", "1,2,4,8,16,32,48,64,96,128,192,256", "comma-separated thread counts")
	ops := fs.Int("ops", 200, "acquisitions per simulated thread")
	runs := fs.Int("runs", 1, "runs to average (paper uses 3)")
	seed := fs.Uint64("seed", 42, "base PRNG seed")
	locksFlag := fs.String("locks", "", "comma-separated lock subset (default: the paper's five)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	asPlot := fs.Bool("plot", false, "draw ASCII charts instead of tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	threads, err := parseInts(*threadsFlag)
	if err != nil {
		fmt.Fprintln(stderr, "simfig5:", err)
		return 2
	}
	locks := simlock.Figure5Locks()
	if *locksFlag != "" {
		locks = locks[:0]
		for _, name := range strings.Split(*locksFlag, ",") {
			f := simlock.ByName(strings.TrimSpace(name))
			if f == nil {
				fmt.Fprintf(stderr, "simfig5: unknown lock %q\n", name)
				return 2
			}
			locks = append(locks, *f)
		}
	}
	var selected []string
	if *panel == "all" {
		selected = panelOrder
	} else if _, ok := panels[*panel]; ok {
		selected = []string{*panel}
	} else {
		fmt.Fprintf(stderr, "simfig5: unknown panel %q\n", *panel)
		return 2
	}

	if *csv {
		fmt.Fprintln(stdout, "panel,read_pct,lock,threads,throughput_acq_per_s")
	}
	for _, p := range selected {
		frac := panels[p]
		// Measure the full panel first (results[lock][threadIdx]).
		results := make([][]float64, len(locks))
		for li, l := range locks {
			results[li] = make([]float64, len(threads))
			for ti, n := range threads {
				var sum float64
				for r := 0; r < *runs; r++ {
					res := simlock.RunExperiment(l, sim.T5440(), n, frac, *ops, *seed+uint64(r)*7919)
					sum += res.Throughput
				}
				results[li][ti] = sum / float64(*runs)
			}
		}
		title := fmt.Sprintf("Figure 5(%s): %.0f%% reads — simulated T5440, %d ops/thread, %d run(s)",
			p, frac*100, *ops, *runs)
		switch {
		case *csv:
			for li, l := range locks {
				for ti, n := range threads {
					fmt.Fprintf(stdout, "%s,%.0f,%s,%d,%.6e\n", p, frac*100, l.Name, n, results[li][ti])
				}
			}
		case *asPlot:
			series := make([]plot.Series, len(locks))
			for li, l := range locks {
				xs := make([]float64, len(threads))
				for ti, n := range threads {
					xs[ti] = float64(n)
				}
				series[li] = plot.Series{Name: l.Name, X: xs, Y: results[li]}
			}
			if err := plot.Render(stdout, title, series, 72, 18); err != nil {
				fmt.Fprintln(stderr, "simfig5:", err)
				return 1
			}
			fmt.Fprintln(stdout)
		default:
			fmt.Fprintln(stdout, title)
			fmt.Fprintf(stdout, "%-9s", "threads")
			for _, l := range locks {
				fmt.Fprintf(stdout, " %12s", l.Name)
			}
			fmt.Fprintln(stdout)
			for ti, n := range threads {
				fmt.Fprintf(stdout, "%-9d", n)
				for li := range locks {
					fmt.Fprintf(stdout, " %12.3e", results[li][ti])
				}
				fmt.Fprintln(stdout)
			}
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		if v > 256 {
			return nil, fmt.Errorf("thread count %d exceeds the T5440's 256 hardware threads", v)
		}
		out = append(out, v)
	}
	return out, nil
}
