// Command simfair measures the fairness side of the Figure 5 tradeoff
// on the simulated T5440: per-kind acquisition latency (cycles from
// acquire call to ownership) for each lock under a read-heavy mix.
//
// The paper evaluates throughput only; this companion experiment
// quantifies what each policy costs the minority writers — FIFO (FOLL)
// bounds writer latency, reader preference (ROLL) trades it away, and
// the Solaris policy (GOLL) sits between.
//
// Usage:
//
//	simfair [-threads 1,8,64,...] [-readpct 99] [-ops N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: arguments in, output and exit status out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simfair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threadsFlag := fs.String("threads", "8,64,192", "comma-separated thread counts")
	readPct := fs.Float64("readpct", 99, "percentage of read acquisitions")
	ops := fs.Int("ops", 200, "acquisitions per simulated thread")
	seed := fs.Uint64("seed", 42, "PRNG seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	threads, err := parseInts(*threadsFlag)
	if err != nil {
		fmt.Fprintln(stderr, "simfair:", err)
		return 2
	}

	fmt.Fprintf(stdout, "Acquisition latency (cycles), simulated T5440, %.0f%% reads\n\n", *readPct)
	for _, n := range threads {
		fmt.Fprintf(stdout, "threads = %d\n", n)
		fmt.Fprintf(stdout, "  %-9s %12s %12s %12s %12s %12s %12s %12s\n",
			"lock", "read mean", "read p99", "read max", "write mean", "write p99", "write max", "acq/s")
		for _, f := range simlock.Figure5Locks() {
			r := simlock.RunLatencyExperiment(f, sim.T5440(), n, *readPct/100, *ops, *seed)
			fmt.Fprintf(stdout, "  %-9s %12.0f %12d %12d %12.0f %12d %12d %12.3e\n",
				f.Name, r.Read.Mean, r.Read.P99, r.Read.Max,
				r.Write.Mean, r.Write.P99, r.Write.Max, r.Throughput)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 || v > 256 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
