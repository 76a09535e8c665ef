// Command bench is the repository's benchmark: three composite
// workloads (a one-goroutine host section and a simulated T5440 section
// each), fourteen gated end-to-end metrics, and a traced run that
// attributes them to layers. See README.md and ../BENCHMARK.json.
//
//	bash bench/run.sh -workload mix -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload mix -seed 1 -trace 1      # per-layer + trace files
//	bash bench/run.sh -compare a.jsonl b.jsonl            # apply the bounds
//	bash bench/run.sh -spec                               # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run: read, mix or write (default: all three)")
	seed := fs.Uint64("seed", 1, "seed every generated input is derived from")
	seconds := fs.Int("seconds", runSeconds, "measuring time; work sizes scale with it (1 is the quick size)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, switches off; 1: per-layer metrics, spans written to -outdir")
	outdir := fs.String("outdir", "bench/out", "directory for trace_<workload>.json and layers_<workload>.json")
	out := fs.String("out", "", "append each run's full record to this file, one JSON object per line (input of -compare)")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be 1..60, -trace 0 or 1, and no further arguments")
		return 2
	}
	todo := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		todo = []workload{*w}
	}
	code := 0
	for i := range todo {
		res := runWorkload(&todo[i], *seed, *seconds, *trace == 1, *outdir)
		printTable(res)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
		// The contract's result line: exactly these four keys.
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// printTable prints every metric by name with its unit, host rows with
// their quartiles and batch count, and anything skipped or wrong.
func printTable(res *result) {
	fmt.Printf("# workload %s seed %d seconds %d trace %v: %d ops attempted, %d failed\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed)
	set := endToEnd
	if res.Trace {
		set = perLayer
	}
	for _, m := range set {
		v := res.Metrics[m.Name]
		fmt.Printf("%-36s %16.6g %-6s", m.Name, v.Value, v.Unit)
		if r, ok := res.HostRows[m.Name]; ok {
			fmt.Printf(" p25 %.4g p75 %.4g n %d", r.P25, r.P75, r.Batches)
			if r.Unstable {
				fmt.Print(" unstable")
			}
		}
		fmt.Println()
	}
	// Raw host rungs that are not metrics of this run themselves.
	var names []string
	for n := range res.HostRows {
		if _, ok := res.Metrics[n]; !ok && !strings.HasPrefix(n, "host_") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		r := res.HostRows[n]
		fmt.Printf("# host %-29s %16.6g ns     p25 %.4g p75 %.4g n %d\n", n, r.Value, r.P25, r.P75, r.Batches)
	}
	names = names[:0]
	for n := range res.Ladders {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# ladder %s =", n)
		for _, s := range res.Ladders[n] {
			fmt.Printf(" %s %.2f", s.Layer, s.SelfNs)
		}
		fmt.Println()
	}
	for _, s := range res.Skipped {
		fmt.Println("# skipped", s)
	}
	for _, p := range res.Problems {
		fmt.Println("# problem", p)
	}
	for _, f := range res.Files {
		fmt.Println("# wrote", f)
	}
}

func appendRecord(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
