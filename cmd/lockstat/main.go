// Command lockstat demonstrates the WithStats instrumentation facade:
// it runs a short real-goroutine workload against each instrumented
// lock kind and prints the resulting counter snapshot — the quickest
// way to see which internal paths (C-SNZI tree arrivals, reader-group
// joins, ROLL overtakes, BRAVO bias transitions) a given read/write
// mix actually exercises.
//
// Usage:
//
//	lockstat [-lock goll,roll,...|all] [-indicator csnzi|central|sharded]
//	         [-threads N] [-ops N] [-readpct 0..100] [-seed N] [-json]
//	         [-trace out.json]
//
// The -indicator flag selects the read indicator backing the OLL locks
// (ollock.WithIndicator); every indicator reports through the same
// csnzi.* counter names, so the tables stay comparable across choices.
//
// With -json the full snapshots are emitted as a JSON object keyed by
// kind (ollock.Snapshot: counters and histogram summaries by name).
//
// With -trace the run is additionally flight-recorded (ollock.WithTrace)
// and the recording is written to the named file in the same JSON shape
// cmd/locktrace records — convert it with "locktrace export" or fold it
// with "locktrace top".
//
// With -prom the final counters of every kind are also written to the
// named file in Prometheus text exposition format (one labeled series
// per kind, the same shape cmd/lockmon serves live) — validate it with
// "lockmon checkfmt".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"ollock"
	"ollock/internal/xrand"
)

// instrumented lists the kinds that carry obs instrumentation, read
// from the kind registry's capability flags.
var instrumented = func() []ollock.Kind {
	var out []ollock.Kind
	for _, info := range ollock.KindInfos() {
		if info.Instrumented {
			out = append(out, info.Kind)
		}
	}
	return out
}()

func main() {
	lockFlag := flag.String("lock", "all", "comma-separated lock kinds, or all instrumented kinds")
	indicator := flag.String("indicator", "csnzi", "read indicator for the OLL locks: csnzi, central or sharded")
	threads := flag.Int("threads", 8, "concurrent goroutines")
	ops := flag.Int("ops", 20000, "acquisitions per goroutine")
	readPct := flag.Float64("readpct", 95, "percentage of read acquisitions")
	seed := flag.Uint64("seed", 42, "PRNG seed")
	asJSON := flag.Bool("json", false, "emit snapshots as JSON instead of tables")
	traceOut := flag.String("trace", "", "also flight-record the run and write the recording (JSON) to this file")
	promOut := flag.String("prom", "", "also write the final counters to this file in Prometheus exposition format")
	flag.Parse()

	var tracer *ollock.Tracer
	if *traceOut != "" {
		tracer = ollock.NewTracer(0)
	}
	var mtr *ollock.Metrics
	if *promOut != "" {
		mtr = ollock.NewMetrics()
	}

	var kinds []ollock.Kind
	if *lockFlag == "all" {
		kinds = instrumented
	} else {
		for _, name := range strings.Split(*lockFlag, ",") {
			kinds = append(kinds, ollock.Kind(strings.TrimSpace(name)))
		}
	}

	snaps := map[string]ollock.Snapshot{}
	for _, kind := range kinds {
		opts := []ollock.Option{
			ollock.WithStats(""),
			ollock.WithIndicator(ollock.IndicatorKind(*indicator)),
		}
		if tracer != nil {
			opts = append(opts, ollock.WithTrace(tracer.Register(string(kind))))
		}
		if mtr != nil {
			opts = append(opts, ollock.WithMetrics(mtr))
		}
		l, err := ollock.New(kind, *threads, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(2)
		}
		run(l, *threads, *ops, *readPct/100, *seed)
		sn, ok := ollock.SnapshotOf(l)
		if !ok {
			fmt.Fprintf(os.Stderr, "lockstat: kind %q has no instrumentation\n", kind)
			os.Exit(2)
		}
		snaps[string(kind)] = sn
		if !*asJSON {
			printTable(kind, sn)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snaps); err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(1)
		}
	}
	if mtr != nil {
		mtr.Sample()
		f, err := os.Create(*promOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(1)
		}
		if err := mtr.WritePrometheus(f); err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lockstat: wrote Prometheus exposition to %s\n", *promOut)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(1)
		}
		rec := tracer.Record()
		if err := rec.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lockstat: wrote %d trace events to %s\n", len(rec.Events), *traceOut)
	}
}

// run drives the §5.1 workload shape: every goroutine loops over
// acquisitions, choosing read vs. write from a private PRNG.
func run(l ollock.Lock, threads, ops int, readFrac float64, seed uint64) {
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := l.NewProc()
			rng := xrand.New(seed + uint64(id)*0x9E3779B9 + 1)
			for i := 0; i < ops; i++ {
				if rng.Bool(readFrac) {
					p.RLock()
					p.RUnlock()
				} else {
					p.Lock()
					p.Unlock()
				}
			}
		}(t)
	}
	wg.Wait()
}

func printTable(kind ollock.Kind, sn ollock.Snapshot) {
	fmt.Printf("%s\n", kind)
	for _, name := range sn.Names() {
		fmt.Printf("  %-24s %12d\n", name, sn.Counters[name])
	}
	hists := make([]string, 0, len(sn.Hists))
	for name := range sn.Hists {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := sn.Hists[name]
		fmt.Printf("  %-24s count=%d p50=%dns p99=%dns max=%dns\n",
			name, h.Count, h.P50, h.P99, h.Max)
	}
	fmt.Println()
}
