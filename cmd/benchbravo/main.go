// Command benchbravo runs the BRAVO read-ratio sweep on the simulated
// T5440 and emits a machine-readable JSON series — the perf-trajectory
// artifact behind `make bench-json` (BENCH_bravo.json).
//
// For each base lock (goll, roll) it measures the bravo-wrapped and
// unwrapped variants at every read percentage of the paper's Figure 5
// (100/99/95/80/50/0), averaging over -runs seeded runs (default 3, the
// paper's methodology). The sweep also carries a read-indicator
// dimension (ollock.WithIndicator): the default C-SNZI keeps the full
// grid, and the central and sharded indicators are measured at the
// 100/99/0 read percentages. These sim rows (env "sim") are
// deterministic for a given seed, so they are reproducible bit-for-bit
// on any host.
//
// A second section (env "host", rows with oversub > 0) measures the
// wait-policy dimension (ollock.WithWait) on real goroutines: for each
// OLL lock (goll, roll), wait policy (spin, adaptive) and
// oversubscription multiplier (goroutines = N x GOMAXPROCS), it runs
// the harness workload at two read mixes and reports throughput,
// speedup over the pure-spin policy at the same point, and p99
// acquisition latencies. These rows are host-dependent; their purpose
// is the relative ordering (the parking policy must win when goroutines
// outnumber GOMAXPROCS), not absolute numbers.
//
// Usage:
//
//	benchbravo [-threads 64,256] [-ops N] [-runs N] [-seed N]
//	           [-oversub 1,4,16] [-oversubops N] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"ollock"
	"ollock/internal/harness"
	"ollock/internal/lockcore"
	"ollock/internal/locksuite"
	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

// Series is one measured point. In the sim section it is a (lock,
// indicator, threads, read-ratio) point with its unwrapped base
// alongside so the wrapper's effect is self-contained; in the host
// section it is a (lock, wait-policy, oversubscription, read-ratio)
// point whose base is the pure-spin policy at the same coordinates.
type Series struct {
	// Env is "sim" for deterministic simulated rows and "host" for
	// real-goroutine oversubscription rows.
	Env  string `json:"env"`
	Lock string `json:"lock"`
	Base string `json:"base"`
	// Indicator is the read indicator backing both the wrapped and the
	// base lock (csnzi, central, sharded; see ollock.WithIndicator).
	Indicator string `json:"indicator"`
	// WaitPolicy is the wait mode of ollock.WithWait (spin, adaptive).
	// Sim rows always use spin (the paper's behavior).
	WaitPolicy string `json:"wait_policy"`
	// Oversub is the oversubscription multiplier of a host row
	// (goroutines = Oversub x GOMAXPROCS); 0 marks a sim row, where
	// simulated threads never outnumber the simulated cores.
	Oversub          int     `json:"oversub"`
	Threads          int     `json:"threads"`
	ReadFraction     float64 `json:"read_fraction"`
	Runs             int     `json:"runs"`
	Throughput       float64 `json:"throughput_acq_per_s"`
	BaseThroughput   float64 `json:"base_throughput_acq_per_s"`
	Speedup          float64 `json:"speedup"`
	FastReadFraction float64 `json:"fast_read_fraction"`
	Revocations      int64   `json:"revocations"`
	// P99ReadNs / P99WriteNs are host-row p99 acquisition latencies in
	// nanoseconds (harness.RunLatency); zero on sim rows.
	P99ReadNs  int64 `json:"p99_read_ns"`
	P99WriteNs int64 `json:"p99_write_ns"`
	// BiasArms counts slow-path bias re-arms (bravo.bias.arm), summed
	// over runs.
	BiasArms int64 `json:"bias_arms"`
	// TreeArriveFraction is the share of C-SNZI arrivals diverted to
	// the leaf tree: csnzi.arrive.tree / (tree + root). Zero when no
	// arrival reached the underlying lock (pure fast-path regimes).
	TreeArriveFraction float64 `json:"tree_arrive_fraction"`
	// Counters is the lock stack's full obs counter set (csnzi.*,
	// goll.*/roll.*, bravo.*), summed over runs.
	Counters map[string]uint64 `json:"counters"`
	// Metrics is the sampled-metrics view of the row: the derived rates
	// the pathology doctor evaluates (see ALGORITHMS.md §14), so
	// trajectory dashboards can track revocation and park churn without
	// reprocessing the raw counters.
	Metrics MetricsSummary `json:"metrics"`
}

// MetricsSummary carries per-acquisition rates derived the same way
// internal/doctor derives its signals: reads are bravo fast reads plus
// C-SNZI arrivals, writes are the write-wait histogram counts (exactly
// one observation per write acquisition).
type MetricsSummary struct {
	// RevocationsPerRead is bravo.revoke per read acquisition — the
	// bias-thrash signal (0 for unwrapped rows and all-write mixes).
	RevocationsPerRead float64 `json:"revocations_per_read"`
	// ParksPerAcquire is park.park per acquisition — the park-storm
	// signal (0 under the spin policy, which never parks).
	ParksPerAcquire float64 `json:"parks_per_acquire"`
}

// summarize derives the MetricsSummary from summed counters and the
// summed write-acquisition count.
func summarize(counters map[string]uint64, writes uint64) MetricsSummary {
	var s MetricsSummary
	reads := counters["bravo.read.fast"] + counters["csnzi.arrive.root"] + counters["csnzi.arrive.tree"]
	if reads > 0 {
		s.RevocationsPerRead = float64(counters["bravo.revoke"]) / float64(reads)
	}
	if acq := reads + writes; acq > 0 {
		s.ParksPerAcquire = float64(counters["park.park"]) / float64(acq)
	}
	return s
}

// Output is the BENCH_bravo.json document.
type Output struct {
	Tool    string   `json:"tool"`
	Machine string   `json:"machine"`
	Ops     int      `json:"ops_per_thread"`
	Seed    uint64   `json:"seed"`
	Series  []Series `json:"series"`
}

var readFractions = []float64{1.00, 0.99, 0.95, 0.80, 0.50, 0.00}

// indicatorFractions is the reduced sweep for the non-default
// indicators: the read-dominated regimes the indicator choice is about,
// plus the all-writer floor.
var indicatorFractions = []float64{1.00, 0.99, 0.00}

// indicators lists the read-indicator dimension of the sweep; csnzi is
// the default and keeps the full read-fraction grid.
var indicators = []string{"csnzi", "central", "sharded"}

// oversubFractions are the host-section read mixes: the read-dominated
// regime where BRAVO-style fast reads matter, the balanced mix where
// writer handoff dominates, and the all-writer floor — the pure
// lock-convoy regime where parking pays off hardest.
var oversubFractions = []float64{0.95, 0.50, 0.00}

// factories returns the (base, bravo-wrapped) factory pair for a base
// lock over the named indicator. The default csnzi uses the registered
// factories; the others use the lock × indicator matrix entries, with
// the wrapper built inline (NewBravo adopts the base's stats block
// either way).
// biasBases lists the base kinds of the registry's pre-biased wrapper
// kinds (bravo-goll → goll, ...), in registry order — the pairs this
// benchmark compares.
func biasBases() []string {
	var out []string
	for _, d := range lockcore.Descs() {
		if d.ForceBias {
			out = append(out, d.BiasBase)
		}
	}
	return out
}

// biasBaseKinds is biasBases as ollock.Kind values for the host section.
func biasBaseKinds() []ollock.Kind {
	var out []ollock.Kind
	for _, name := range biasBases() {
		out = append(out, ollock.Kind(name))
	}
	return out
}

func factories(baseName, indicator string) (base, wrapped simlock.Factory, err error) {
	lookup := func(name string) (simlock.Factory, error) {
		f := simlock.ByName(name)
		if f == nil {
			return simlock.Factory{}, fmt.Errorf("missing factory for %s", name)
		}
		return *f, nil
	}
	if indicator == "csnzi" {
		if base, err = lookup(baseName); err != nil {
			return
		}
		wrapped, err = lookup("bravo-" + baseName)
		return
	}
	if base, err = lookup(baseName + "-" + indicator); err != nil {
		return
	}
	wrapped = simlock.Factory{
		Name: "bravo-" + baseName,
		New: func(m *sim.Machine, n int) simlock.Lock {
			return simlock.NewBravo(m, n, base.New(m, n))
		},
	}
	return
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status made explicit, so the
// sweep can be driven in-process by the tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchbravo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threadsFlag := fs.String("threads", "64,256", "comma-separated simulated thread counts")
	ops := fs.Int("ops", 120, "acquisitions per simulated thread")
	runs := fs.Int("runs", 3, "seeded runs to average (paper uses 3)")
	seed := fs.Uint64("seed", 42, "base PRNG seed")
	oversub := fs.String("oversub", "1,4,16", "comma-separated host oversubscription multipliers (goroutines = mult x GOMAXPROCS); empty disables the host section")
	oversubOps := fs.Int("oversubops", 500000, "acquisitions per goroutine in the host oversubscription section (large enough that each goroutine outlives a scheduler slice, so real lock convoys form)")
	out := fs.String("out", "", "write JSON here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	threads, err := parseInts(*threadsFlag)
	if err != nil {
		fmt.Fprintln(stderr, "benchbravo:", err)
		return 2
	}

	doc := Output{Tool: "benchbravo", Machine: "sim-T5440", Ops: *ops, Seed: *seed}
	for _, baseName := range biasBases() {
		for _, indicator := range indicators {
			base, wrapped, err := factories(baseName, indicator)
			if err != nil {
				fmt.Fprintln(stderr, "benchbravo:", err)
				return 1
			}
			fracs := readFractions
			if indicator != "csnzi" {
				fracs = indicatorFractions
			}
			for _, n := range threads {
				for _, frac := range fracs {
					s := Series{
						Env: "sim", Lock: wrapped.Name, Base: baseName,
						Indicator: indicator, WaitPolicy: "spin",
						Threads: n, ReadFraction: frac, Runs: *runs,
					}
					var fast, slow, revs int64
					var writes uint64
					counters := map[string]uint64{}
					for r := 0; r < *runs; r++ {
						runSeed := *seed + uint64(r)
						// Re-create the wrapped lock per run to read its
						// counters.
						m := simlock.RunInstrumented(wrapped, sim.T5440(), n, frac, *ops, runSeed)
						s.Throughput += m.Result.Throughput
						fast += m.FastReads
						slow += m.SlowReads
						revs += m.Revocations
						for k, v := range m.Snapshot.Counters {
							counters[k] += v
						}
						for name, h := range m.Snapshot.Hists {
							if strings.HasSuffix(name, ".write.wait") {
								writes += h.Count
							}
						}
						b := simlock.RunExperiment(base, sim.T5440(), n, frac, *ops, runSeed)
						s.BaseThroughput += b.Throughput
					}
					s.Counters = counters
					s.Metrics = summarize(counters, writes)
					s.BiasArms = int64(counters["bravo.bias.arm"])
					if tot := counters["csnzi.arrive.tree"] + counters["csnzi.arrive.root"]; tot > 0 {
						s.TreeArriveFraction = float64(counters["csnzi.arrive.tree"]) / float64(tot)
					}
					s.Throughput /= float64(*runs)
					s.BaseThroughput /= float64(*runs)
					if s.BaseThroughput > 0 {
						s.Speedup = s.Throughput / s.BaseThroughput
					}
					if fast+slow > 0 {
						s.FastReadFraction = float64(fast) / float64(fast+slow)
					}
					s.Revocations = revs / int64(*runs)
					doc.Series = append(doc.Series, s)
					fmt.Fprintf(stderr, "%-11s ind=%-8s t=%-4d read%%=%-5.1f %.3e vs %.3e acq/s (%.2fx, fast=%.0f%%, revs=%d)\n",
						s.Lock, s.Indicator, n, frac*100, s.Throughput, s.BaseThroughput, s.Speedup, s.FastReadFraction*100, s.Revocations)
				}
			}
		}
	}

	if *oversub != "" {
		mults, err := parseInts(*oversub)
		if err != nil {
			fmt.Fprintln(stderr, "benchbravo:", err)
			return 2
		}
		doc.Series = append(doc.Series, oversubSweep(stderr, mults, *oversubOps, *runs, *seed)...)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchbravo:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchbravo:", err)
		return 1
	}
	return 0
}

// hostImpl adapts an ollock facade lock to the harness: one shared lock
// instance per measurement pass, each goroutine getting its own proc.
// Every created lock is instrumented and collected through sink so the
// sweep can sum its counters afterwards (the stats overhead — one
// striped increment per internal event — is paid identically by every
// wait mode, so the spin-relative speedups stay comparable).
func hostImpl(kind ollock.Kind, mode ollock.WaitMode, sink *hostLocks) locksuite.Impl {
	return locksuite.Impl{
		Name: string(kind) + "+" + string(mode),
		New: func(maxProcs int) locksuite.ProcMaker {
			l := ollock.MustNew(kind, maxProcs, ollock.WithWait(mode), ollock.WithStats(""))
			sink.add(l)
			return func() locksuite.Proc { return l.NewProc() }
		},
	}
}

// hostLocks collects the lock instances a measurement created (the
// harness re-creates the lock per pass), for post-run counter sums.
type hostLocks struct {
	mu    sync.Mutex
	locks []ollock.Lock
}

func (h *hostLocks) add(l ollock.Lock) {
	h.mu.Lock()
	h.locks = append(h.locks, l)
	h.mu.Unlock()
}

// sum folds every collected lock's counters (and write-wait histogram
// counts) into one map + write total.
func (h *hostLocks) sum() (map[string]uint64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counters := map[string]uint64{}
	var writes uint64
	for _, l := range h.locks {
		sn, ok := ollock.SnapshotOf(l)
		if !ok {
			continue
		}
		for _, name := range sn.Names() {
			counters[name] += sn.Counters[name]
		}
		for name, hist := range sn.Hists {
			if strings.HasSuffix(name, ".write.wait") {
				writes += hist.Count
			}
		}
	}
	return counters, writes
}

// oversubSweep runs the host (real goroutine) wait-policy section: for
// each OLL lock, oversubscription multiplier and read mix, measure
// every wait policy and report the parking policy's speedup over pure
// spin at the same point. Throughput is harness.Run's mean over
// runs — no per-acquisition clock reads, so the measured op is the
// lock and nothing else; the p99 fields come from one additional
// harness.RunLatency pass, whose per-op timestamps would otherwise pad
// every mode's op by two clock reads and compress the ratio.
func oversubSweep(progress io.Writer, mults []int, ops, runs int, seed uint64) []Series {
	procs := runtime.GOMAXPROCS(0)
	var out []Series
	for _, kind := range biasBaseKinds() {
		for _, mult := range mults {
			threads := mult * procs
			for _, frac := range oversubFractions {
				var spinTP float64
				for _, mode := range ollock.WaitModes() {
					s := Series{
						Env: "host", Lock: string(kind), Base: string(kind),
						Indicator: "csnzi", WaitPolicy: string(mode),
						Oversub: mult, Threads: threads,
						ReadFraction: frac, Runs: runs,
					}
					var sink hostLocks
					cfg := harness.Config{
						Impl:         hostImpl(kind, mode, &sink),
						Threads:      threads,
						ReadFraction: frac,
						OpsPerThread: ops,
						Runs:         runs,
						Seed:         seed,
					}
					s.Throughput = harness.Run(cfg).Throughput
					lat := harness.RunLatency(cfg)
					s.P99ReadNs = lat.Read.P99.Nanoseconds()
					s.P99WriteNs = lat.Write.P99.Nanoseconds()
					var writes uint64
					s.Counters, writes = sink.sum()
					s.Metrics = summarize(s.Counters, writes)
					if mode == ollock.WaitSpin {
						spinTP = s.Throughput
					}
					s.BaseThroughput = spinTP
					if spinTP > 0 {
						s.Speedup = s.Throughput / spinTP
					}
					out = append(out, s)
					fmt.Fprintf(progress, "%-11s wait=%-8s over=%-3dx t=%-4d read%%=%-5.1f %.3e acq/s (%.2fx vs spin, p99 r=%dus w=%dus)\n",
						s.Lock, s.WaitPolicy, mult, threads, frac*100, s.Throughput, s.Speedup,
						s.P99ReadNs/1000, s.P99WriteNs/1000)
				}
			}
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
