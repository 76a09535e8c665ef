package simlock

import (
	"fmt"

	"ollock/internal/obs"
	"ollock/internal/sim"
	"ollock/internal/xrand"
)

// Result is the outcome of one simulated throughput experiment (one
// point of a Figure 5 curve).
type Result struct {
	Lock         string
	Threads      int
	ReadFraction float64
	OpsPerThread int
	TotalOps     int64
	Cycles       int64
	// Steps is the number of scheduler steps the run took: one per
	// simulated primitive, the unit the simulator's host time is paid in.
	Steps int64
	// Throughput is acquisitions per second at the modeled clock rate.
	Throughput float64
	// RemoteFraction is the fraction of memory accesses that crossed
	// chips (diagnostic for the 64-thread cliff).
	RemoteFraction float64
}

// Experiment fully describes one simulated throughput measurement.
type Experiment struct {
	Factory      Factory
	Machine      sim.Config
	Threads      int
	ReadFraction float64
	OpsPerThread int
	Seed         uint64
	// CriticalWork is the cycles of local computation performed inside
	// each critical section. The paper uses 0 (empty sections); sweeping
	// it shows where the lock stops being the bottleneck.
	CriticalWork int64
	// WriteBurstiness makes write acquisitions clump in time: after a
	// write, the next acquisition is another write with this
	// probability (0 = the paper's i.i.d. mix). The long-run write
	// fraction is held at 1-ReadFraction by lowering the read->write
	// switch rate accordingly. Bursty writers are the regime where
	// ROLL's group coalescing should pay most.
	WriteBurstiness float64
}

// RunExperiment executes the paper's §5.1 workload on the simulator:
// threads simulated threads repeatedly acquire and release one lock with
// an empty critical section, choosing read vs. write from a private PRNG
// with the given read fraction.
func RunExperiment(f Factory, mcfg sim.Config, threads int, readFraction float64, opsPerThread int, seed uint64) Result {
	return RunConfigured(Experiment{
		Factory:      f,
		Machine:      mcfg,
		Threads:      threads,
		ReadFraction: readFraction,
		OpsPerThread: opsPerThread,
		Seed:         seed,
	})
}

// RunConfigured executes a fully-specified experiment.
func RunConfigured(e Experiment) Result {
	res, _ := runConfiguredOn(e)
	return res
}

// InstrumentedResult extends Result with the BRAVO wrapper's fast-path
// accounting (zero for unwrapped locks) and the lock's full obs
// counter Snapshot (empty for uninstrumented baseline kinds).
type InstrumentedResult struct {
	Result
	// FastReads / SlowReads split read acquisitions by path taken.
	FastReads, SlowReads int64
	// Revocations counts writer-side bias revocations.
	Revocations int64
	// Snapshot carries the lock's internal counters (csnzi.*, goll.*,
	// foll.*, roll.*, bravo.*), deterministic for a fixed seed.
	Snapshot obs.Snapshot
}

// RunInstrumented is RunExperiment plus the wrapper counters, for
// quantifying how often the biased fast path actually hit.
func RunInstrumented(f Factory, mcfg sim.Config, threads int, readFraction float64, opsPerThread int, seed uint64) InstrumentedResult {
	res, l := runConfiguredOn(Experiment{
		Factory:      f,
		Machine:      mcfg,
		Threads:      threads,
		ReadFraction: readFraction,
		OpsPerThread: opsPerThread,
		Seed:         seed,
	})
	out := InstrumentedResult{Result: res}
	if b, ok := l.(*Bravo); ok {
		out.FastReads, out.SlowReads, out.Revocations = b.FastReads, b.SlowReads, b.Revocations
	}
	out.Snapshot = StatsOf(l).Snapshot()
	return out
}

// runConfiguredOn executes the experiment and additionally returns the
// lock instance, so instrumented callers can read its counters.
func runConfiguredOn(e Experiment) (Result, Lock) {
	f, mcfg, threads := e.Factory, e.Machine, e.Threads
	readFraction, opsPerThread, seed := e.ReadFraction, e.OpsPerThread, e.Seed
	if threads <= 0 || opsPerThread <= 0 {
		panic("simlock: threads and opsPerThread must be positive")
	}
	m := sim.New(mcfg)
	l := f.New(m, threads)
	// With burstiness b and target write fraction w, the two-state
	// Markov chain's write->write probability is b and its read->write
	// probability solves the stationary equation w = pRW/(pRW+1-b).
	// With burstiness 0 the mix is i.i.d.: both transition probabilities
	// equal the write fraction (pWW=0 would instead force a read after
	// every write — an anti-bursty chain that skews the realized mix).
	writeFrac := 1 - readFraction
	pWW := writeFrac
	pRW := writeFrac
	if b := e.WriteBurstiness; b > 0 && writeFrac < 1 && writeFrac > 0 {
		pWW = b
		pRW = writeFrac * (1 - b) / (1 - writeFrac)
		if pRW > 1 {
			pRW = 1
		}
	}
	for i := 0; i < threads; i++ {
		p := l.NewProc(i)
		rng := xrand.New(seed + uint64(i)*0x9E3779B9 + 1)
		m.Spawn(func(c *sim.Ctx) {
			lastWrite := false
			for j := 0; j < opsPerThread; j++ {
				var write bool
				if lastWrite {
					write = rng.Bool(pWW)
				} else {
					write = rng.Bool(pRW)
				}
				lastWrite = write
				if !write {
					p.RLock(c)
					if e.CriticalWork > 0 {
						c.Work(e.CriticalWork)
					}
					p.RUnlock(c)
				} else {
					p.Lock(c)
					if e.CriticalWork > 0 {
						c.Work(e.CriticalWork)
					}
					p.Unlock(c)
				}
			}
		})
	}
	cycles := m.Run()
	total := int64(threads) * int64(opsPerThread)
	var accesses, remote int64
	for _, st := range m.ThreadStats() {
		accesses += st.Accesses
		remote += st.Remote
	}
	res := Result{
		Lock:         f.Name,
		Threads:      threads,
		ReadFraction: readFraction,
		OpsPerThread: opsPerThread,
		TotalOps:     total,
		Cycles:       cycles,
		Steps:        m.Steps(),
	}
	if cycles > 0 {
		res.Throughput = float64(total) / (float64(cycles) / sim.ClockHz)
	}
	if accesses > 0 {
		res.RemoteFraction = float64(remote) / float64(accesses)
	}
	return res, l
}

// CheckResult reports the invariant check of VerifyExclusion.
type CheckResult struct {
	Violations int
	TotalOps   int64
}

// VerifyExclusion runs the workload with a critical section that checks
// the reader-writer exclusion invariant. Host-memory counters are safe
// here because simulated threads execute one at a time; a Work call
// inside the critical section opens an interleaving window so that a
// broken lock would be caught.
func VerifyExclusion(f Factory, mcfg sim.Config, threads int, readFraction float64, opsPerThread int, seed uint64) CheckResult {
	m := sim.New(mcfg)
	l := f.New(m, threads)
	var readers, writers, violations int
	for i := 0; i < threads; i++ {
		p := l.NewProc(i)
		rng := xrand.New(seed + uint64(i)*0x51AF9E3 + 7)
		m.Spawn(func(c *sim.Ctx) {
			for j := 0; j < opsPerThread; j++ {
				if rng.Bool(readFraction) {
					p.RLock(c)
					readers++
					if writers != 0 {
						violations++
					}
					c.Work(20) // interleaving window
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
					c.Work(20)
					if writers != 1 || readers != 0 {
						violations++
					}
					writers--
					p.Unlock(c)
				}
			}
		})
	}
	m.Run()
	return CheckResult{
		Violations: violations,
		TotalOps:   int64(threads) * int64(opsPerThread),
	}
}

// LatencyStats summarizes acquisition latency for one kind of
// acquisition (virtual cycles from the start of the acquire call to
// lock ownership). P50 and P99 are log-bucket midpoint estimates from
// the obs histogram (the module's one histogram implementation); Max
// is exact.
type LatencyStats struct {
	Count    int64
	Mean     float64
	P50, P99 int64
	Max      int64
}

// latencyStatsOf summarizes one merged histogram.
func latencyStatsOf(h *obs.Histogram) LatencyStats {
	if h.Count() == 0 {
		return LatencyStats{}
	}
	return LatencyStats{
		Count: int64(h.Count()),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// LatencyResult extends Result with per-kind acquisition latency — the
// fairness side of the throughput coin: reader preference (ROLL) buys
// read throughput at the price of writer waiting time, FIFO (FOLL)
// bounds writer latency. The paper reports only throughput; this is the
// complementary measurement.
type LatencyResult struct {
	Result
	Read, Write LatencyStats
}

// RunLatencyExperiment is RunExperiment plus per-kind acquisition
// latency accounting.
func RunLatencyExperiment(f Factory, mcfg sim.Config, threads int, readFraction float64, opsPerThread int, seed uint64) LatencyResult {
	if threads <= 0 || opsPerThread <= 0 {
		panic("simlock: threads and opsPerThread must be positive")
	}
	m := sim.New(mcfg)
	l := f.New(m, threads)
	// Host-side histograms are safe: simulated threads execute one at a
	// time, so each histogram has a single writer at any instant.
	var readHist, writeHist obs.Histogram
	for i := 0; i < threads; i++ {
		p := l.NewProc(i)
		rng := xrand.New(seed + uint64(i)*0x9E3779B9 + 1)
		m.Spawn(func(c *sim.Ctx) {
			for j := 0; j < opsPerThread; j++ {
				t0 := c.Now()
				if rng.Bool(readFraction) {
					p.RLock(c)
					readHist.Record(c.Now() - t0)
					p.RUnlock(c)
				} else {
					p.Lock(c)
					writeHist.Record(c.Now() - t0)
					p.Unlock(c)
				}
			}
		})
	}
	cycles := m.Run()
	out := LatencyResult{
		Result: Result{
			Lock:         f.Name,
			Threads:      threads,
			ReadFraction: readFraction,
			OpsPerThread: opsPerThread,
			TotalOps:     int64(threads) * int64(opsPerThread),
			Cycles:       cycles,
		},
	}
	if cycles > 0 {
		out.Throughput = float64(out.TotalOps) / (float64(cycles) / sim.ClockHz)
	}
	out.Read = latencyStatsOf(&readHist)
	out.Write = latencyStatsOf(&writeHist)
	return out
}

// SweepResult is a lock's curve over thread counts at one read fraction.
type SweepResult struct {
	Lock         string
	ReadFraction float64
	Points       []Result
}

// Sweep runs RunExperiment for every thread count.
func Sweep(f Factory, mcfg sim.Config, threadCounts []int, readFraction float64, opsPerThread int, seed uint64) SweepResult {
	out := SweepResult{Lock: f.Name, ReadFraction: readFraction}
	for _, n := range threadCounts {
		out.Points = append(out.Points, RunExperiment(f, mcfg, n, readFraction, opsPerThread, seed))
	}
	return out
}

// String renders one result row.
func (r Result) String() string {
	return fmt.Sprintf("%-8s threads=%-4d read%%=%-5.1f throughput=%.3e acq/s remote=%.1f%%",
		r.Lock, r.Threads, r.ReadFraction*100, r.Throughput, r.RemoteFraction*100)
}
