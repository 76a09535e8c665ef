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
	// Read and Write are the per-kind acquisition latencies — the
	// fairness side of the throughput coin: reader preference (ROLL)
	// buys read throughput at the price of writer waiting time, FIFO
	// (FOLL) bounds writer latency. The paper reports only throughput.
	Read, Write LatencyStats
	// Violations counts reader-writer exclusion failures seen on entry
	// to and exit from each critical section; nonzero means a lock bug.
	// The check is live only with CriticalWork > 0: in an empty section
	// no other simulated thread runs between entry and exit.
	Violations int
	// Snapshot carries the lock's obs counters (csnzi.*, goll.*,
	// foll.*, roll.*, bravo.*), deterministic for a fixed seed; empty
	// for the uninstrumented baseline kinds.
	Snapshot obs.Snapshot
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

// RunConfigured executes a fully-specified experiment. Exclusion and
// latency bookkeeping is host-side: simulated threads run one at a
// time, so plain counters and histograms are safe, and none of it
// issues a simulated primitive.
func RunConfigured(e Experiment) Result {
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
	var readHist, writeHist obs.Histogram
	var readers, writers, violations int
	check := func() {
		if writers > 1 || writers == 1 && readers != 0 {
			violations++
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
				t0 := c.Now()
				if write {
					p.Lock(c)
					writeHist.Record(c.Now() - t0)
					writers++
				} else {
					p.RLock(c)
					readHist.Record(c.Now() - t0)
					readers++
				}
				check()
				if e.CriticalWork > 0 {
					c.Work(e.CriticalWork)
				}
				check()
				if write {
					writers--
					p.Unlock(c)
				} else {
					readers--
					p.RUnlock(c)
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
		Read:         latencyStatsOf(&readHist),
		Write:        latencyStatsOf(&writeHist),
		Violations:   violations,
		Snapshot:     StatsOf(l).Snapshot(),
	}
	if cycles > 0 {
		res.Throughput = float64(total) / (float64(cycles) / sim.ClockHz)
	}
	if accesses > 0 {
		res.RemoteFraction = float64(remote) / float64(accesses)
	}
	return res
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

// String renders one result row.
func (r Result) String() string {
	return fmt.Sprintf("%-8s threads=%-4d read%%=%-5.1f throughput=%.3e acq/s remote=%.1f%%",
		r.Lock, r.Threads, r.ReadFraction*100, r.Throughput, r.RemoteFraction*100)
}
