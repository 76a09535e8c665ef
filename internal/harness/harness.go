// Package harness implements the paper's evaluation methodology (§5.1)
// for real-goroutine runs: every thread repeatedly acquires and releases
// one shared lock in a tight loop with an empty critical section,
// choosing read vs. write with a private PRNG against a target read
// percentage; throughput is total acquisitions divided by the time for
// all threads to finish, averaged over several runs.
//
// On machines with many cores this harness reproduces the relative
// ordering of the locks directly; the companion package internal/sim
// reproduces the paper's 256-hardware-thread topology when the host
// cannot (see DESIGN.md §4).
package harness

import (
	"sync"
	"time"

	"ollock/internal/locksuite"
	"ollock/internal/obs"
	"ollock/internal/xrand"
)

// Config describes one throughput measurement.
type Config struct {
	// Impl is the lock implementation under test.
	Impl locksuite.Impl
	// Threads is the number of concurrently acquiring goroutines.
	Threads int
	// ReadFraction is the probability an acquisition is a read (the
	// paper evaluates 1.0, 0.99, 0.95, 0.80, 0.50, 0.0).
	ReadFraction float64
	// OpsPerThread is the number of acquisitions each thread performs
	// (the paper uses 100,000, or 10,000 at read fractions <= 0.5).
	OpsPerThread int
	// Runs is how many times to repeat the measurement; the reported
	// throughput is the mean (the paper uses 3).
	Runs int
	// Seed makes the read/write decision sequences reproducible.
	Seed uint64
}

// Result is the outcome of a measurement.
type Result struct {
	Config     Config
	Throughput float64 // acquisitions per second, mean over runs
	PerRun     []float64
	Elapsed    time.Duration // total wall time across runs
}

// Run executes the measurement described by cfg.
func Run(cfg Config) Result {
	if cfg.Threads <= 0 || cfg.OpsPerThread <= 0 {
		panic("harness: Threads and OpsPerThread must be positive")
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	res := Result{Config: cfg}
	start := time.Now()
	for r := 0; r < runs; r++ {
		res.PerRun = append(res.PerRun, oneRun(cfg, uint64(r)))
	}
	res.Elapsed = time.Since(start)
	var sum float64
	for _, v := range res.PerRun {
		sum += v
	}
	res.Throughput = sum / float64(len(res.PerRun))
	return res
}

// oneRun times one run of cfg on a fresh lock; run salts the seeds.
func oneRun(cfg Config, run uint64) float64 {
	mk := cfg.Impl.New(cfg.Threads)
	var ready, done sync.WaitGroup
	startGate := make(chan struct{})
	ready.Add(cfg.Threads)
	done.Add(cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		go func(id int) {
			defer done.Done()
			p := mk()
			rng := xrand.New(cfg.Seed + uint64(id)*0x9E3779B9 + run*0x85EBCA6B + 1)
			ready.Done()
			<-startGate
			for i := 0; i < cfg.OpsPerThread; i++ {
				if rng.Bool(cfg.ReadFraction) {
					p.RLock()
					p.RUnlock()
				} else {
					p.Lock()
					p.Unlock()
				}
			}
		}(t)
	}
	ready.Wait()
	begin := time.Now()
	close(startGate)
	done.Wait()
	elapsed := time.Since(begin)
	total := float64(cfg.Threads * cfg.OpsPerThread)
	return total / elapsed.Seconds()
}

// LatencyStats summarizes acquisition latency for one kind of
// acquisition. P50 and P99 are log-bucket midpoint estimates from the
// obs histogram (the module's one histogram implementation); Max is
// exact.
type LatencyStats struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// LatencyResult extends Result with per-kind acquisition latency (from
// the start of the acquire call to lock ownership) — the fairness
// measurement complementing the paper's throughput metric.
type LatencyResult struct {
	Result
	Read, Write LatencyStats
}

// RunLatency executes the measurement with per-acquisition latency
// accounting (one timestamped run; cfg.Runs is ignored). Each thread
// records nanosecond samples into its own obs.Histogram (single-writer
// by construction); the histograms are merged only after the run, so
// the accounting adds no cross-thread coherence traffic.
func RunLatency(cfg Config) LatencyResult {
	if cfg.Threads <= 0 || cfg.OpsPerThread <= 0 {
		panic("harness: Threads and OpsPerThread must be positive")
	}
	mk := cfg.Impl.New(cfg.Threads)
	type hist struct {
		h obs.Histogram
		_ [8]uint64 // keep adjacent thread slots off one cache line
	}
	readH := make([]hist, cfg.Threads)
	writeH := make([]hist, cfg.Threads)
	var ready, done sync.WaitGroup
	startGate := make(chan struct{})
	ready.Add(cfg.Threads)
	done.Add(cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		go func(id int) {
			defer done.Done()
			p := mk()
			rng := xrand.New(cfg.Seed + uint64(id)*0x9E3779B9 + 1)
			ready.Done()
			<-startGate
			for i := 0; i < cfg.OpsPerThread; i++ {
				if rng.Bool(cfg.ReadFraction) {
					t0 := time.Now()
					p.RLock()
					lat := time.Since(t0)
					p.RUnlock()
					readH[id].h.Record(lat.Nanoseconds())
				} else {
					t0 := time.Now()
					p.Lock()
					lat := time.Since(t0)
					p.Unlock()
					writeH[id].h.Record(lat.Nanoseconds())
				}
			}
		}(t)
	}
	ready.Wait()
	begin := time.Now()
	close(startGate)
	done.Wait()
	elapsed := time.Since(begin)

	out := LatencyResult{Result: Result{Config: cfg, Elapsed: elapsed}}
	total := float64(cfg.Threads * cfg.OpsPerThread)
	out.Throughput = total / elapsed.Seconds()
	out.PerRun = []float64{out.Throughput}
	fold := func(hs []hist) LatencyStats {
		var m obs.Histogram
		for i := range hs {
			m.Merge(&hs[i].h)
		}
		s := LatencyStats{Count: int64(m.Count()), Max: time.Duration(m.Max())}
		if s.Count > 0 {
			s.Mean = time.Duration(int64(m.Mean()))
			s.P50 = time.Duration(m.Quantile(0.50))
			s.P99 = time.Duration(m.Quantile(0.99))
		}
		return s
	}
	out.Read = fold(readH)
	out.Write = fold(writeH)
	return out
}
