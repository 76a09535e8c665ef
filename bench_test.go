// Benchmarks regenerating the paper's evaluation (Figure 5, panels
// (a)-(f)): throughput of each reader-writer lock under the §5.1
// workload — every thread acquires and releases one lock in a tight
// loop with an empty critical section at a fixed read percentage.
//
// Two families:
//
//   - BenchmarkFig5: real goroutines on the host. Each benchmark
//     iteration performs one complete measured run and reports the
//     paper's metric (acquires/s). On a big multicore host, widen it
//     with go test -run XXX -bench '^BenchmarkFig5$' -cpu 16,64 .: a
//     GOMAXPROCS above 8 adds that many goroutines as a thread count.
//   - BenchmarkSimFig5: the same experiment on the simulated 4-chip,
//     256-hardware-thread T5440 (see internal/sim), which reproduces the
//     paper's thread range on any host. Reports simulated acquires/s.
//
// Each sub-benchmark name encodes panel, read percentage, lock, and
// thread count: e.g. BenchmarkSimFig5/b_r99/roll/t256.
package ollock_test

import (
	"fmt"
	"runtime"
	"testing"

	"ollock/internal/harness"
	"ollock/internal/locksuite"
	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

// fig5Panels maps each panel of Figure 5 to its read fraction.
var fig5Panels = []struct {
	panel string
	frac  float64
}{
	{"a_r100", 1.00},
	{"b_r99", 0.99},
	{"c_r95", 0.95},
	{"d_r80", 0.80},
	{"e_r50", 0.50},
	{"f_r0", 0.00},
}

// fig5LockNames are the five locks in the paper's Figure 5 legend.
var fig5LockNames = []string{"goll", "foll", "roll", "ksuh", "solaris"}

// BenchmarkFig5 runs the real-goroutine version of every panel. The
// reported acq/s metric is the paper's y-axis.
func BenchmarkFig5(b *testing.B) {
	threadCounts := []int{2, 8}
	if p := runtime.GOMAXPROCS(0); p > 8 {
		threadCounts = append(threadCounts, p)
	}
	for _, p := range fig5Panels {
		for _, name := range fig5LockNames {
			impl := locksuite.ByName(name)
			if impl == nil {
				b.Fatalf("no lock %q", name)
			}
			for _, threads := range threadCounts {
				ops := 4000
				if p.frac <= 0.5 {
					ops = 1000 // mirror the paper's shorter heavy-writer runs
				}
				b.Run(fmt.Sprintf("%s/%s/t%d", p.panel, name, threads), func(b *testing.B) {
					var last harness.Result
					for i := 0; i < b.N; i++ {
						last = harness.Run(harness.Config{
							Impl:         *impl,
							Threads:      threads,
							ReadFraction: p.frac,
							OpsPerThread: ops,
							Runs:         1,
							Seed:         uint64(42 + i),
						})
					}
					b.ReportMetric(last.Throughput, "acq/s")
					b.ReportMetric(0, "ns/op") // the acq/s metric is the result
				})
			}
		}
	}
}

// BenchmarkSimFig5 runs every panel on the simulated T5440 at on-chip
// (64) and full-machine (256) thread counts — the two regimes whose
// contrast carries the paper's story.
func BenchmarkSimFig5(b *testing.B) {
	threadCounts := []int{64, 256}
	for _, p := range fig5Panels {
		for _, f := range simlock.Figure5Locks() {
			f := f
			for _, threads := range threadCounts {
				b.Run(fmt.Sprintf("%s/%s/t%d", p.panel, f.Name, threads), func(b *testing.B) {
					var last simlock.Result
					for i := 0; i < b.N; i++ {
						last = simlock.RunExperiment(f, sim.T5440(), threads, p.frac, 80, uint64(42+i))
					}
					b.ReportMetric(last.Throughput, "sim-acq/s")
					b.ReportMetric(last.RemoteFraction*100, "remote%")
				})
			}
		}
	}
}

// BenchmarkBravoSweep compares a BRAVO-wrapped lock against its
// unwrapped base with real goroutines across the Figure 5 read ratios.
// The interesting column is acq/s of bravo-* vs its base at r100/r99.
func BenchmarkBravoSweep(b *testing.B) {
	const threads = 8
	for _, p := range fig5Panels {
		for _, name := range []string{"goll", "roll", "bravo-goll", "bravo-roll"} {
			impl := locksuite.ByName(name)
			if impl == nil {
				b.Fatalf("no lock %q", name)
			}
			ops := 4000
			if p.frac <= 0.5 {
				ops = 1000
			}
			b.Run(fmt.Sprintf("%s/%s/t%d", p.panel, name, threads), func(b *testing.B) {
				var last harness.Result
				for i := 0; i < b.N; i++ {
					last = harness.Run(harness.Config{
						Impl:         *impl,
						Threads:      threads,
						ReadFraction: p.frac,
						OpsPerThread: ops,
						Runs:         1,
						Seed:         uint64(42 + i),
					})
				}
				b.ReportMetric(last.Throughput, "acq/s")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkSimBravoSweep is the simulated-T5440 version of
// BenchmarkBravoSweep, at on-chip and full-machine thread counts. The
// same sweep with per-run counters and JSON output is available via
// `make bench-json` (cmd/benchbravo).
func BenchmarkSimBravoSweep(b *testing.B) {
	threadCounts := []int{64, 256}
	for _, p := range fig5Panels {
		for _, name := range []string{"goll", "roll", "bravo-goll", "bravo-roll"} {
			f := simlock.ByName(name)
			if f == nil {
				b.Fatalf("no sim lock %q", name)
			}
			for _, threads := range threadCounts {
				b.Run(fmt.Sprintf("%s/%s/t%d", p.panel, name, threads), func(b *testing.B) {
					var last simlock.Result
					for i := 0; i < b.N; i++ {
						last = simlock.RunExperiment(*f, sim.T5440(), threads, p.frac, 80, uint64(42+i))
					}
					b.ReportMetric(last.Throughput, "sim-acq/s")
					b.ReportMetric(last.RemoteFraction*100, "remote%")
				})
			}
		}
	}
}

// BenchmarkUncontended measures the single-thread acquire+release latency
// of every lock in the module — the "overhead in the absence of
// contention" the paper's C-SNZI design keeps small (§1).
func BenchmarkUncontended(b *testing.B) {
	for _, impl := range locksuite.Locks {
		impl := impl
		b.Run("read/"+impl.Name, func(b *testing.B) {
			p := impl.New(1)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.RLock()
				p.RUnlock()
			}
		})
		b.Run("write/"+impl.Name, func(b *testing.B) {
			p := impl.New(1)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Lock()
				p.Unlock()
			}
		})
	}
}

// BenchmarkModeChange measures what alternating modes costs one
// goroutine that never waits — next to BenchmarkUncontended, whose rows
// never change mode: strict read/write alternation (ns per R+W pair),
// and four reads to a write (ns per 4R+1W cycle; the first read
// enqueues a group, three join it, the write takes it back). GOLL pays
// nothing extra for the change; FOLL and ROLL pay one CloseIfEmpty and
// one reader-node enqueue per round trip.
func BenchmarkModeChange(b *testing.B) {
	for _, name := range []string{"goll", "foll", "roll", "bravo-roll"} {
		impl := locksuite.ByName(name)
		if impl == nil {
			b.Fatalf("no lock %q", name)
		}
		for _, reads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%dr1w/%s", reads, name), func(b *testing.B) {
				p := impl.New(1)()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for r := 0; r < reads; r++ {
						p.RLock()
						p.RUnlock()
					}
					p.Lock()
					p.Unlock()
				}
			})
		}
	}
}

// BenchmarkReadContended measures parallel read-side throughput (the
// heart of the paper's contribution) for every lock via RunParallel.
func BenchmarkReadContended(b *testing.B) {
	for _, impl := range locksuite.Locks {
		impl := impl
		b.Run(impl.Name, func(b *testing.B) {
			mk := impl.New(1024)
			b.RunParallel(func(pb *testing.PB) {
				p := mk()
				for pb.Next() {
					p.RLock()
					p.RUnlock()
				}
			})
		})
	}
}

// BenchmarkUpgrade measures the GOLL write-upgrade fast path.
func BenchmarkUpgrade(b *testing.B) {
	impl := locksuite.ByName("goll")
	p := impl.New(1)()
	u := p.(locksuite.Upgrader)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RLock()
		if !u.TryUpgrade() {
			b.Fatal("upgrade failed uncontended")
		}
		p.Unlock()
	}
}
