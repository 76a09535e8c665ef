package simlock

import (
	"fmt"
	"testing"

	"ollock/internal/sim"
)

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports the simulated throughput (the paper's metric) alongside the
// host time the simulation took.

// BenchmarkROLLHintAblation: §4.3's lastReader hint on vs. off at the
// reader-preference lock's home workload (99% reads, cross-chip).
func BenchmarkROLLHintAblation(b *testing.B) {
	variants := []struct {
		name string
		mk   func(m *sim.Machine, n int) Lock
	}{
		{"hint=on", func(m *sim.Machine, n int) Lock { return NewROLL(m, n) }},
		{"hint=off", func(m *sim.Machine, n int) Lock { return NewROLLNoHint(m, n) }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			f := Factory{Name: "roll-" + v.name, New: v.mk}
			var last Result
			for i := 0; i < b.N; i++ {
				last = RunExperiment(f, sim.T5440(), 192, 0.99, 80, uint64(31+i))
			}
			b.ReportMetric(last.Throughput, "sim-acq/s")
		})
	}
}

// BenchmarkCSNZITopologyAblation: the C-SNZI tree (per-core leaves,
// per-chip interior nodes) versus the centralized degenerate case, under
// GOLL's read-only workload — the heart of the paper's scalability
// claim.
func BenchmarkCSNZITopologyAblation(b *testing.B) {
	variants := []struct {
		name   string
		direct bool
	}{
		{"tree", false},
		{"central", true},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			f := Factory{Name: "goll-" + v.name, New: func(m *sim.Machine, n int) Lock {
				l := &GOLL{m: m, cs: NewCSNZI(m, CSNZIConfig{Direct: v.direct, Threads: n}), meta: newSimMutex(m)}
				return l
			}}
			var last Result
			for i := 0; i < b.N; i++ {
				last = RunExperiment(f, sim.T5440(), 128, 1.0, 80, uint64(7+i))
			}
			b.ReportMetric(last.Throughput, "sim-acq/s")
		})
	}
}

// BenchmarkMachineInterconnectAblation: GOLL at 95% reads on the real
// T5440 versus a hypothetical machine with free cross-chip links,
// quantifying how much of the lock's cost is interconnect.
func BenchmarkMachineInterconnectAblation(b *testing.B) {
	configs := []struct {
		name string
		cfg  sim.Config
	}{
		{"t5440", sim.T5440()},
		{"flat-interconnect", func() sim.Config {
			c := sim.T5440()
			c.CostRemote = c.CostShared
			return c
		}()},
	}
	f := *ByName("foll")
	for _, m := range configs {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var last Result
			for i := 0; i < b.N; i++ {
				last = RunExperiment(f, m.cfg, 192, 0.95, 80, uint64(3+i))
			}
			b.ReportMetric(last.Throughput, "sim-acq/s")
		})
	}
}

func TestROLLNoHintCorrect(t *testing.T) {
	f := Factory{Name: "roll-nohint", New: func(m *sim.Machine, n int) Lock { return NewROLLNoHint(m, n) }}
	res := checkedRun(f, 16, 0.8, 80, 5)
	if res.Violations != 0 {
		t.Fatalf("%d violations with hint disabled", res.Violations)
	}
}

// BenchmarkCriticalSectionSweep: how long must the critical section be
// before the lock choice stops mattering? Sweeps CS length at 95% reads
// / 64 threads for FOLL vs. the Solaris-like lock.
func BenchmarkCriticalSectionSweep(b *testing.B) {
	for _, cs := range []int64{0, 100, 1000, 10000} {
		for _, name := range []string{"foll", "solaris"} {
			name := name
			cs := cs
			b.Run(fmt.Sprintf("cs=%d/%s", cs, name), func(b *testing.B) {
				var last Result
				for i := 0; i < b.N; i++ {
					last = RunConfigured(Experiment{
						Factory:      *ByName(name),
						Machine:      sim.T5440(),
						Threads:      64,
						ReadFraction: 0.95,
						OpsPerThread: 60,
						Seed:         uint64(17 + i),
						CriticalWork: cs,
					})
				}
				b.ReportMetric(last.Throughput, "sim-acq/s")
			})
		}
	}
}

// BenchmarkWriterBurstiness: ROLL vs FOLL as writers go from i.i.d. to
// strongly bursty at 99% reads / 192 threads — the regime where ROLL's
// waiting-group coalescing pays.
func BenchmarkWriterBurstiness(b *testing.B) {
	for _, burst := range []float64{0, 0.5, 0.9} {
		for _, name := range []string{"foll", "roll"} {
			burst, name := burst, name
			b.Run(fmt.Sprintf("burst=%.1f/%s", burst, name), func(b *testing.B) {
				var last Result
				for i := 0; i < b.N; i++ {
					last = RunConfigured(Experiment{
						Factory:         *ByName(name),
						Machine:         sim.T5440(),
						Threads:         192,
						ReadFraction:    0.99,
						OpsPerThread:    100,
						Seed:            uint64(21 + i),
						WriteBurstiness: burst,
					})
				}
				b.ReportMetric(last.Throughput, "sim-acq/s")
			})
		}
	}
}
