package simlock

import (
	"math"
	"testing"

	"ollock/internal/sim"
)

// TestGoldenExperiments pins whole experiments to the step count and
// the exact throughput they had before the simulator's engine was
// rebuilt on coroutines: the engine decides only which thread runs
// next, so a change to it that moves any of these has changed the
// schedule. The three rows that contend for the queue mutex (goll and
// bravo-goll at 95 %, goll at 0 %) were re-recorded when simMutex.lock
// became spin.Mutex.Lock's backoff loop; foll, roll and the two
// all-read rows pin the engine across that change. The roll rows were
// re-recorded when a grant stopped clearing the grantee's back link
// (the new head clears its own), which no other row's lock does. The
// foll and roll rows that hand off between writers were re-recorded
// when a queue node's qNext and spin came to share one line (NewWordOn),
// which no other row's lock allocates.
func TestGoldenExperiments(t *testing.T) {
	for _, g := range []struct {
		lock           string
		threads        int
		readFraction   float64
		steps          int64
		throughputBits uint64
	}{
		{"goll", 64, 0.95, 84839, 0x4161129e53111a2a},
		{"foll", 64, 0.95, 122354, 0x418d3660767701eb},
		{"roll", 64, 0.95, 85877, 0x418b66d0b6d69ffc},
		{"bravo-goll", 64, 0.95, 59916, 0x4167c5e07f2551cc},
		{"goll", 256, 0, 211532, 0x414ad21352bcbb15},
		{"roll", 256, 0, 112892, 0x416702ba89dfff41},
		// 100 % reads never reach the queue mutex.
		{"goll", 256, 1.0, 147064, 0x41cc405c7e6ad096},
		{"solaris", 64, 1.0, 20936, 0x41685a311e6ebb56},
		// The central indicator, recorded while it was a type of its own:
		// the leafless C-SNZI that replaced it issues the same accesses.
		{"goll-central", 64, 0.95, 88273, 0x41614b579df1da98},
		{"foll-central", 64, 0.95, 39360, 0x4172681a9a1bc292},
		{"roll-central", 64, 0.95, 40980, 0x41712ad21588d8fb},
		{"goll-central", 256, 1.0, 81438, 0x4155d5542fbbbd14},
	} {
		res := RunExperiment(*ByName(g.lock), sim.T5440(), g.threads, g.readFraction, 40, 42)
		if bits := math.Float64bits(res.Throughput); res.Steps != g.steps || bits != g.throughputBits {
			t.Errorf("%s t%d %.0f%% reads: steps %d, throughput bits %#x (%.6e); want %d, %#x",
				g.lock, g.threads, 100*g.readFraction, res.Steps, bits, res.Throughput, g.steps, g.throughputBits)
		}
	}
}
