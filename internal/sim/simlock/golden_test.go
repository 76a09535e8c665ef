package simlock

import (
	"math"
	"testing"

	"ollock/internal/sim"
)

// TestGoldenExperiments pins whole experiments to the step count and
// the exact throughput they had before the simulator's engine was
// rebuilt on coroutines (and, for the last row, before the GOLL twin's
// wait queue stopped reallocating): the engine decides only which
// thread runs next, so a change to it that moves any of these has
// changed the schedule.
func TestGoldenExperiments(t *testing.T) {
	for _, g := range []struct {
		lock           string
		threads        int
		readFraction   float64
		steps          int64
		throughputBits uint64
	}{
		{"goll", 64, 0.95, 106884, 0x41511453d175f4d6},
		{"foll", 64, 0.95, 112953, 0x418f005d2ce3541a},
		{"roll", 64, 0.95, 64538, 0x418e11fe0b8a538f},
		{"bravo-goll", 64, 0.95, 65300, 0x415e95f14ded89ce},
		{"goll", 256, 0, 193936, 0x4144669ce9e822f6},
	} {
		res := RunExperiment(*ByName(g.lock), sim.T5440(), g.threads, g.readFraction, 40, 42)
		if bits := math.Float64bits(res.Throughput); res.Steps != g.steps || bits != g.throughputBits {
			t.Errorf("%s t%d %.0f%% reads: steps %d, throughput bits %#x (%.6e); want %d, %#x",
				g.lock, g.threads, 100*g.readFraction, res.Steps, bits, res.Throughput, g.steps, g.throughputBits)
		}
	}
}
