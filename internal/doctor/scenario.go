package doctor

import (
	"fmt"
	"sort"
	"time"
)

// Scenarios are hand-scripted window streams, one per pathology the
// doctor diagnoses (plus a healthy control). They serve two masters:
// the test suite pins each rule to the exact windows that must (and
// must not) fire it, and `lockmon doctor -scenario NAME` demonstrates
// a diagnosis — and exercises the CI exit-code contract — without
// having to reproduce the pathology live on the host.

// scenarios maps name → window stream. Every stream describes 10
// seconds of one lock's life.
var scenarios = map[string]func() []Window{
	"healthy": func() []Window {
		// A busy, well-behaved GOLL+BRAVO lock: reads dominate, a few
		// writes complete quickly, one revocation, light parking.
		return []Window{{
			Lock:    "healthy",
			Seconds: 10,
			Deltas: map[string]uint64{
				"csnzi.arrive.root": 400_000,
				"csnzi.arrive.tree": 100_000,
				"bravo.read.fast":   1_500_000,
				"bravo.revoke":      1,
				"park.yield":        120,
				"park.park":         40,
				"park.unpark":       40,
			},
			Hists: map[string]HistWindow{
				"goll.write.wait":  {Count: 2_000, Sum: 2_000 * 40_000, P50: 12_000, P99: 900_000, Max: 3_000_000},
				"bravo.drain.wait": {Count: 1, Sum: 80_000, P50: 80_000, P99: 80_000, Max: 80_000},
				"park.wait":        {Count: 40, Sum: 40 * 200_000, P50: 150_000, P99: 800_000, Max: 1_200_000},
			},
		}}
	},
	"writer-starvation": func() []Window {
		// A ROLL lock under heavy read traffic: overtaking readers keep
		// writers waiting hundreds of milliseconds.
		return []Window{{
			Lock:    "starved",
			Seconds: 10,
			Deltas: map[string]uint64{
				"csnzi.arrive.root": 900_000,
				"csnzi.arrive.tree": 2_100_000,
				"roll.overtake":     48_000,
				"roll.read.enqueue": 1_200,
				"roll.read.join":    2_998_800,
			},
			Hists: map[string]HistWindow{
				"roll.write.wait": {
					Count: 25,
					Sum:   25 * 180_000_000,
					P50:   120_000_000,
					P99:   450_000_000,
					Max:   700_000_000,
				},
			},
		}}
	},
	"bias-thrash": func() []Window {
		// BRAVO under a mixed workload whose writers keep revoking the
		// bias: revocations run at 5% of reads and every re-arm is torn
		// down within the window.
		return []Window{{
			Lock:    "thrash",
			Seconds: 10,
			Deltas: map[string]uint64{
				"csnzi.arrive.root": 60_000,
				"bravo.read.fast":   40_000,
				"bravo.read.slow":   55_000,
				"bravo.bias.arm":    5_100,
				"bravo.revoke":      5_000,
			},
			Hists: map[string]HistWindow{
				"goll.write.wait":  {Count: 6_000, Sum: 6_000 * 2_000_000, P50: 1_500_000, P99: 9_000_000, Max: 20_000_000},
				"bravo.drain.wait": {Count: 5_000, Sum: 5_000 * 600_000, P50: 400_000, P99: 2_500_000, Max: 6_000_000},
			},
		}}
	},
	"park-storm": func() []Window {
		// Oversubscribed adaptive waiting: waiters park three times per
		// acquisition and spend most of the window descheduled — one
		// park.wait observation per park, as the real ladder records.
		return []Window{{
			Lock:    "storm",
			Seconds: 10,
			Deltas: map[string]uint64{
				"csnzi.arrive.root": 5_000,
				"csnzi.arrive.tree": 3_000,
				"park.yield":        30_000,
				"park.park":         26_400,
				"park.unpark":       26_400,
			},
			Hists: map[string]HistWindow{
				"goll.write.wait": {Count: 800, Sum: 800 * 5_000_000, P50: 3_000_000, P99: 30_000_000, Max: 45_000_000},
				"park.wait":       {Count: 26_400, Sum: 26_400 * 2_500_000, P50: 1_800_000, P99: 12_000_000, Max: 30_000_000},
			},
		}}
	},
	"acquire-timeout-storm": func() []Window {
		// Timed acquisitions with deadlines well under the lock's
		// acquisition latency: most attempts expire in the queue and
		// roll their arrivals back instead of acquiring.
		return []Window{{
			Lock:    "impatient",
			Seconds: 10,
			Deltas: map[string]uint64{
				"csnzi.arrive.root": 8_000,
				"csnzi.arrive.tree": 2_000,
				"goll.timeout":      30_000,
				"goll.cancel":       6_000,
				"park.timeout":      20_000,
			},
			Hists: map[string]HistWindow{
				"goll.write.wait": {Count: 500, Sum: 500 * 2_000_000, P50: 1_500_000, P99: 4_000_000, Max: 9_000_000},
			},
		}}
	},
	"indicator-stall": func() []Window {
		// A watchdog-caught drain stall: the counters look quiet — the
		// lock is stuck, not busy.
		return []Window{{
			Lock:    "stalled",
			Seconds: 10,
			Deltas: map[string]uint64{
				"csnzi.arrive.root": 12,
				"csnzi.arrive.fail": 9_000,
			},
			Hists: map[string]HistWindow{
				"goll.write.wait": {Count: 4, Sum: 4 * 1_000_000, P50: 800_000, P99: 2_000_000, Max: 2_000_000},
			},
			Stalls: []StallInfo{{Phase: "drain_wait", Waited: 4 * time.Second}},
		}}
	},
}

// ScenarioNames returns the available scenario names, sorted.
func ScenarioNames() []string {
	out := make([]string, 0, len(scenarios))
	for n := range scenarios {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Scenario returns the scripted window stream for name.
func Scenario(name string) ([]Window, error) {
	fn, ok := scenarios[name]
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return fn(), nil
}
