package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// rng is splitmix64: the only generator the benchmark uses, so a seed
// fixes every input on any Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pct draws true with probability p/100.
func (r *rng) pct(p int) bool { return r.next()%100 < uint64(p) }

// derive returns an independent stream for sub-input i of a seed.
func derive(seed uint64, i int) rng {
	r := rng(seed ^ uint64(i+1)*0xD1B54A32D192ED03)
	r.next()
	return r
}

// schedBits is the length of the pre-generated read/write schedule.
const schedBits = 1 << 16

// schedule is an i.i.d. read/write sequence drawn once from the seed,
// so the generator's cost stays out of the timed loops (what remains,
// one bitmap probe per op, is ref.loop_ns).
type schedule struct {
	bits [schedBits / 64]uint64
}

func newSchedule(seed uint64, readPct int) *schedule {
	s := &schedule{}
	r := derive(seed, 0)
	for i := 0; i < schedBits; i++ {
		if r.pct(readPct) {
			s.bits[i>>6] |= 1 << (i & 63)
		}
	}
	return s
}

// read reports whether op i is a read.
func (s *schedule) read(i int) bool {
	return s.bits[(i>>6)&(schedBits/64-1)]>>(uint(i)&63)&1 != 0
}

// quartiles returns the first quartile, median and third quartile of
// vs with the method of Python's statistics.quantiles(n=4) (exclusive),
// which is what the benchmark contract's spread rule uses.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// percentile returns the nearest-rank p-th percentile of sorted vs.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ratio is a/b, or 0 when b is 0 (a ratio with nothing to count).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rung is one timed row of the host ladder: run executes n operations
// of the workload's schedule against one layer.
type rung struct {
	name   string
	parent string // the rung below it in the ladder ("" for the floor)
	run    func(n int)
	ns     []float64 // ns per op, one sample per kept batch
}

// row is a rung's result. Value is the floor: the build host (a shared
// 2-vCPU VM) alternates, second by second, between its full speed and
// phases 25-100% slower that hit different code differently, so a
// median lands in whichever phase filled most of the run. The fast
// phase repeats within ~1% across runs; the floor — the 10th percentile
// of the batches — reads it whenever a tenth of the batches saw it.
type row struct {
	Value    float64 `json:"value"`
	Median   float64 `json:"median"`
	P25      float64 `json:"p25"`
	P75      float64 `json:"p75"`
	Batches  int     `json:"batches"`
	Unstable bool    `json:"unstable,omitempty"`
}

// unstableOver is the share by which a row's median may sit above its
// floor before the row is flagged: the run spent most of its time in a
// slow phase, so its floor rests on few batches.
const unstableOver = 0.08

// floorOf is the 10th percentile of samples (nearest rank).
func floorOf(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/10]
}

// copies are the builds of one rung, one per host copy.
type copies []*rung

// floor is the rung's value: the mean over its copies of each copy's
// floor.
func (c copies) floor() float64 {
	sum := 0.0
	for _, r := range c {
		sum += floorOf(r.ns)
	}
	return ratio(sum, float64(len(c)))
}

func (c copies) samples() []float64 {
	var all []float64
	for _, r := range c {
		all = append(all, r.ns...)
	}
	return all
}

func (c copies) row() row {
	all := c.samples()
	q1, med, q3 := quartiles(all)
	fl := c.floor()
	return row{Value: fl, Median: med, P25: q1, P75: q3, Batches: len(all), Unstable: ratio(med-fl, fl) > unstableOver}
}

// hostTimer times the rungs round-robin — one batch of each per round,
// so drift hits all equally — in chunks spread over the whole run, so
// that a slow phase of the machine lasting seconds cannot cover them
// all.
type hostTimer struct {
	sections [][]*rung // one rung list per host copy; a round runs one
	batchOps int
	rounds   int
	span     func(r *rung, round int, start, end time.Time) // nil when not tracing
}

// chunk runs one discarded warm-up round (caches and branch history
// are cold after whatever ran in between; a cold pass over the 64 Ki
// schedule measured ~30% slow) and then at least minRounds kept rounds,
// continuing until budget has elapsed, with the collector off.
func (t *hostTimer) chunk(budget time.Duration, minRounds int) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	runtime.GC()
	for _, r := range t.sections[t.rounds%len(t.sections)] {
		r.run(t.batchOps)
	}
	begin := time.Now()
	for n := 0; n < minRounds || time.Since(begin) < budget; n++ {
		for _, r := range t.sections[t.rounds%len(t.sections)] {
			t0 := time.Now()
			r.run(t.batchOps)
			t1 := time.Now()
			r.ns = append(r.ns, float64(t1.Sub(t0).Nanoseconds())/float64(t.batchOps))
			if t.span != nil {
				t.span(r, t.rounds, t0, t1)
			}
		}
		t.rounds++
	}
}
