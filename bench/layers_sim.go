package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

// This file holds every call into the simulator and the simulated lock
// twins, and the only imports of them. The thread bodies are the
// benchmark's own: closed loop, one acquisition after another, each
// stamped with Ctx.Now() — which reads the simulated clock and costs
// nothing in simulated time — so waits, holds and releases are measured
// from outside the twins.

// spanOps is how many acquisitions per simulated thread a traced run
// keeps as spans for the trace file; the aggregates cover all of them.
const spanOps = 4

// staggerCycles bounds the seed-drawn start offset of each simulated
// thread, which is what makes a pure-read or pure-write run depend on
// its seed at all.
const staggerCycles = 2048

// warmShare: the first 1/warmShare of each thread's acquisitions are
// left out of the wait samples.
const warmShare = 8

// simSpec is one simulated run: a lock kind by registry string (or a
// bare indicator), a thread count, a read share and a seed.
type simSpec struct {
	Kind    string // registry name; "" when Bare is set
	Bare    string // indicator name for the bare-indicator runs
	Threads int
	ReadPct int
	Ops     int
	Seed    uint64
	Spans   bool
}

func (s simSpec) label() string {
	if s.Bare != "" {
		return "rind-" + s.Bare
	}
	return s.Kind
}

// simSpan is one acquisition of one simulated thread, in cycles.
type simSpan struct {
	Thread, Op             int
	Read                   bool
	Call, Own, Done, Freed int64
}

// simResult is everything a run yields. All fields but HostCPU are
// functions of the spec alone.
type simResult struct {
	Spec       simSpec
	Cycles     int64
	Steps      int64
	Accesses   int64
	Remote     int64
	Acq        int64
	ReadWait   []int64 // Lock call -> ownership, cycles, sorted
	WriteWait  []int64
	HoldSum    int64
	ReleaseSum int64
	Violations int
	// Rate is the aggregate acquisition rate, per cycle: the sum over
	// threads of each thread's acquisitions over its own running time.
	// The makespan (Cycles) is set by the last straggler and varies ~8%
	// between seeds on the read workload; this sum varies ~1%.
	Rate float64
	// Probes are (host CPU time, scheduler steps) readings taken from
	// inside the run every probeEvery acquisitions of thread 0.
	Probes   []probe
	Counters map[string]uint64
	Spans    []simSpan
	HostCPU  time.Duration
	Err      error
}

// probe is one reading of the simulator's progress against host time.
type probe struct {
	CPU   time.Duration
	Steps int64
}

// probeEvery spaces the probes ~10-25 ms of host time apart.
const probeEvery = 4

// nsPerAcq is simulated time per acquisition at the aggregate rate.
func (r *simResult) nsPerAcq() float64 { return cyclesToNs(ratio(1, r.Rate)) }

// stepRates returns the simulator's speed, steps per host CPU second,
// over each interval between probes.
func (r *simResult) stepRates() []float64 {
	var out []float64
	for i := 1; i < len(r.Probes); i++ {
		if dc := r.Probes[i].CPU - r.Probes[i-1].CPU; dc > 0 {
			out = append(out, float64(r.Probes[i].Steps-r.Probes[i-1].Steps)/dc.Seconds())
		}
	}
	return out
}

// cyclesToNs converts simulated cycles to simulated nanoseconds.
func cyclesToNs(c float64) float64 { return c / sim.ClockHz * 1e9 }

// identical reports whether two runs agree in every simulated number.
func (r *simResult) identical(o *simResult) bool {
	return r.Cycles == o.Cycles && r.Steps == o.Steps && r.Accesses == o.Accesses && r.Remote == o.Remote &&
		r.Acq == o.Acq && r.Rate == o.Rate && r.HoldSum == o.HoldSum && r.ReleaseSum == o.ReleaseSum &&
		r.Violations == o.Violations && slices.Equal(r.ReadWait, o.ReadWait) && slices.Equal(r.WriteWait, o.WriteWait)
}

// simRun is a prepared run: machine, lock and thread bodies built, not
// yet started.
type simRun struct {
	m    *sim.Machine
	lock simlock.Lock
	res  *simResult
}

// bareIndicators maps indicator registry strings to the simulated
// factories.
var bareIndicators = map[string]simlock.IndicatorFactory{
	"csnzi":   simlock.CSNZIIndicator,
	"central": simlock.CentralIndicator,
	"sharded": simlock.ShardedIndicator,
}

// bareProc drives a bare simulated indicator: a read is Arrive+Depart.
// The bare runs are all-read on every workload — the indicator's own
// arrival cost at the workload's thread count, the ceiling of every
// read path built on it. (A write pair, CloseIfEmpty+Open, excludes
// nobody without a lock protocol around it, and polling it from 256
// threads is quadratic in simulator steps.)
type bareProc struct {
	ind simlock.Indicator
	id  int
	t   simlock.Ticket
}

func (p *bareProc) RLock(c *sim.Ctx) {
	for {
		if p.t = p.ind.Arrive(c, p.id); p.t.Arrived() {
			return
		}
		p.ind.QueryOpenSpin(c)
	}
}
func (p *bareProc) RUnlock(c *sim.Ctx) { p.ind.Depart(c, p.t) }
func (p *bareProc) Lock(*sim.Ctx)      { panic("bench: bare indicator runs are all-read") }
func (p *bareProc) Unlock(*sim.Ctx)    { panic("bench: bare indicator runs are all-read") }

// prepareSim builds the machine, the lock and one body per thread. It
// fails for a kind or indicator the registry no longer has.
func prepareSim(spec simSpec) (*simRun, error) {
	m := sim.New(sim.T5440())
	run := &simRun{m: m, res: &simResult{Spec: spec}}
	var newProc func(id int) simlock.Proc
	if spec.Bare != "" {
		f, ok := bareIndicators[spec.Bare]
		if !ok {
			return nil, fmt.Errorf("no simulated indicator %q", spec.Bare)
		}
		ind := f(m, spec.Threads)
		newProc = func(id int) simlock.Proc { return &bareProc{ind: ind, id: id} }
	} else {
		f := simlock.ByName(spec.Kind)
		if f == nil {
			return nil, fmt.Errorf("no simulated lock %q", spec.Kind)
		}
		run.lock = f.New(m, spec.Threads)
		newProc = run.lock.NewProc
	}
	res := run.res
	// Host-memory state is safe to share: simulated threads execute one
	// at a time.
	var readers, writers int
	for i := 0; i < spec.Threads; i++ {
		p := newProc(i)
		rg := derive(spec.Seed, i)
		stagger := int64(rg.next() % staggerCycles)
		thread := i
		m.Spawn(func(c *sim.Ctx) {
			c.Work(stagger)
			start := c.Now()
			for j := 0; j < spec.Ops; j++ {
				if thread == 0 && j%probeEvery == 0 {
					res.Probes = append(res.Probes, probe{cpuTime(), m.Steps()})
				}
				read := rg.pct(spec.ReadPct)
				call := c.Now()
				if read {
					p.RLock(c)
				} else {
					p.Lock(c)
				}
				own := c.Now()
				// The checked critical section: one scheduling point
				// (Work(0), a single instruction slot) between entry
				// and exit checks, so an overlapping holder is seen.
				if read {
					readers++
					if writers != 0 {
						res.Violations++
					}
					c.Work(0)
					if writers != 0 {
						res.Violations++
					}
					readers--
				} else {
					writers++
					if writers != 1 || readers != 0 {
						res.Violations++
					}
					c.Work(0)
					if writers != 1 || readers != 0 {
						res.Violations++
					}
					writers--
				}
				done := c.Now()
				if read {
					p.RUnlock(c)
				} else {
					p.Unlock(c)
				}
				freed := c.Now()
				res.Acq++
				// Waits are sampled past the start-up transient, in which
				// every thread arrives at an idle lock at once.
				if j >= spec.Ops/warmShare {
					if read {
						res.ReadWait = append(res.ReadWait, own-call)
					} else {
						res.WriteWait = append(res.WriteWait, own-call)
					}
				}
				res.HoldSum += done - own
				res.ReleaseSum += freed - done
				if spec.Spans && j < spanOps {
					res.Spans = append(res.Spans, simSpan{thread, j, read, call, own, done, freed})
				}
			}
			res.Rate += float64(spec.Ops) / float64(c.Now()-start)
		})
	}
	return run, nil
}

// run executes a prepared simulation. A deadlock or step overrun is the
// simulator's panic; it is reported as the run's error.
func (r *simRun) run() *simResult {
	res := r.res
	runtime.GC()
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("sim %s t%d: %v", res.Spec.label(), res.Spec.Threads, p)
		}
	}()
	c0 := cpuTime()
	res.Cycles = r.m.Run()
	res.HostCPU = cpuTime() - c0
	res.Steps = r.m.Steps()
	for _, st := range r.m.ThreadStats() {
		res.Accesses += st.Accesses
		res.Remote += st.Remote
	}
	sort.Slice(res.ReadWait, func(i, j int) bool { return res.ReadWait[i] < res.ReadWait[j] })
	sort.Slice(res.WriteWait, func(i, j int) bool { return res.WriteWait[i] < res.WriteWait[j] })
	if r.lock != nil {
		if st := simlock.StatsOf(r.lock); st != nil {
			res.Counters = st.Snapshot().Counters
		}
	}
	if want := int64(res.Spec.Threads) * int64(res.Spec.Ops); res.Acq != want {
		res.Err = fmt.Errorf("sim %s t%d: %d of %d acquisitions completed", res.Spec.label(), res.Spec.Threads, res.Acq, want)
	}
	return res
}

// simSeed derives the i-th pooled simulator seed of a run.
func simSeed(seed uint64, i int) uint64 {
	r := derive(seed, 1000+i)
	return r.next()
}
