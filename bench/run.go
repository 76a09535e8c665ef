package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ladderStep is one layer's self time on the way up to an end-to-end
// rung; the steps of a ladder sum to that rung.
type ladderStep struct {
	Layer  string  `json:"layer"`
	SelfNs float64 `json:"self_ns"`
}

// result is one run of one workload. Metrics is what the last output
// line carries; the rest is detail for the table, -out and layers_<workload>.json.
type result struct {
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]value        `json:"metrics"`
	HostRows  map[string]row          `json:"host_rows,omitempty"`
	Ladders   map[string][]ladderStep `json:"ladders,omitempty"`
	Skipped   []string                `json:"skipped,omitempty"`
	Problems  []string                `json:"problems,omitempty"`
	Files     []string                `json:"files,omitempty"`
}

// setupReps is how many times an untraced run sets up before its first
// timed batch; it sets up once more before every chunk of host batches,
// so the repetitions spread over the run like everything else, and
// setup_s is the median of them all.
const setupReps = 3

// prepared is everything set-up builds before the first timed batch.
type prepared struct {
	host [hostCopies]*hostSection
	// sims[k] holds the pooled runs of lockKinds[k].
	sims [][]*simRun
}

// scaled sizes a work amount stated at runSeconds to this run.
func scaled(atRunSeconds, seconds, floor int) int {
	return max(floor, atRunSeconds*seconds/runSeconds)
}

// A traced run simulates, beyond the four kinds, the bare indicators
// and these further variants and yardsticks (metric, registry string).
var (
	bareRuns    = []string{"csnzi", "central", "sharded"}
	variantRuns = []struct{ metric, kind string }{
		{"simlock.goll_sharded_ns_per_acq", "goll-sharded"},
		{"simlock.roll_sharded_ns_per_acq", "roll-sharded"},
		{"simlock.bravo_roll_ns_per_acq", "bravo-roll"},
		{"ref.ksuh_ns_per_acq", "ksuh"},
		{"ref.solaris_ns_per_acq", "solaris"},
	}
)

// runWorkload executes one workload once.
func runWorkload(w *workload, seed uint64, seconds int, traced bool, outdir string) *result {
	// One processor for everything gated: the host loops have one
	// goroutine, and the simulator hands a baton between goroutines,
	// which across two processors costs up to twice the time and varies
	// by as much. The two-goroutine passes raise it themselves.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced,
		Metrics: map[string]value{}, HostRows: map[string]row{},
	}
	vals := map[string]float64{}
	simOps := scaled(w.SimOps, seconds, 8)
	seeds := w.SimSeeds
	if traced {
		seeds = 1 // the traced simulated run uses the first seed only
	}

	// Set-up: schedule, locks, Procs, kv preload, simulated machines.
	// The first set-up is the one the run uses; the rest are only timed.
	var prep *prepared
	var setups []float64
	timedSetup := func() {
		runtime.GC()
		t0 := time.Now()
		p := &prepared{}
		for i := range p.host {
			p.host[i] = setupHost(w, seed, traced)
		}
		for _, k := range lockKinds {
			var runs []*simRun
			for i := 0; i < seeds; i++ {
				run, err := prepareSim(simSpec{Kind: k.Kind, Threads: w.SimThreads, ReadPct: w.SimReadPct, Ops: simOps, Seed: simSeed(seed, i), Spans: traced})
				if err != nil {
					if prep == nil {
						res.problem("%v", err)
					}
					continue
				}
				runs = append(runs, run)
			}
			p.sims = append(p.sims, runs)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if prep == nil {
			prep = p
		}
	}
	timedSetup()
	for i := 1; i < setupReps && !traced; i++ {
		timedSetup()
	}
	h := prep.host[0]
	res.Skipped = append(res.Skipped, h.skipped...)
	rungs := map[string]copies{}
	for _, hc := range prep.host {
		for _, r := range hc.rungs {
			rungs[r.name] = append(rungs[r.name], r)
		}
	}

	// The host ladder is timed in chunks, one before every simulation
	// and one after the last.
	timer := &hostTimer{batchOps: min(200000, 20000*seconds)}
	for _, hc := range prep.host {
		timer.sections = append(timer.sections, hc.rungs)
	}
	budget := time.Duration(seconds) * time.Second / 4
	chunks := len(lockKinds)*seeds + 1
	var tr *tracer
	if traced {
		tr = newTracer(w.Name)
		tr.process(hostPid, "host ladder (one span per batch)")
		tids := map[string]int{}
		for i, r := range h.rungs {
			tids[r.name] = i
		}
		timer.span = func(r *rung, round int, start, end time.Time) { tr.hostBatch(r, tids[r.name], round, start, end) }
		budget *= 2
		// Per kind: the traced run, its untraced twin, the 64-thread point.
		chunks = 3*len(lockKinds) + len(bareRuns) + len(variantRuns) + 1
	}
	minRounds := (min(40, 2*seconds+3) + chunks - 1) / chunks
	hostChunk := func() {
		if !traced {
			timedSetup()
		}
		timer.chunk(budget/time.Duration(chunks), minRounds)
	}
	simulate := func(run *simRun) *simResult {
		hostChunk()
		return res.account(run.run())
	}

	pooled := make([][]*simResult, len(lockKinds))
	for k := range lockKinds {
		for _, run := range prep.sims[k] {
			pooled[k] = append(pooled[k], simulate(run))
		}
	}
	// Simulated end to end, pooled over the seeds: time per acquisition
	// at the mean aggregate rate, and the gated class's wait tail. The
	// simulator's own speed is read per kind as the upper quartile of its
	// probe intervals (the host's slow phases only ever lower a reading)
	// and combined over the kinds in proportion to their steps.
	var steps, hostSeconds float64
	for k, lk := range lockKinds {
		var rate, kindSteps float64
		var waits []int64
		var rates []float64
		for _, r := range pooled[k] {
			rate += r.Rate / float64(len(pooled[k]))
			kindSteps += float64(r.Steps)
			rates = append(rates, r.stepRates()...)
			if w.WaitWrite {
				waits = append(waits, r.WriteWait...)
			} else {
				waits = append(waits, r.ReadWait...)
			}
		}
		vals["sim_"+lk.Key+"_ns_per_acq"] = cyclesToNs(ratio(1, rate))
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		vals["sim_"+lk.Key+"_wait_p95_ns"] = cyclesToNs(float64(percentile(waits, 0.95)))
		_, _, fast := quartiles(rates)
		steps += kindSteps
		hostSeconds += ratio(kindSteps, fast)
	}
	vals["sim_steps_per_s"] = ratio(steps, hostSeconds)
	if traced {
		res.simLayers(w, seed, simOps, pooled, simulate, tr, vals)
	}
	hostChunk()
	_, vals["setup_s"], _ = quartiles(setups)

	for name, c := range rungs {
		rw := c.row()
		res.HostRows[name] = rw
		vals[name] = rw.Value
	}
	// End to end on the host: each kind through the facade, and the kv
	// op under ROLL.
	for _, k := range lockKinds {
		if rw, ok := res.HostRows[facadeRung(k.Key)]; ok {
			res.HostRows["host_"+k.Key+"_ns_per_acq"], vals["host_"+k.Key+"_ns_per_acq"] = rw, rw.Value
		}
	}
	if rw, ok := res.HostRows["kvstore.roll_op_ns"]; ok {
		res.HostRows["host_kv_ns_per_op"], vals["host_kv_ns_per_op"] = rw, rw.Value
	}
	for _, hc := range prep.host {
		res.Failed += hc.failed + hc.unrested()
	}
	a, f, sk := checkHost(seed, scaled(100000, seconds, 2000))
	res.Attempted += a
	res.Failed += f
	res.Skipped = append(res.Skipped, sk...)

	if traced {
		res.hostLayers(h, seed, seconds, vals)
		path := filepath.Join(outdir, "trace_"+w.Name+".json")
		if err := tr.write(path); err != nil {
			res.problem("writing trace: %v", err)
		} else {
			res.Files = append(res.Files, path)
		}
	}

	// Report: end-to-end metrics untraced, per-layer metrics traced.
	set := endToEnd
	if traced {
		set = perLayer
	}
	skipped := map[string]bool{} // entries read "metric: reason"
	for _, s := range res.Skipped {
		name, _, _ := strings.Cut(s, ": ")
		skipped[name] = true
	}
	for _, m := range set {
		v, ok := vals[m.Name]
		if !ok && !skipped[m.Name] {
			res.problem("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	if traced {
		path := filepath.Join(outdir, "layers_"+w.Name+".json")
		if err := writeJSON(path, res); err != nil {
			res.problem("writing layers: %v", err)
			res.Correct = false
		} else {
			res.Files = append(res.Files, path)
		}
	}
	return res
}

func (res *result) problem(format string, args ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// account adds a simulated run's checked acquisitions to the totals:
// every acquisition passes through the checked critical section, a
// violation is a failed op, and so is every acquisition a deadlocked
// run never completed.
func (res *result) account(r *simResult) *simResult {
	want := r.Spec.Threads * r.Spec.Ops
	res.Attempted += want
	res.Failed += r.Violations
	if r.Err != nil {
		res.problem("%v", r.Err)
		res.Failed += want - int(r.Acq)
	}
	return r
}

// hostLayers fills in the traced run's host metrics: ladder
// differences, the counts pass and the contended rungs.
func (res *result) hostLayers(h *hostSection, seed uint64, seconds int, vals map[string]float64) {
	// A difference is defined only when both of its rungs were measured.
	diff := func(name, a, b string) {
		va, oka := vals[a]
		vb, okb := vals[b]
		if oka && okb {
			vals[name] = va - vb
		} else {
			res.Skipped = append(res.Skipped, name+": needs "+a+" and "+b)
		}
	}
	for _, k := range []string{"goll", "foll", "roll"} {
		diff(k+".self_ns", k+".proc_ns", "rind.csnzi_ns")
	}
	diff("bravo.self_ns", "bravo.goll_ns", "goll.proc_ns")
	gollRung := facadeRung("goll")
	for _, sw := range []string{"stats", "trace", "profile", "deadline", "wait_adaptive"} {
		diff("lockcore."+sw+"_over_ns", "lockcore."+sw, gollRung)
	}
	diff("facade.iface_over_ns", gollRung, "goll.proc_ns")
	diff("facade.pooled_over_ns", "facade.pooled_ns", gollRung)
	diff("kvstore.cs_ns", "kvstore.roll_op_ns", facadeRung("roll"))

	// Ladders: each end-to-end rung as a sum of layer self times.
	res.Ladders = map[string][]ladderStep{}
	ladder := func(top string, rungs ...string) {
		var steps []ladderStep
		below := 0.0
		for _, r := range append(rungs, top) {
			v, ok := vals[r]
			if !ok {
				return
			}
			layer, _, _ := strings.Cut(r, ".")
			steps = append(steps, ladderStep{layer, v - below})
			below = v
		}
		res.Ladders[top] = steps
	}
	ladder(facadeRung("goll"), "ref.loop_ns", "rind.csnzi_ns", "goll.proc_ns")
	ladder(facadeRung("foll"), "ref.loop_ns", "rind.csnzi_ns", "foll.proc_ns")
	ladder(facadeRung("roll"), "ref.loop_ns", "rind.csnzi_ns", "roll.proc_ns")
	ladder(facadeRung("bravo_goll"), "ref.loop_ns", "rind.csnzi_ns", "goll.proc_ns", "bravo.goll_ns")
	ladder("kvstore.roll_op_ns", "ref.loop_ns", "rind.csnzi_ns", "roll.proc_ns", facadeRung("roll"))

	res.Skipped = append(res.Skipped, hostCounts(h.sched, vals)...)
	res.Skipped = append(res.Skipped, parkRows(seed, scaled(600000, seconds, 2000), 5, vals)...)
}

// simLayers fills in the traced run's simulated metrics. main holds the
// traced first-seed run of each kind; the same runs are repeated
// untraced, which must reproduce every simulated number bit for bit and
// whose host time gives the tracing overhead.
func (res *result) simLayers(w *workload, seed uint64, simOps int, main [][]*simResult, simulate func(*simRun) *simResult, tr *tracer, vals map[string]float64) {
	s0 := simSeed(seed, 0)
	// one runs a further simulation; feeds names the metric it is for,
	// which is reported as skipped when the registry lacks the variant.
	one := func(spec simSpec, feeds string) *simResult {
		run, err := prepareSim(spec)
		if err != nil {
			res.Skipped = append(res.Skipped, fmt.Sprintf("%s: %v", feeds, err))
			return nil
		}
		return simulate(run)
	}
	at := func(kind string, threads int) simSpec {
		return simSpec{Kind: kind, Threads: threads, ReadPct: w.SimReadPct, Ops: simOps, Seed: s0}
	}

	var steps, acq int64
	var tracedCPU, plainCPU time.Duration
	sums := map[string]uint64{} // counters summed over the four kinds
	for k, lk := range lockKinds {
		if len(main[k]) == 0 {
			continue
		}
		r := main[k][0]
		tr.simAcquisitions(hostPid+1+k, r)
		steps += r.Steps
		acq += r.Acq
		tracedCPU += r.HostCPU
		if plain := one(at(lk.Kind, w.SimThreads), "trace.overhead_frac"); plain != nil {
			plainCPU += plain.HostCPU
			if !plain.identical(r) {
				res.problem("sim %s: traced and untraced runs differ in simulated time", lk.Kind)
			}
		}
		p := "simlock." + lk.Key
		vals[p+"_read_wait_p50_ns"] = cyclesToNs(float64(percentile(r.ReadWait, 0.50)))
		vals[p+"_read_wait_p99_ns"] = cyclesToNs(float64(percentile(r.ReadWait, 0.99)))
		vals[p+"_write_wait_p50_ns"] = cyclesToNs(float64(percentile(r.WriteWait, 0.50)))
		vals[p+"_write_wait_p99_ns"] = cyclesToNs(float64(percentile(r.WriteWait, 0.99)))
		vals[p+"_hold_ns"] = cyclesToNs(ratio(float64(r.HoldSum), float64(r.Acq)))
		vals[p+"_release_ns"] = cyclesToNs(ratio(float64(r.ReleaseSum), float64(r.Acq)))
		vals["sim."+lk.Key+"_remote_frac"] = ratio(float64(r.Remote), float64(r.Accesses))
		vals["sim."+lk.Key+"_accesses_per_acq"] = ratio(float64(r.Accesses), float64(r.Acq))
		if t64 := one(at(lk.Kind, 64), p+"_ns_per_acq_t64"); t64 != nil {
			vals[p+"_ns_per_acq_t64"] = t64.nsPerAcq()
		}
		for name, c := range r.Counters {
			if strings.HasPrefix(name, "csnzi.") {
				sums[name] += c
			}
		}
		kop := func(name string) float64 { return 1000 * ratio(float64(r.Counters[name]), float64(r.Acq)) }
		switch lk.Kind {
		case "goll":
			vals["simlock.goll_handoffs_per_kop"] = kop("goll.handoff")
		case "foll":
			vals["simlock.foll_enqueues_per_kop"] = kop("foll.read.enqueue")
			vals["simlock.foll_joins_per_enqueue"] = ratio(float64(r.Counters["foll.read.join"]), float64(r.Counters["foll.read.enqueue"]))
		case "roll":
			vals["simlock.roll_enqueues_per_kop"] = kop("roll.read.enqueue")
			vals["simlock.roll_joins_per_enqueue"] = ratio(float64(r.Counters["roll.read.join"]), float64(r.Counters["roll.read.enqueue"]))
			vals["simlock.roll_overtakes_per_kop"] = kop("roll.overtake")
			hit, miss := float64(r.Counters["roll.hint.hit"]), float64(r.Counters["roll.hint.miss"])
			vals["simlock.roll_hint_hit_frac"] = ratio(hit, hit+miss)
		case "bravo-goll":
			fast, slow := float64(r.Counters["bravo.read.fast"]), float64(r.Counters["bravo.read.slow"])
			vals["simlock.bravo_fast_read_frac"] = ratio(fast, fast+slow)
			vals["simlock.bravo_revokes_per_kop"] = kop("bravo.revoke")
		}
	}
	tree, root := float64(sums["csnzi.arrive.tree"]), float64(sums["csnzi.arrive.root"])
	vals["simlock.tree_arrive_frac"] = ratio(tree, tree+root)
	vals["simlock.closes_per_kop"] = 1000 * ratio(float64(sums["csnzi.close"]), float64(acq))
	vals["sim.steps"] = float64(steps)
	vals["sim.steps_per_acq"] = ratio(float64(steps), float64(acq))
	vals["sim.host_s"] = tracedCPU.Seconds()
	vals["trace.overhead_frac"] = ratio(tracedCPU.Seconds(), plainCPU.Seconds()) - 1

	for _, ind := range bareRuns {
		name := "simlock.rind_" + ind + "_ns"
		if r := one(simSpec{Bare: ind, Threads: w.SimThreads, ReadPct: 100, Ops: simOps, Seed: s0}, name); r != nil {
			vals[name] = r.nsPerAcq()
		}
	}
	for _, x := range variantRuns {
		if r := one(at(x.kind, w.SimThreads), x.metric); r != nil {
			vals[x.metric] = r.nsPerAcq()
		}
	}
}
