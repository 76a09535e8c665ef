package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ollock"
	"ollock/internal/rind"
)

// This file holds every host-side call into the library, and the only
// host-side internal import (rind, for the bare indicator rungs).
// Kinds, indicators and wait modes are addressed by registry string, so
// a variant a later change prunes shows up under "skipped" instead of
// breaking the build.

// hostProcs is the participant capacity every host lock is built with.
const hostProcs = 4

// rwProc is what every measured lock offers, library or yardstick.
type rwProc interface {
	RLock()
	RUnlock()
	Lock()
	Unlock()
}

// quiescer is offered by the queue locks: pool and queue state that
// must be back at rest once nobody holds or waits.
type quiescer interface {
	NodesInUse() int
	Idle() bool
}

// hostCopies is how many times the host half is built. What one lock
// or map costs depends on where its memory happens to land — the same
// Put measured 56 to 70 ns from one process to the next, the same
// Lock/Unlock 50 to 54 — so every rung is built hostCopies times, the
// copies take turns round by round, and a rung's value is the mean over
// its copies.
const hostCopies = 4

// hostSection is one prepared copy of the host half of a run.
type hostSection struct {
	sched   *schedule
	salt    uint64
	rungs   []*rung
	skipped []string
	locks   []ollock.Lock
	// failed counts operations whose result was wrong inside the timed
	// loops: a refused arrival, a timed-out acquisition, a kv miss.
	failed int
}

func (h *hostSection) add(name, parent string, run func(n int)) {
	h.rungs = append(h.rungs, &rung{name: name, parent: parent, run: run})
}

// lock builds a lock by registry string and returns one Proc on it, or
// nil after recording the rung names that depend on it as skipped.
func (h *hostSection) lock(kind string, opts []ollock.Option, rungs ...string) ollock.Proc {
	l, err := ollock.New(ollock.Kind(kind), hostProcs, opts...)
	if err != nil {
		for _, r := range rungs {
			h.skipped = append(h.skipped, fmt.Sprintf("%s: %v", r, err))
		}
		return nil
	}
	h.locks = append(h.locks, l)
	return l.NewProc()
}

// The timed loops. Each is written out per concrete type so that the
// call inside it is the direct or the interface call the rung names.

func loopEmpty(s *schedule, n int) (reads int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			reads++
		}
	}
	return reads
}

func loopProc(p ollock.Proc, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			p.RLock()
			p.RUnlock()
		} else {
			p.Lock()
			p.Unlock()
		}
	}
}

func loopGOLL(p *ollock.GOLLProc, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			p.RLock()
			p.RUnlock()
		} else {
			p.Lock()
			p.Unlock()
		}
	}
}

func loopFOLL(p *ollock.FOLLProc, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			p.RLock()
			p.RUnlock()
		} else {
			p.Lock()
			p.Unlock()
		}
	}
}

func loopROLL(p *ollock.ROLLProc, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			p.RLock()
			p.RUnlock()
		} else {
			p.Lock()
			p.Unlock()
		}
	}
}

func loopBravo(p *ollock.BravoProc, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			p.RLock()
			p.RUnlock()
		} else {
			p.Lock()
			p.Unlock()
		}
	}
}

func loopRWMutex(m *sync.RWMutex, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			m.RLock()
			m.RUnlock()
		} else {
			m.Lock()
			m.Unlock()
		}
	}
}

func loopTicket(l *ticketRW, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			l.RLock()
			l.RUnlock()
		} else {
			l.Lock()
			l.Unlock()
		}
	}
}

// loopIndicator is the bare read-indicator pair: Arrive+Depart for a
// read, CloseIfEmpty+Open for a write.
func loopIndicator(ind rind.Indicator, s *schedule, n int, failed *int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			t := ind.Arrive(0)
			if !t.Arrived() {
				*failed++
				continue
			}
			ind.Depart(t)
		} else {
			if !ind.CloseIfEmpty() {
				*failed++
				continue
			}
			ind.Open()
		}
	}
}

func loopDeadline(p ollock.DeadlineProc, s *schedule, n int, failed *int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			if !p.RLockFor(time.Second) {
				*failed++
				continue
			}
			p.RUnlock()
		} else {
			if !p.LockFor(time.Second) {
				*failed++
				continue
			}
			p.Unlock()
		}
	}
}

func nop() {}

func loopPooled(pl *ollock.Pooled, s *schedule, n int) {
	for i := 0; i < n; i++ {
		if s.read(i) {
			pl.Read(nop)
		} else {
			pl.Write(nop)
		}
	}
}

var sink int

// facadeRung names the rung that drives a lock kind through the public
// interface (ollock.New, ollock.Proc): its end-to-end metric on the host.
func facadeRung(key string) string { return "facade." + key + "_ns" }

// setupHost builds the schedule, every lock and Proc, and the kv
// stores for one run. Untraced runs get the end-to-end rungs and the
// yardstick; traced runs get the whole ladder.
func setupHost(w *workload, seed uint64, traced bool) *hostSection {
	h := &hostSection{sched: newSchedule(seed, w.HostReadPct)}
	sr := derive(seed, 1)
	h.salt = sr.next()
	s := h.sched

	// The sync.RWMutex yardstick is timed in untraced runs too: it is
	// the row that tells a moved machine from a moved lock. Concrete
	// *Proc rungs (zero Instr) sit under the facade rungs; both share
	// one lock per kind.
	var mu sync.RWMutex
	h.add("ref.rwmutex_ns", "ref.loop_ns", func(n int) { loopRWMutex(&mu, s, n) })
	procs := map[string]ollock.Proc{}
	for _, k := range lockKinds {
		procRung := k.Key + ".proc_ns"
		if k.Kind == "bravo-goll" {
			procRung = "bravo.goll_ns"
		}
		p := h.lock(k.Kind, nil, facadeRung(k.Key), procRung)
		if p == nil {
			continue
		}
		procs[k.Kind] = p
		h.add(facadeRung(k.Key), procRung, func(n int) { loopProc(p, s, n) })
	}
	if kv, err := newKVStore("roll", hostProcs); err != nil {
		h.skipped = append(h.skipped, fmt.Sprintf("kvstore.roll_op_ns: %v", err))
	} else {
		h.locks = append(h.locks, kv.lock)
		se := kv.session()
		h.add("kvstore.roll_op_ns", facadeRung("roll"), func(n int) { loopKV(se, s, h.salt, n, &h.failed) })
	}
	if !traced {
		return h
	}

	h.add("ref.loop_ns", "", func(n int) { sink += loopEmpty(s, n) })
	var tk ticketRW
	h.add("ref.ticketrw_ns", "ref.loop_ns", func(n int) { loopTicket(&tk, s, n) })

	for _, ik := range []struct {
		name string
		ind  rind.Indicator
	}{
		{"rind.csnzi_ns", rind.NewCSNZI()},
		{"rind.central_ns", rind.NewCentral()},
		{"rind.sharded_ns", rind.NewSharded(0)},
	} {
		h.add(ik.name, "ref.loop_ns", func(n int) { loopIndicator(ik.ind, s, n, &h.failed) })
	}

	if p, ok := procs["goll"].(*ollock.GOLLProc); ok {
		h.add("goll.proc_ns", "rind.csnzi_ns", func(n int) { loopGOLL(p, s, n) })
	}
	if p, ok := procs["foll"].(*ollock.FOLLProc); ok {
		h.add("foll.proc_ns", "rind.csnzi_ns", func(n int) { loopFOLL(p, s, n) })
	}
	if p, ok := procs["roll"].(*ollock.ROLLProc); ok {
		h.add("roll.proc_ns", "rind.csnzi_ns", func(n int) { loopROLL(p, s, n) })
	}
	if p, ok := procs["bravo-goll"].(*ollock.BravoProc); ok {
		h.add("bravo.goll_ns", "goll.proc_ns", func(n int) { loopBravo(p, s, n) })
	}
	if p, ok := h.lock("bravo-roll", nil, "bravo.roll_ns").(*ollock.BravoProc); ok {
		h.add("bravo.roll_ns", "roll.proc_ns", func(n int) { loopBravo(p, s, n) })
	}

	// Indicator variants, through the same concrete Proc types.
	for _, v := range []struct{ rung, kind, ind string }{
		{"goll.central_ns", "goll", "central"},
		{"goll.sharded_ns", "goll", "sharded"},
		{"foll.sharded_ns", "foll", "sharded"},
		{"roll.sharded_ns", "roll", "sharded"},
	} {
		switch p := h.lock(v.kind, []ollock.Option{ollock.WithIndicator(ollock.IndicatorKind(v.ind))}, v.rung).(type) {
		case *ollock.GOLLProc:
			h.add(v.rung, "rind."+v.ind+"_ns", func(n int) { loopGOLL(p, s, n) })
		case *ollock.FOLLProc:
			h.add(v.rung, "rind."+v.ind+"_ns", func(n int) { loopFOLL(p, s, n) })
		case *ollock.ROLLProc:
			h.add(v.rung, "rind."+v.ind+"_ns", func(n int) { loopROLL(p, s, n) })
		}
	}

	// The Instr seam: GOLL through the facade with exactly one switch on.
	tracer := ollock.NewTracer(0)
	profiler := ollock.NewProfiler(0)
	for _, v := range []struct {
		rung string
		opt  ollock.Option
	}{
		{"lockcore.stats", ollock.WithStats("")},
		{"lockcore.trace", ollock.WithTrace(tracer.Register("bench"))},
		{"lockcore.profile", ollock.WithProfile(profiler.Register("bench"))},
		{"lockcore.wait_adaptive", ollock.WithWait(ollock.WaitMode("adaptive"))},
	} {
		if p := h.lock("goll", []ollock.Option{v.opt}, v.rung+"_over_ns"); p != nil {
			h.add(v.rung, facadeRung("goll"), func(n int) { loopProc(p, s, n) })
		}
	}
	if p := h.lock("goll", nil, "lockcore.deadline_over_ns"); p != nil {
		if dp, ok := p.(ollock.DeadlineProc); ok {
			h.add("lockcore.deadline", facadeRung("goll"), func(n int) { loopDeadline(dp, s, n, &h.failed) })
		} else {
			h.skipped = append(h.skipped, "lockcore.deadline_over_ns: goll Proc is not a DeadlineProc")
		}
	}

	if pl, err := ollock.NewPooled("goll", hostProcs); err != nil {
		h.skipped = append(h.skipped, fmt.Sprintf("facade.pooled_ns: %v", err))
	} else {
		h.add("facade.pooled_ns", facadeRung("goll"), func(n int) { loopPooled(pl, s, n) })
	}

	if kv, err := newKVStore("goll", hostProcs); err != nil {
		h.skipped = append(h.skipped, fmt.Sprintf("kvstore.goll_op_ns: %v", err))
	} else {
		se := kv.session()
		h.add("kvstore.goll_op_ns", facadeRung("goll"), func(n int) { loopKV(se, s, h.salt, n, &h.failed) })
	}
	std := newStdKV()
	h.add("kvstore.rwmutex_op_ns", "ref.rwmutex_ns", func(n int) { loopStdKV(std, s, h.salt, n, &h.failed) })
	h.rungs = parentsFirst(h.rungs)
	return h
}

// parentsFirst orders rungs so that each comes after the rung it names
// as parent (a parent that was skipped counts as present), keeping the
// given order otherwise: a round's spans then find their parents.
func parentsFirst(rungs []*rung) []*rung {
	named := map[string]bool{}
	for _, r := range rungs {
		named[r.name] = true
	}
	placed := map[string]bool{}
	out := make([]*rung, 0, len(rungs))
	for len(out) < len(rungs) {
		for _, r := range rungs {
			if !placed[r.name] && (r.parent == "" || placed[r.parent] || !named[r.parent]) {
				placed[r.name] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// atRest reports whether a lock nobody holds is back at rest. It can
// fail only for the queue locks: more than the one resting reader node
// checked out of the pool, or a holder or waiter left in the queue.
func atRest(l ollock.Lock) bool {
	q, ok := l.(quiescer)
	return !ok || (q.NodesInUse() <= 1 && q.Idle())
}

// unrested counts the section's locks that did not return to rest.
func (h *hostSection) unrested() (bad int) {
	for _, l := range h.locks {
		if !atRest(l) {
			bad++
		}
	}
	return bad
}

// checkedPass hammers one lock from two goroutines at 80% reads with a
// critical section that verifies a two-word invariant: a writer moves
// both words, so any reader or writer that sees them differ overlapped
// a writer. It returns the operations attempted and the violations.
func checkedPass(procs [2]rwProc, seed uint64, opsEach int) (attempted, violations int) {
	var x, y uint64
	var bad [2]int
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := procs[g]
			r := derive(seed, 100+g)
			for i := 0; i < opsEach; i++ {
				if r.pct(80) {
					p.RLock()
					if x != y {
						bad[g]++
					}
					p.RUnlock()
				} else {
					p.Lock()
					if x != y {
						bad[g]++
					}
					x++
					spinHint.Load()
					y++
					p.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if x != y {
		bad[0]++
	}
	return 2 * opsEach, bad[0] + bad[1]
}

// checkHost runs the checked pass over the four library kinds.
func checkHost(seed uint64, opsEach int) (attempted, failed int, skipped []string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	for _, k := range lockKinds {
		l, err := ollock.New(ollock.Kind(k.Kind), hostProcs)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("check %s: %v", k.Kind, err))
			failed++
			continue
		}
		a, v := checkedPass([2]rwProc{l.NewProc(), l.NewProc()}, seed, opsEach)
		attempted += a
		failed += v
		if !atRest(l) {
			failed++
		}
	}
	return attempted, failed, skipped
}

// contended runs goroutines closed-loop over procs (one each) at 80%
// reads for opsEach acquisitions apiece and returns wall nanoseconds
// per acquisition. These rungs are diagnostic: on two vCPUs their
// run-to-run spread is 20-25%.
func contended(procs []rwProc, seed uint64, opsEach int) float64 {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range procs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := procs[g]
			r := derive(seed, 200+g)
			<-start
			for i := 0; i < opsEach; i++ {
				if r.pct(80) {
					p.RLock()
					p.RUnlock()
				} else {
					p.Lock()
					p.Unlock()
				}
			}
		}(g)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(len(procs)*opsEach)
}

// contendedProcs builds n participants on one lock: Procs of a library
// kind, or n references to one sync.RWMutex.
func contendedProcs(kind string, n int, opts ...ollock.Option) ([]rwProc, ollock.Lock, error) {
	procs := make([]rwProc, n)
	if kind == "rwmutex" {
		var mu sync.RWMutex
		for i := range procs {
			procs[i] = &mu
		}
		return procs, nil, nil
	}
	l, err := ollock.New(ollock.Kind(kind), n, opts...)
	if err != nil {
		return nil, nil, err
	}
	for i := range procs {
		procs[i] = l.NewProc()
	}
	return procs, l, nil
}

// parkRows measures the contended rungs into out: two goroutines on the
// run's processors (median of reps), and four goroutines on one
// processor, where waiting policy decides everything.
func parkRows(seed uint64, opsEach, reps int, out map[string]float64) (skipped []string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	worst := 0.0
	for _, kind := range []string{"goll", "foll", "roll", "rwmutex"} {
		procs, _, err := contendedProcs(kind, 2)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("park.%s_2t_ns: %v", kind, err))
			continue
		}
		vs := make([]float64, reps)
		lo, hi := 0.0, 0.0
		for i := range vs {
			vs[i] = contended(procs, seed+uint64(i), opsEach)
			if i == 0 || vs[i] < lo {
				lo = vs[i]
			}
			if vs[i] > hi {
				hi = vs[i]
			}
		}
		_, med, _ := quartiles(vs)
		out["park."+kind+"_2t_ns"] = med
		if sp := ratio(hi-lo, med); sp > worst {
			worst = sp
		}
	}
	out["park.spread_2t"] = worst

	runtime.GOMAXPROCS(1)
	for _, kind := range []string{"goll", "roll", "rwmutex"} {
		procs, _, err := contendedProcs(kind, 4)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("park.%s_4g1p_ns: %v", kind, err))
			continue
		}
		out["park."+kind+"_4g1p_ns"] = contended(procs, seed, opsEach/2)
	}
	procs, l, err := contendedProcs("goll", 4, ollock.WithWait(ollock.WaitMode("adaptive")), ollock.WithStats(""))
	if err != nil {
		return append(skipped, fmt.Sprintf("park.parks_per_kop: %v", err))
	}
	contended(procs, seed, opsEach/2)
	if sn, ok := ollock.SnapshotOf(l); ok {
		out["park.parks_per_kop"] = 1000 * ratio(float64(sn.Counter("park.park")), float64(4*(opsEach/2)))
	}
	return skipped
}

// statsOps is the length of the WithStats pass: the whole schedule once.
const statsOps = schedBits

// hostCounts runs the schedule once through each kind built WithStats,
// on one goroutine — so every count repeats exactly for a seed — and
// turns the counters into per-1000-op rates and ratios.
func hostCounts(s *schedule, out map[string]float64) (skipped []string) {
	snap := func(kind string) (ollock.Snapshot, bool) {
		l, err := ollock.New(ollock.Kind(kind), hostProcs, ollock.WithStats(""))
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("stats %s: %v", kind, err))
			return ollock.Snapshot{}, false
		}
		loopProc(l.NewProc(), s, statsOps)
		return ollock.SnapshotOf(l)
	}
	kop := func(c uint64) float64 { return 1000 * float64(c) / statsOps }
	if sn, ok := snap("goll"); ok {
		tree, root := float64(sn.Counter("csnzi.arrive.tree")), float64(sn.Counter("csnzi.arrive.root"))
		out["rind.tree_arrive_frac"] = ratio(tree, tree+root)
		out["rind.closes_per_kop"] = kop(sn.Counter("csnzi.close"))
		out["goll.handoffs_per_kop"] = kop(sn.Counter("goll.handoff"))
	}
	if sn, ok := snap("foll"); ok {
		out["foll.enqueues_per_kop"] = kop(sn.Counter("foll.read.enqueue"))
		out["foll.joins_per_enqueue"] = ratio(float64(sn.Counter("foll.read.join")), float64(sn.Counter("foll.read.enqueue")))
	}
	if sn, ok := snap("roll"); ok {
		out["roll.enqueues_per_kop"] = kop(sn.Counter("roll.read.enqueue"))
		out["roll.joins_per_enqueue"] = ratio(float64(sn.Counter("roll.read.join")), float64(sn.Counter("roll.read.enqueue")))
		out["roll.overtakes_per_kop"] = kop(sn.Counter("roll.overtake"))
		hit, miss := float64(sn.Counter("roll.hint.hit")), float64(sn.Counter("roll.hint.miss"))
		out["roll.hint_hit_frac"] = ratio(hit, hit+miss)
	}
	if sn, ok := snap("bravo-goll"); ok {
		fast, slow := float64(sn.Counter("bravo.read.fast")), float64(sn.Counter("bravo.read.slow"))
		out["bravo.fast_read_frac"] = ratio(fast, fast+slow)
		out["bravo.revokes_per_kop"] = kop(sn.Counter("bravo.revoke"))
	}
	return skipped
}
