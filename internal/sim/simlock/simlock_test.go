package simlock

import (
	"strings"
	"sync"
	"testing"

	"ollock/internal/sim"
)

func testCfg() sim.Config {
	return sim.Config{
		Chips: 4, ThreadsPerChip: 8, ThreadsPerCore: 4,
		CostLocal: 1, CostCore: 3, CostShared: 30, CostRemote: 120, CostOp: 3, Jitter: 4,
		MaxSteps: 50_000_000,
	}
}

// checkedRun runs the workload with a 20-cycle critical section, the
// interleaving window inside which RunConfigured's exclusion check can
// catch a broken lock.
func checkedRun(f Factory, threads int, readFraction float64, opsPerThread int, seed uint64) Result {
	return RunConfigured(Experiment{
		Factory:      f,
		Machine:      testCfg(),
		Threads:      threads,
		ReadFraction: readFraction,
		OpsPerThread: opsPerThread,
		Seed:         seed,
		CriticalWork: 20,
	})
}

// TestExclusionAllLocks checks exclusion for every registered kind and,
// on the same runs, that the tallies are complete: every acquisition
// has one latency sample, and every BRAVO read took exactly one of the
// two paths its counters name.
func TestExclusionAllLocks(t *testing.T) {
	fractions := []float64{0.0, 0.5, 0.95, 1.0}
	for _, f := range Locks {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for _, frac := range fractions {
				for _, threads := range []int{1, 2, 7, 16} {
					res := checkedRun(f, threads, frac, 60, 12345)
					if res.Violations != 0 {
						t.Fatalf("threads=%d frac=%v: %d violations", threads, frac, res.Violations)
					}
					if res.Read.Count+res.Write.Count != res.TotalOps {
						t.Fatalf("threads=%d frac=%v: latency counts %d+%d != total %d",
							threads, frac, res.Read.Count, res.Write.Count, res.TotalOps)
					}
					if strings.HasPrefix(f.Name, "bravo-") {
						fast, slow := res.Snapshot.Counters["bravo.read.fast"], res.Snapshot.Counters["bravo.read.slow"]
						if int64(fast+slow) != res.Read.Count {
							t.Fatalf("threads=%d frac=%v: bravo.read.fast %d + slow %d != %d reads",
								threads, frac, fast, slow, res.Read.Count)
						}
					}
				}
			}
		})
	}
}

// unlockedLock excludes nothing: each acquire and release is one load.
type unlockedLock struct{ w *sim.Word }

func (l *unlockedLock) NewProc(int) Proc   { return l }
func (l *unlockedLock) RLock(c *sim.Ctx)   { c.Load(l.w) }
func (l *unlockedLock) RUnlock(c *sim.Ctx) { c.Load(l.w) }
func (l *unlockedLock) Lock(c *sim.Ctx)    { c.Load(l.w) }
func (l *unlockedLock) Unlock(c *sim.Ctx)  { c.Load(l.w) }

// TestExclusionCheckCatchesBrokenLock: the check is live — a lock that
// lets writers overlap must show up as violations.
func TestExclusionCheckCatchesBrokenLock(t *testing.T) {
	f := Factory{Name: "unlocked", New: func(m *sim.Machine, n int) Lock {
		return &unlockedLock{w: m.NewWord(0)}
	}}
	if res := checkedRun(f, 8, 0.5, 40, 1); res.Violations == 0 {
		t.Fatal("no violations reported for a lock without exclusion")
	}
}

func TestDeterministicThroughput(t *testing.T) {
	for _, f := range Locks {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			a := RunExperiment(f, testCfg(), 8, 0.95, 80, 99)
			b := RunExperiment(f, testCfg(), 8, 0.95, 80, 99)
			if a.Cycles != b.Cycles || a.Throughput != b.Throughput {
				t.Fatalf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
			}
			if a.Throughput <= 0 {
				t.Fatal("zero throughput")
			}
		})
	}
}

// TestReadOnlyScalingShape: under 100% reads on the full T5440 topology,
// the OLL locks must scale with thread count while the centralized locks
// must not — the paper's Figure 5(a) ordering.
func TestReadOnlyScalingShape(t *testing.T) {
	t.Parallel()
	speedup := func(name string) float64 {
		f := ByName(name)
		if f == nil {
			t.Fatalf("no factory %q", name)
		}
		one := RunExperiment(*f, sim.T5440(), 1, 1.0, 120, 7)
		many := RunExperiment(*f, sim.T5440(), 128, 1.0, 120, 7)
		return many.Throughput / one.Throughput
	}
	for _, name := range []string{"goll", "foll", "roll"} {
		if s := speedup(name); s < 8 {
			t.Errorf("%s read-only speedup at 128 threads = %.2fx, want >= 8x", name, s)
		}
	}
	for _, name := range []string{"solaris", "central"} {
		if s := speedup(name); s > 2.5 {
			t.Errorf("%s read-only speedup = %.2fx, want <= 2.5x (centralized lock must not scale)", name, s)
		}
	}
}

// TestOLLBeatKSUHReadOnly: at high thread counts and 100% reads the OLL
// locks must outperform KSUH by a wide margin (Figure 5(a): "two orders
// of magnitude better" at 256; we require >= 10x at 128).
func TestOLLBeatKSUHReadOnly(t *testing.T) {
	t.Parallel()
	cfg := sim.T5440()
	ksuh := RunExperiment(*ByName("ksuh"), cfg, 128, 1.0, 120, 3)
	for _, name := range []string{"goll", "foll", "roll"} {
		oll := RunExperiment(*ByName(name), cfg, 128, 1.0, 120, 3)
		if oll.Throughput < 10*ksuh.Throughput {
			t.Errorf("%s throughput %.3e not >= 10x KSUH %.3e at 128 threads read-only",
				name, oll.Throughput, ksuh.Throughput)
		}
	}
}

// TestFOLLOffChipCliff99: FOLL loses a large fraction of its on-chip
// throughput once communication goes off-chip at 99% reads (Figure
// 5(b)'s "dramatic performance drop").
func TestFOLLOffChipCliff99(t *testing.T) {
	t.Parallel()
	cfg := sim.T5440()
	onChip := RunExperiment(*ByName("foll"), cfg, 64, 0.99, 120, 11)
	offChip := RunExperiment(*ByName("foll"), cfg, 256, 0.99, 120, 11)
	if offChip.Throughput > onChip.Throughput/2 {
		t.Errorf("FOLL off-chip %.3e not <= half of on-chip %.3e at 99%% reads",
			offChip.Throughput, onChip.Throughput)
	}
}

// TestGOLLBeatsSolaris99: at 99% reads GOLL must beat the Solaris-like
// lock (Figure 5(b)), even though both eventually serialize on the queue
// mutex.
func TestGOLLBeatsSolaris99(t *testing.T) {
	t.Parallel()
	cfg := sim.T5440()
	goll := RunExperiment(*ByName("goll"), cfg, 32, 0.99, 120, 19)
	sol := RunExperiment(*ByName("solaris"), cfg, 32, 0.99, 120, 19)
	if goll.Throughput <= sol.Throughput {
		t.Errorf("GOLL %.3e not above Solaris-like %.3e at 32 threads / 99%% reads",
			goll.Throughput, sol.Throughput)
	}
}

// TestDistributedBeatKSUH95: at 95% reads the FOLL and ROLL locks beat
// KSUH clearly at full machine scale (Figure 5(c): "over 5x faster ...
// at 256 threads"; we require 3x at 192 to keep the test fast).
func TestDistributedBeatKSUH95(t *testing.T) {
	t.Parallel()
	cfg := sim.T5440()
	ksuh := RunExperiment(*ByName("ksuh"), cfg, 192, 0.95, 120, 23)
	for _, name := range []string{"foll", "roll"} {
		r := RunExperiment(*ByName(name), cfg, 192, 0.95, 120, 23)
		if r.Throughput < 3*ksuh.Throughput {
			t.Errorf("%s %.3e not >= 3x KSUH %.3e at 192 threads / 95%% reads",
				name, r.Throughput, ksuh.Throughput)
		}
	}
}

// TestOffChipRemoteFraction: a centralized lock's accesses become
// predominantly cross-chip once threads span chips.
func TestOffChipRemoteFraction(t *testing.T) {
	cfg := testCfg() // 8 threads per chip
	onChip := RunExperiment(*ByName("solaris"), cfg, 8, 1.0, 100, 5)
	offChip := RunExperiment(*ByName("solaris"), cfg, 32, 1.0, 100, 5)
	if onChip.RemoteFraction > 0.2 {
		t.Errorf("on-chip run has %.0f%% remote accesses, want < 20%%", onChip.RemoteFraction*100)
	}
	if offChip.RemoteFraction < 0.4 {
		t.Errorf("off-chip run has %.0f%% remote accesses, want > 40%%", offChip.RemoteFraction*100)
	}
}

// TestROLLBeatsFOLLOffChip99: the paper's headline ROLL result — at 99%
// reads with threads spanning chips, ROLL sustains higher throughput
// than FOLL because readers coalesce onto one waiting group instead of
// fragmenting behind writers. The gap is widest at full machine scale
// (256 threads) and modest (the paper's is larger — see EXPERIMENTS.md),
// so the ordering is asserted on the mean over several seeds: one seed
// is one interleaving, and at a few percent margin single interleavings
// go either way.
func TestROLLBeatsFOLLOffChip99(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed full-machine comparison is slow under -short")
	}
	t.Parallel()
	cfg := sim.T5440()
	var roll, foll float64
	var wg sync.WaitGroup
	sum := func(name string, out *float64) {
		defer wg.Done()
		for seed := uint64(42); seed < 46; seed++ {
			*out += RunExperiment(*ByName(name), cfg, 256, 0.99, 120, seed).Throughput
		}
	}
	wg.Add(2)
	go sum("foll", &foll)
	go sum("roll", &roll)
	wg.Wait()
	if roll <= foll {
		t.Errorf("ROLL %.3e not above FOLL %.3e at 256 threads / 99%% reads (mean of 4 seeds)",
			roll/4, foll/4)
	}
}

// TestWriteOnlyQueueLocksComparable: at 0% reads all queue locks
// serialize writers; none should collapse versus the others by more
// than an order of magnitude (Figure 5(f) shows them clustered).
func TestWriteOnlyQueueLocksComparable(t *testing.T) {
	cfg := testCfg()
	var min, max float64
	for i, name := range []string{"foll", "roll", "ksuh"} {
		r := RunExperiment(*ByName(name), cfg, 16, 0.0, 80, 13)
		if i == 0 || r.Throughput < min {
			min = r.Throughput
		}
		if i == 0 || r.Throughput > max {
			max = r.Throughput
		}
	}
	if max > 10*min {
		t.Errorf("queue locks spread too wide at 0%% reads: min %.3e max %.3e", min, max)
	}
}

// TestROLLWriteHandoffKeepsFOLLPace: ROLL is FOLL plus a back link and
// a reader-join rule (§4.3), so with no readers it must hand off at
// nearly FOLL's pace (Figure 5(e)/(f): "all distributed queue locks
// behave similarly"). A grant that also cleared the grantee's back
// link — a second remote line on the critical path — ran at 0.75×. What
// ROLL may add is the new head's clear of its own back link (BecomeHead),
// one private store: at most CostLocal+CostOp+Jitter cycles per
// acquisition at every thread count. As a ratio that store weighs more
// the cheaper the hand-off is, so the 0.90 floor is kept only where a
// hand-off crosses cores (64 and 256 threads). With no reads there is
// nothing random to draw, so one seed stands for all.
func TestROLLWriteHandoffKeepsFOLLPace(t *testing.T) {
	t.Parallel()
	cfg := sim.T5440()
	privateStore := float64(cfg.CostLocal + cfg.CostOp + cfg.Jitter)
	for _, threads := range []int{16, 64, 256} {
		foll := RunExperiment(*ByName("foll"), cfg, threads, 0, 40, 1)
		roll := RunExperiment(*ByName("roll"), cfg, threads, 0, 40, 1)
		fc := float64(foll.Cycles) / float64(foll.TotalOps)
		rc := float64(roll.Cycles) / float64(roll.TotalOps)
		if rc-fc > privateStore {
			t.Errorf("%d threads, 0%% reads: ROLL %.2f cycles/acq, FOLL %.2f: ROLL pays %.2f more, want <= %.0f (one private store)",
				threads, rc, fc, rc-fc, privateStore)
		}
		if r := roll.Throughput / foll.Throughput; threads >= 64 && r < 0.90 {
			t.Errorf("%d threads, 0%% reads: ROLL/FOLL = %.3f (%.3e / %.3e), want >= 0.90",
				threads, r, roll.Throughput, foll.Throughput)
		}
	}
}

func TestFigure5LocksList(t *testing.T) {
	fs := Figure5Locks()
	if len(fs) != 5 {
		t.Fatalf("Figure5Locks returned %d locks, want 5", len(fs))
	}
	want := []string{"goll", "foll", "roll", "ksuh", "solaris"}
	for i, f := range fs {
		if f.Name != want[i] {
			t.Fatalf("Figure5Locks[%d] = %q, want %q", i, f.Name, want[i])
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if ByName("nope") != nil {
		t.Fatal("ByName returned a factory for an unknown name")
	}
}

func TestResultString(t *testing.T) {
	r := RunExperiment(*ByName("central"), testCfg(), 2, 0.5, 20, 1)
	if s := r.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// TestLatencyExperimentSanity: latency accounting must be internally
// consistent and reflect the basic physics — waiting for a writer-held
// lock costs more than an uncontended acquire.
func TestLatencyExperimentSanity(t *testing.T) {
	r := RunExperiment(*ByName("foll"), testCfg(), 8, 0.9, 100, 3)
	if r.Read.Count+r.Write.Count != r.TotalOps {
		t.Fatalf("latency counts %d+%d != total %d", r.Read.Count, r.Write.Count, r.TotalOps)
	}
	if r.Read.Mean <= 0 || r.Write.Mean <= 0 {
		t.Fatal("non-positive mean latency")
	}
	if float64(r.Read.Max) < r.Read.Mean || float64(r.Write.Max) < r.Write.Mean {
		t.Fatal("max latency below mean")
	}
	solo := RunExperiment(*ByName("foll"), testCfg(), 1, 0.9, 100, 3)
	if r.Read.Mean <= solo.Read.Mean {
		t.Fatalf("contended read latency %.0f not above uncontended %.0f", r.Read.Mean, solo.Read.Mean)
	}
}

// TestReaderPreferenceCostsWriters: the fairness flip side of ROLL's
// throughput win — at a read-heavy mix with many threads, ROLL's writers
// wait at least as long as FOLL's (readers overtake them), while its
// readers do no worse.
func TestReaderPreferenceCostsWriters(t *testing.T) {
	t.Parallel()
	foll, roll := follROLL192()
	if roll.Write.Mean < foll.Write.Mean*0.9 {
		t.Errorf("ROLL writer latency %.0f unexpectedly below FOLL's %.0f (reader preference should not help writers)",
			roll.Write.Mean, foll.Write.Mean)
	}
	if roll.Read.Mean > foll.Read.Mean*1.5 {
		t.Errorf("ROLL reader latency %.0f far above FOLL's %.0f", roll.Read.Mean, foll.Read.Mean)
	}
}

// TestExclusionSeedSweep is lightweight schedule exploration: the
// simulator's deterministic interleavings vary with the workload seed
// (jitter streams shift every timing decision), so sweeping seeds
// explores many distinct schedules — this is how the two KSUH races
// recorded in DESIGN.md §3a were found. Runs a broad sweep unless
// -short.
func TestExclusionSeedSweep(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 5
	}
	for _, f := range Locks {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				res := checkedRun(f, 12, 0.5, 40, uint64(seed))
				if res.Violations != 0 {
					t.Fatalf("seed %d: %d violations", seed, res.Violations)
				}
			}
		})
	}
}

// TestCriticalWorkLowersThroughput: longer critical sections must lower
// throughput, and with very long sections the lock choice stops
// mattering (the paper's empty-section methodology maximizes lock
// sensitivity).
func TestCriticalWorkLowersThroughput(t *testing.T) {
	run := func(name string, cs int64) float64 {
		return RunConfigured(Experiment{
			Factory:      *ByName(name),
			Machine:      testCfg(),
			Threads:      16,
			ReadFraction: 0.95,
			OpsPerThread: 60,
			Seed:         9,
			CriticalWork: cs,
		}).Throughput
	}
	if run("foll", 1000) >= run("foll", 0) {
		t.Error("1000-cycle sections not slower than empty sections")
	}
	// At 50k-cycle sections the section dominates: locks converge.
	foll := run("foll", 50000)
	sol := run("solaris", 50000)
	ratio := foll / sol
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("with 50k-cycle sections foll/solaris = %.2f, want within 2x (section should dominate)", ratio)
	}
}

// TestBurstinessKeepsWriteFraction: the Markov mixing must preserve the
// long-run write fraction (checked by counting ops via a wrapper lock).
func TestBurstinessKeepsWriteFraction(t *testing.T) {
	count := func(burst float64) (reads, writes int64) {
		counter := &opCountingLock{}
		f := Factory{Name: "counted", New: func(m *sim.Machine, n int) Lock {
			counter.inner = NewCentral(m, n)
			return counter
		}}
		RunConfigured(Experiment{
			Factory:         f,
			Machine:         testCfg(),
			Threads:         16,
			ReadFraction:    0.9,
			OpsPerThread:    800,
			Seed:            3,
			WriteBurstiness: burst,
		})
		return counter.reads, counter.writes
	}
	for _, burst := range []float64{0, 0.5, 0.9} {
		r, w := count(burst)
		frac := float64(w) / float64(r+w)
		if frac < 0.07 || frac > 0.13 {
			t.Errorf("burst=%v: write fraction %.3f, want ~0.10", burst, frac)
		}
	}
}

// TestBurstyWritersFavorROLL: with bursty writers at scale, ROLL's group
// coalescing should beat FOLL by more than under i.i.d. writers.
func TestBurstyWritersFavorROLL(t *testing.T) {
	t.Parallel()
	ratio := func(burst float64) float64 {
		run := func(name string) float64 {
			return RunConfigured(Experiment{
				Factory:         *ByName(name),
				Machine:         sim.T5440(),
				Threads:         192,
				ReadFraction:    0.99,
				OpsPerThread:    120,
				Seed:            21,
				WriteBurstiness: burst,
			}).Throughput
		}
		return run("roll") / run("foll")
	}
	iid := ratio(0)
	bursty := ratio(0.9)
	if bursty < iid*0.95 {
		t.Errorf("ROLL/FOLL ratio with bursty writers %.3f below i.i.d. ratio %.3f", bursty, iid)
	}
	if bursty <= 1 {
		t.Errorf("ROLL did not beat FOLL under bursty writers (ratio %.3f)", bursty)
	}
}

// opCountingLock wraps a simulated lock, counting acquisitions by kind.
type opCountingLock struct {
	inner  Lock
	reads  int64
	writes int64
}

func (o *opCountingLock) NewProc(id int) Proc {
	return &opCountingProc{o: o, p: o.inner.NewProc(id)}
}

type opCountingProc struct {
	o *opCountingLock
	p Proc
}

func (cp *opCountingProc) RLock(c *sim.Ctx)   { cp.o.reads++; cp.p.RLock(c) }
func (cp *opCountingProc) RUnlock(c *sim.Ctx) { cp.p.RUnlock(c) }
func (cp *opCountingProc) Lock(c *sim.Ctx)    { cp.o.writes++; cp.p.Lock(c) }
func (cp *opCountingProc) Unlock(c *sim.Ctx)  { cp.p.Unlock(c) }

// TestROLLCoalescesGroups is the direct mechanism check behind ROLL's
// Figure 5(b) advantage: at a read-heavy mix with queued writers, ROLL
// creates fewer reader groups (more joins per enqueued node) than FOLL,
// because overtaking readers pile onto the one waiting group.
func TestROLLCoalescesGroups(t *testing.T) {
	t.Parallel()
	follRes, rollRes := follROLL192()
	foll := float64(follRes.Snapshot.Counters["foll.read.enqueue"]) / float64(follRes.TotalOps)
	roll := float64(rollRes.Snapshot.Counters["roll.read.enqueue"]) / float64(rollRes.TotalOps)
	if roll >= foll {
		t.Errorf("ROLL groups/op %.4f not below FOLL's %.4f (no coalescing)", roll, foll)
	}
}

// follROLL192 is the one FOLL and ROLL run at 192 threads and 99 %
// reads that TestReaderPreferenceCostsWriters and TestROLLCoalescesGroups
// both read.
var follROLL192 = sync.OnceValues(func() (foll, roll Result) {
	return RunExperiment(*ByName("foll"), sim.T5440(), 192, 0.99, 120, 42),
		RunExperiment(*ByName("roll"), sim.T5440(), 192, 0.99, 120, 42)
})
