// Package chaos is a deterministic-schedule fault injector for the
// lock stack: it widens the race windows at the protocols' linearization
// points (indicator close/drain, queue enqueue, hand-off, park) by
// injecting randomized delays, yields and micro-sleeps drawn from a
// seeded pseudo-random schedule.
//
// The injector rides the lockcore.Instr seam: every instrumentation
// emit site in the algorithms marks a protocol step, so perturbing
// exactly there shakes the interleavings a torture run explores without
// adding a single new hook to the lock code. A lock built without
// chaos carries a nil *Proc and pays one predictable branch.
//
// Determinism is per proc: each Proc derives its own xorshift stream
// from the injector seed and the proc id (splitmix64 mixing), so the
// *decisions* a given goroutine's handle makes are a pure function of
// (seed, id, call index). The schedule the OS produces still varies —
// the point is that a failing seed biases the same windows again on
// the next run, not that wall-clock interleavings replay exactly; the
// hand-steppable replays live in the sim mirror.
//
// The package deliberately avoids math/rand: the generator must be
// allocation-free, seedable per proc, and stable across Go releases so
// a chaos seed recorded in a CI failure keeps meaning the same
// schedule.
package chaos

import (
	"runtime"
	"sync/atomic"
	"time"

	"ollock/internal/atomicx"
)

// Injector is one torture run's fault source. Create with New; hand
// each lock-stack goroutine its own Proc.
type Injector struct {
	seed  uint64
	count atomic.Uint64
	// step, when set (NewStepper), replaces the random draw: every
	// perturbation point calls it with the proc id instead.
	step func(id int)
}

// New returns an injector drawing every schedule from seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed}
}

// NewStepper returns an injector for hand-stepped tests: instead of
// drawing a delay, every perturbation point calls step with the id of
// the proc that reached it, on that proc's goroutine. A test parks a
// chosen proc at a chosen protocol step by blocking inside step (count
// the calls per id: each is one Emit site, in program order), runs the
// other side of the race to completion, and lets it go.
func NewStepper(step func(id int)) *Injector {
	return &Injector{step: step}
}

// Seed returns the injector's seed (for failure reports: re-running
// with the same seed re-biases the same windows).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Count returns the total number of perturbations injected so far,
// across all procs.
func (in *Injector) Count() uint64 {
	if in == nil {
		return 0
	}
	return in.count.Load()
}

// splitmix64 is the standard seed-mixing finalizer; it turns
// (seed, id) into a well-distributed xorshift starting state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewProc returns the per-goroutine fault stream for proc id. A nil
// injector returns a nil Proc (chaos off), on which Perturb is a
// nil-check and nothing else.
func (in *Injector) NewProc(id int) *Proc {
	if in == nil {
		return nil
	}
	s := splitmix64(in.seed ^ splitmix64(uint64(int64(id))))
	if s == 0 {
		s = 0x9e3779b97f4a7c15 // xorshift must not start at zero
	}
	return &Proc{rng: s, inj: in, id: id}
}

// Proc is one goroutine's fault stream. Not safe for concurrent use —
// exactly like the obs.Local / trace.Local views it rides alongside.
type Proc struct {
	rng uint64
	inj *Injector
	id  int
}

// Perturb draws the next schedule decision and maybe delays the
// caller: usually nothing, else a short bounded spin, a scheduler
// yield, or (rarely) a microsecond-scale sleep — the three delay
// shapes that respectively stretch a race window within a quantum,
// force a reschedule at the window, and simulate a preempted-
// mid-protocol thread. Nil-safe.
func (p *Proc) Perturb() {
	if p == nil {
		return
	}
	if p.inj.step != nil {
		p.inj.count.Add(1)
		p.inj.step(p.id)
		return
	}
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	if x&3 != 0 {
		return // 3 in 4 draws: no perturbation
	}
	p.inj.count.Add(1)
	switch draw := (x >> 2) & 31; {
	case draw < 20:
		for i := uint64(0); i < (x>>7)&63; i++ {
			atomicx.ProcYield()
		}
	case draw < 31:
		runtime.Gosched()
	default:
		time.Sleep(time.Duration(1+(x>>7)&15) * time.Microsecond)
	}
}
