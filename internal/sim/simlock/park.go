package simlock

import (
	"ollock/internal/obs"
	"ollock/internal/park"
	"ollock/internal/sim"
)

// This file mirrors internal/park on the simulated machine. The
// simulator's SpinUntil already models a waiting thread as blocked (it
// charges a read per wake, not per probe), so the policy here does not
// change who waits for what — it reproduces the *observable* behavior
// of the real ladder: the park.* counters a real lock emits under the
// adaptive policy and the scheduler cost a park/unpark round-trip pays.

// Scheduler cost model (cycles). A yield is a scheduler pass without a
// context switch; park and unpark each pay a full switch, a few times
// the cost of a cross-chip transfer (CostRemote defaults to 120).
const (
	simYieldCost  = 60
	simParkCost   = 800
	simUnparkCost = 800
)

// WaitPolicy is the simulated wait policy, shared by every wait site of
// one lock (mirrors the facade threading one *park.Policy through the
// stack). A nil *WaitPolicy means pure spinning — the default, and
// bit-identical to the pre-policy code.
type WaitPolicy struct {
	mode park.Mode
}

// NewWaitPolicy returns a wait policy; no mode needs simulated memory.
func NewWaitPolicy(mode park.Mode) *WaitPolicy { return &WaitPolicy{mode: mode} }

// Mode returns the policy's mode; nil means park.ModeSpin.
func (p *WaitPolicy) Mode() park.Mode {
	if p == nil {
		return park.ModeSpin
	}
	return p.mode
}

// attach registers the park counter scope on a lock's stats block,
// mirroring the facade adding "park" to the scope set only when a
// non-spin policy is selected (a spin policy emits no park events, so
// the historical counter name set is preserved exactly).
func (p *WaitPolicy) attach(st *obs.Stats) {
	if p.Mode() != park.ModeSpin {
		st.AddScope("park")
	}
}

// wait blocks until pred holds for w's value, waiting per the policy,
// and returns the satisfying value. As on the host there is one ladder
// for every site: a wait a granter will signal and a condition wait
// differ there only in what the park rung blocks on (a channel, a run
// of bounded sleeps), which the discrete model does not distinguish.
func (p *WaitPolicy) wait(c *sim.Ctx, st *obs.Stats, id int, w *sim.Word, pred func(uint64) bool) uint64 {
	if p.Mode() == park.ModeSpin {
		return c.SpinUntil(w, pred)
	}
	// The bounded hot spin: in the discrete model repeated fruitless
	// probes of an unchanged word coalesce into one read.
	if v := c.Load(w); pred(v) {
		return v
	}
	st.Inc(obs.ParkYield, id)
	c.Work(simYieldCost)
	if v := c.Load(w); pred(v) {
		return v
	}
	st.Inc(obs.ParkPark, id)
	c.Work(simParkCost)
	t0 := c.Now()
	v := c.SpinUntil(w, pred)
	st.Observe(obs.ParkWait, id, c.Now()-t0)
	st.Inc(obs.ParkUnpark, id)
	c.Work(simUnparkCost)
	return v
}
