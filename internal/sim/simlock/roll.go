package simlock

import (
	"ollock/internal/obs"
	"ollock/internal/sim"
)

// ROLL is the simulated ROLL lock (mirrors internal/roll): FOLL with a
// doubly linked queue, a backward search that lets readers overtake
// queued writers to join the waiting reader group, a lastReader hint,
// and the deferred group close in the writer path (handled inside the
// embedded FOLL via withPrev).
type ROLL struct {
	f          *FOLL
	lastReader *sim.Word // node ref of the last known waiting group
	useHint    bool
}

// rollSearchLimit bounds the backward walk (mirrors internal/roll).
const rollSearchLimit = 256

// NewROLL allocates a ROLL lock on m with a ring of maxProcs reader
// nodes over the default C-SNZI indicators.
func NewROLL(m *sim.Machine, maxProcs int) *ROLL {
	return NewROLLInd(m, maxProcs, "roll", CSNZIIndicator)
}

// NewROLLInd is NewROLL with an explicit read-indicator choice
// (mirrors ollock.WithIndicator); name labels the stats block.
func NewROLLInd(m *sim.Machine, maxProcs int, name string, f IndicatorFactory) *ROLL {
	return &ROLL{
		f:          newFOLL(m, maxProcs, true, name, f),
		lastReader: m.NewWord(0),
		useHint:    true,
	}
}

// Stats returns the lock's obs counter block (shared with the
// embedded FOLL machinery, which emits roll.* names under withPrev).
func (l *ROLL) Stats() *obs.Stats { return l.f.stats }

// SetWaitPolicy attaches a wait policy mirroring ollock.WithWait
// (delegates to the embedded FOLL machinery). Host-side setup; call
// before NewProc.
func (l *ROLL) SetWaitPolicy(p *WaitPolicy) { l.f.SetWaitPolicy(p) }

// NewROLLNoHint allocates a ROLL lock with the lastReader hint disabled
// — the ablation of §4.3's optimization ("reduces the number of
// searches"): every overtaking reader must walk the queue backward.
func NewROLLNoHint(m *sim.Machine, maxProcs int) *ROLL {
	l := NewROLL(m, maxProcs)
	l.useHint = false
	return l
}

type rollProc struct {
	fp *follProc
	l  *ROLL
}

// NewProc returns the per-thread handle. Call during setup.
func (l *ROLL) NewProc(id int) Proc {
	return &rollProc{fp: l.f.NewProc(id).(*follProc), l: l}
}

// tryJoinWaiting attempts to join the waiting reader group at node idx.
func (p *rollProc) tryJoinWaiting(c *sim.Ctx, idx int) bool {
	n := p.l.f.nodes[idx]
	if n.isWriter || c.Load(n.spin) != 1 {
		return false
	}
	t := n.cs.Arrive(c, p.fp.id)
	if !t.Arrived() {
		return false
	}
	p.l.f.stats.Inc(obs.ROLLOvertake, p.fp.id)
	// Refresh the hint only when it changes; an unconditional store
	// would serialize every joining reader on the hint line.
	if p.l.useHint && c.Load(p.l.lastReader) != ref(idx) {
		c.Store(p.l.lastReader, ref(idx))
	}
	p.fp.departFrom = idx
	p.fp.ticket = t
	p.l.f.pol.wait(c, p.l.f.stats, p.fp.id, n.spin, func(v uint64) bool { return v == 0 })
	return true
}

func (p *rollProc) RLock(c *sim.Ctx) {
	f := p.l.f
	rNode := -1
	freeSpare := func() {
		if rNode >= 0 {
			freeNode(c, f.nodes[rNode])
			rNode = -1
		}
	}
	for {
		// Hint fast path.
		if p.l.useHint {
			if hRef := c.Load(p.l.lastReader); !isNil(hRef) {
				if p.tryJoinWaiting(c, deref(hRef)) {
					f.stats.Inc(obs.ROLLHintHit, p.fp.id)
					freeSpare()
					return
				}
				f.stats.Inc(obs.ROLLHintMiss, p.fp.id)
				c.CAS(p.l.lastReader, hRef, 0)
			}
		}
		tailRef := c.Load(f.tail)
		switch {
		case isNil(tailRef):
			if rNode < 0 {
				rNode = p.fp.allocReaderNode(c)
			}
			n := f.nodes[rNode]
			c.Store(n.spin, 0)
			c.Store(n.qNext, 0)
			c.Store(n.qPrev, 0)
			if !c.CAS(f.tail, 0, ref(rNode)) {
				continue
			}
			f.stats.Inc(f.evEnqueue, p.fp.id)
			n.cs.Open(c)
			t := n.cs.Arrive(c, p.fp.id)
			if t.Arrived() {
				p.fp.departFrom = rNode
				p.fp.ticket = t
				return
			}
			rNode = -1 // node in queue; the closing writer recycles it

		case !f.nodes[deref(tailRef)].isWriter:
			// Tail is a reader node: join directly.
			tn := f.nodes[deref(tailRef)]
			t := tn.cs.Arrive(c, p.fp.id)
			if t.Arrived() {
				f.stats.Inc(f.evJoin, p.fp.id)
				freeSpare()
				p.fp.departFrom = deref(tailRef)
				p.fp.ticket = t
				if p.l.useHint && c.Load(tn.spin) == 1 && c.Load(p.l.lastReader) != tailRef {
					c.Store(p.l.lastReader, tailRef)
				}
				f.pol.wait(c, f.stats, p.fp.id, tn.spin, func(v uint64) bool { return v == 0 })
				return
			}

		default:
			// Tail is a writer: search backward for a waiting group.
			cur := c.Load(f.nodes[deref(tailRef)].qPrev)
			joined := false
			for steps := 0; !isNil(cur) && steps < rollSearchLimit; steps++ {
				n := f.nodes[deref(cur)]
				if !n.isWriter {
					if c.Load(n.spin) == 1 && p.tryJoinWaiting(c, deref(cur)) {
						joined = true
					}
					break
				}
				cur = c.Load(n.qPrev)
			}
			if joined {
				freeSpare()
				return
			}
			// No joinable group: enqueue a fresh waiting node at the
			// tail.
			if rNode < 0 {
				rNode = p.fp.allocReaderNode(c)
			}
			n := f.nodes[rNode]
			pred := f.nodes[deref(tailRef)]
			c.Store(n.spin, 1)
			c.Store(n.qNext, 0)
			c.Store(n.qPrev, tailRef)
			if !c.CAS(f.tail, tailRef, ref(rNode)) {
				continue
			}
			f.stats.Inc(f.evEnqueue, p.fp.id)
			c.Store(pred.qNext, ref(rNode))
			n.cs.Open(c)
			t := n.cs.Arrive(c, p.fp.id)
			if t.Arrived() {
				p.fp.departFrom = rNode
				p.fp.ticket = t
				if p.l.useHint {
					c.Store(p.l.lastReader, ref(rNode))
				}
				f.pol.wait(c, f.stats, p.fp.id, n.spin, func(v uint64) bool { return v == 0 })
				return
			}
			rNode = -1
		}
	}
}

func (p *rollProc) RUnlock(c *sim.Ctx) { p.fp.RUnlock(c) }
func (p *rollProc) Lock(c *sim.Ctx)    { p.fp.Lock(c) }
func (p *rollProc) Unlock(c *sim.Ctx)  { p.fp.Unlock(c) }
