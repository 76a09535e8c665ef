package simlock

import (
	"ollock/internal/obs"
	"ollock/internal/sim"
)

// Queue node references are uint64 handles into a lock's node table:
// 0 is nil, i+1 refers to table entry i.
func ref(i int) uint64    { return uint64(i + 1) }
func deref(r uint64) int  { return int(r - 1) }
func isNil(r uint64) bool { return r == 0 }

// qNode is a simulated FOLL/ROLL queue node. qNext and spin share one
// cache line, as Figure 4's qnode {qNext, spin} does and as the host's
// qnode.Node lays out its hand-off words: the grantee's wake-up read of
// spin brings its own qNext into its cache, so its release pays no
// transfer to find its successor. qPrev, allocState and the indicator
// each sit on lines of their own.
type qNode struct {
	isWriter bool
	qNext    *sim.Word // node ref
	spin     *sim.Word // 1 = waiting; on qNext's line
	// Reader-node fields.
	cs         Indicator
	allocState *sim.Word // 0 free, 1 in use
	ringNext   int
	// ROLL only.
	qPrev *sim.Word // node ref
}

// FOLL is the simulated FOLL lock (mirrors internal/foll).
type FOLL struct {
	m        *sim.Machine
	tail     *sim.Word // node ref
	nodes    []*qNode  // ring reader nodes [0,maxProcs), then writer nodes
	maxProcs int
	procs    int
	// withPrev makes nodes doubly linked (used by the ROLL embedding).
	withPrev bool

	// stats mirrors the real lock's obs counters. The event triple is
	// chosen by withPrev, so the ROLL embedding emits roll.* names and
	// a plain FOLL emits foll.* — same contract as the real locks.
	stats                        *obs.Stats
	evJoin, evEnqueue, evRecycle obs.Event
	histWrite                    obs.HistID
	pol                          *WaitPolicy
}

// Stats returns the lock's obs counter block.
func (l *FOLL) Stats() *obs.Stats { return l.stats }

// SetWaitPolicy attaches a wait policy mirroring ollock.WithWait:
// queue-node waiters descend the policy's ladder instead of spinning
// on the node's flag word. Host-side setup; call before NewProc.
func (l *FOLL) SetWaitPolicy(p *WaitPolicy) {
	l.pol = p
	p.attach(l.stats)
}

// NewFOLL allocates a FOLL lock on m with a ring of maxProcs reader
// nodes over the default C-SNZI indicators.
func NewFOLL(m *sim.Machine, maxProcs int) *FOLL {
	return newFOLL(m, maxProcs, false, "foll", CSNZIIndicator)
}

// NewFOLLInd is NewFOLL with an explicit read-indicator choice
// (mirrors ollock.WithIndicator); name labels the stats block.
func NewFOLLInd(m *sim.Machine, maxProcs int, name string, f IndicatorFactory) *FOLL {
	return newFOLL(m, maxProcs, false, name, f)
}

func newFOLL(m *sim.Machine, maxProcs int, withPrev bool, name string, f IndicatorFactory) *FOLL {
	l := &FOLL{m: m, tail: m.NewWord(0), maxProcs: maxProcs, withPrev: withPrev}
	if withPrev {
		l.stats = obs.New(obs.WithName(name), obs.WithStripes(1), obs.WithScopes("csnzi", "roll"))
		l.evJoin, l.evEnqueue, l.evRecycle = obs.ROLLReadJoin, obs.ROLLReadEnqueue, obs.ROLLNodeRecycle
		l.histWrite = obs.ROLLWriteWait
	} else {
		l.stats = obs.New(obs.WithName(name), obs.WithStripes(1), obs.WithScopes("csnzi", "foll"))
		l.evJoin, l.evEnqueue, l.evRecycle = obs.FOLLReadJoin, obs.FOLLReadEnqueue, obs.FOLLNodeRecycle
		l.histWrite = obs.FOLLWriteWait
	}
	for i := 0; i < maxProcs; i++ {
		qNext := m.NewWord(0)
		n := &qNode{
			qNext:      qNext,
			spin:       m.NewWordOn(qNext, 0),
			cs:         f(m, maxProcs),
			allocState: m.NewWord(0),
			ringNext:   (i + 1) % maxProcs,
		}
		// Not enqueued => closed (ring nodes start closed with zero
		// surplus).
		n.cs.InitClosed()
		n.cs.SetStats(l.stats)
		if withPrev {
			n.qPrev = m.NewWord(0)
		}
		l.nodes = append(l.nodes, n)
	}
	return l
}

type follProc struct {
	l           *FOLL
	id          int
	defaultRing int
	wNodeIdx    int
	departFrom  int
	ticket      Ticket
}

// NewProc returns the per-thread handle. Call during setup.
func (l *FOLL) NewProc(id int) Proc {
	if l.procs >= l.maxProcs {
		panic("simlock: more procs than maxProcs")
	}
	qNext := l.m.NewWord(0)
	w := &qNode{
		isWriter: true,
		qNext:    qNext,
		spin:     l.m.NewWordOn(qNext, 0),
	}
	if l.withPrev {
		w.qPrev = l.m.NewWord(0)
	}
	l.nodes = append(l.nodes, w)
	p := &follProc{
		l:           l,
		id:          id,
		defaultRing: l.procs,
		wNodeIdx:    len(l.nodes) - 1,
	}
	l.procs++
	return p
}

// allocReaderNode walks the ring from the proc's default node.
func (p *follProc) allocReaderNode(c *sim.Ctx) int {
	cur := p.defaultRing
	for {
		n := p.l.nodes[cur]
		if c.Load(n.allocState) == 0 && c.CAS(n.allocState, 0, 1) {
			return cur
		}
		cur = n.ringNext
		if cur == p.defaultRing {
			c.Work(10)
		}
	}
}

func freeNode(c *sim.Ctx, n *qNode) {
	c.Store(n.allocState, 0)
}

func (p *follProc) RLock(c *sim.Ctx) {
	l := p.l
	rNode := -1
	for {
		tailRef := c.Load(l.tail)
		switch {
		case isNil(tailRef):
			if rNode < 0 {
				rNode = p.allocReaderNode(c)
			}
			n := l.nodes[rNode]
			c.Store(n.spin, 0)
			c.Store(n.qNext, 0)
			if l.withPrev {
				c.Store(n.qPrev, 0)
			}
			if !c.CAS(l.tail, 0, ref(rNode)) {
				continue
			}
			l.stats.Inc(l.evEnqueue, p.id)
			n.cs.Open(c)
			t := n.cs.Arrive(c, p.id)
			if t.Arrived() {
				p.departFrom = rNode
				p.ticket = t
				return
			}
			rNode = -1

		case l.nodes[deref(tailRef)].isWriter:
			if rNode < 0 {
				rNode = p.allocReaderNode(c)
			}
			n := l.nodes[rNode]
			pred := l.nodes[deref(tailRef)]
			c.Store(n.spin, 1)
			c.Store(n.qNext, 0)
			if l.withPrev {
				c.Store(n.qPrev, tailRef)
			}
			if !c.CAS(l.tail, tailRef, ref(rNode)) {
				continue
			}
			l.stats.Inc(l.evEnqueue, p.id)
			c.Store(pred.qNext, ref(rNode))
			n.cs.Open(c)
			t := n.cs.Arrive(c, p.id)
			if t.Arrived() {
				p.departFrom = rNode
				p.ticket = t
				l.pol.wait(c, l.stats, p.id, n.spin, func(v uint64) bool { return v == 0 })
				return
			}
			rNode = -1

		default: // tail is a reader node: join it
			tn := l.nodes[deref(tailRef)]
			t := tn.cs.Arrive(c, p.id)
			if t.Arrived() {
				l.stats.Inc(l.evJoin, p.id)
				if rNode >= 0 {
					freeNode(c, l.nodes[rNode])
				}
				p.departFrom = deref(tailRef)
				p.ticket = t
				l.pol.wait(c, l.stats, p.id, tn.spin, func(v uint64) bool { return v == 0 })
				return
			}
		}
	}
}

func (p *follProc) RUnlock(c *sim.Ctx) {
	l := p.l
	n := l.nodes[p.departFrom]
	if n.cs.Depart(c, p.ticket) {
		return
	}
	succRef := c.Load(n.qNext)
	succ := l.nodes[deref(succRef)]
	c.Store(succ.spin, 0)
	c.Store(n.qNext, 0)
	freeNode(c, n)
	l.stats.Inc(l.evRecycle, p.id)
}

func (p *follProc) Lock(c *sim.Ctx) {
	l := p.l
	w0 := c.Now()
	w := l.nodes[p.wNodeIdx]
	c.Store(w.qNext, 0)
	oldTail := c.Swap(l.tail, ref(p.wNodeIdx))
	if l.withPrev {
		c.Store(w.qPrev, oldTail)
	}
	if isNil(oldTail) {
		l.stats.Observe(l.histWrite, p.id, c.Now()-w0)
		return
	}
	pred := l.nodes[deref(oldTail)]
	c.Store(w.spin, 1)
	c.Store(pred.qNext, ref(p.wNodeIdx))
	if pred.isWriter {
		l.pol.wait(c, l.stats, p.id, w.spin, func(v uint64) bool { return v == 0 })
		if l.withPrev {
			c.Store(w.qPrev, 0) // the head clears its own back link
		}
		l.stats.Observe(l.histWrite, p.id, c.Now()-w0)
		return
	}
	pred.cs.QueryOpenSpin(c)
	if l.withPrev {
		// ROLL: defer closing until the group is activated, so arriving
		// readers can keep joining it (reader preference).
		l.pol.wait(c, l.stats, p.id, pred.spin, func(v uint64) bool { return v == 0 })
		if pred.cs.Close(c) {
			c.Store(w.qPrev, 0)
			c.Store(pred.qNext, 0)
			freeNode(c, pred)
			l.stats.Inc(l.evRecycle, p.id)
			l.stats.Observe(l.histWrite, p.id, c.Now()-w0)
			return
		}
		l.pol.wait(c, l.stats, p.id, w.spin, func(v uint64) bool { return v == 0 })
		c.Store(w.qPrev, 0)
		l.stats.Observe(l.histWrite, p.id, c.Now()-w0)
		return
	}
	// FOLL: close immediately to stop further readers joining.
	if pred.cs.Close(c) {
		l.pol.wait(c, l.stats, p.id, pred.spin, func(v uint64) bool { return v == 0 })
		c.Store(pred.qNext, 0)
		freeNode(c, pred)
		l.stats.Inc(l.evRecycle, p.id)
		l.stats.Observe(l.histWrite, p.id, c.Now()-w0)
		return
	}
	l.pol.wait(c, l.stats, p.id, w.spin, func(v uint64) bool { return v == 0 })
	l.stats.Observe(l.histWrite, p.id, c.Now()-w0)
}

func (p *follProc) Unlock(c *sim.Ctx) {
	l := p.l
	w := l.nodes[p.wNodeIdx]
	succRef := c.Load(w.qNext)
	if isNil(succRef) {
		if c.CAS(l.tail, ref(p.wNodeIdx), 0) {
			return
		}
		succRef = l.pol.wait(c, l.stats, p.id, w.qNext, func(v uint64) bool { return v != 0 })
	}
	succ := l.nodes[deref(succRef)]
	c.Store(succ.spin, 0)
	c.Store(w.qNext, 0)
}
