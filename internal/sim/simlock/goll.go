package simlock

import (
	"ollock/internal/obs"
	"ollock/internal/sim"
	"ollock/internal/trace"
)

// GOLL is the simulated GOLL lock (mirrors internal/goll): a closable
// read indicator holding the lock state plus a mutex-protected wait
// queue with Solaris-policy hand-off.
type GOLL struct {
	m     *sim.Machine
	cs    Indicator
	meta  simMutex
	q     simWaitQueue
	stats *obs.Stats
	tr    *SimTracer
	pol   *WaitPolicy
}

// NewGOLL allocates a GOLL lock on m over the default C-SNZI indicator
// sized for maxProcs threads.
func NewGOLL(m *sim.Machine, maxProcs int) *GOLL {
	return NewGOLLInd(m, maxProcs, "goll", CSNZIIndicator)
}

// NewGOLLInd is NewGOLL with an explicit read-indicator choice
// (mirrors ollock.WithIndicator); name labels the stats block.
func NewGOLLInd(m *sim.Machine, maxProcs int, name string, f IndicatorFactory) *GOLL {
	l := &GOLL{
		m:     m,
		cs:    f(m, maxProcs),
		meta:  newSimMutex(m),
		stats: obs.New(obs.WithName(name), obs.WithStripes(1), obs.WithScopes("csnzi", "goll")),
	}
	l.cs.SetStats(l.stats)
	return l
}

// Stats returns the lock's obs counter block, which mirrors the
// counter names of the real internal/goll lock under WithStats.
func (l *GOLL) Stats() *obs.Stats { return l.stats }

// SetTracer attaches a trace-event collector mirroring the emission
// points of the real lock under ollock.WithTrace. Host-side setup;
// call before Machine.Run.
func (l *GOLL) SetTracer(tr *SimTracer) { l.tr = tr }

// SetWaitPolicy attaches a wait policy mirroring ollock.WithWait: queue
// waiters descend the policy's ladder instead of spinning on their flag
// word, and the park counter scope is added to the stats block. Host-side setup; call before NewProc.
func (l *GOLL) SetWaitPolicy(p *WaitPolicy) {
	l.pol = p
	p.attach(l.stats)
}

type gollProc struct {
	l      *GOLL
	id     int
	flag   *sim.Word
	ticket Ticket
}

// NewProc returns the per-thread handle. Call during setup.
func (l *GOLL) NewProc(id int) Proc {
	return &gollProc{l: l, id: id, flag: l.m.NewWord(0)}
}

func (p *gollProc) RLock(c *sim.Ctx) {
	l := p.l
	for {
		p.ticket = l.cs.Arrive(c, p.id)
		if p.ticket.Arrived() {
			l.tr.emit(c, p.id, trace.KindReadAcquired, trace.PhaseNone, routeOf(p.ticket))
			return
		}
		l.tr.emit(c, p.id, trace.KindArriveFail, trace.PhaseNone, trace.RouteNone)
		c.Store(p.flag, 0)
		l.meta.lock(c)
		if _, open := l.cs.Query(c); open {
			l.meta.unlock(c)
			continue
		}
		l.q.enqueue(c, false, p.flag)
		l.meta.unlock(c)
		l.tr.emit(c, p.id, trace.KindQueueEnqueue, trace.PhaseNone, trace.RouteNone)
		l.tr.emit(c, p.id, trace.KindPhaseBegin, trace.PhaseQueueWait, trace.RouteNone)
		p.ticket = TicketDirect // releaser pre-arrives at the root for us
		l.pol.wait(c, l.stats, p.id, p.flag, func(v uint64) bool { return v == 1 })
		l.tr.emit(c, p.id, trace.KindReadAcquired, trace.PhaseNone, trace.RouteDirect)
		return
	}
}

func (p *gollProc) RUnlock(c *sim.Ctx) {
	l := p.l
	if l.cs.Depart(c, p.ticket) {
		l.tr.emit(c, p.id, trace.KindReadReleased, trace.PhaseNone, trace.RouteNone)
		return
	}
	l.tr.emit(c, p.id, trace.KindIndDrain, trace.PhaseNone, trace.RouteNone)
	l.meta.lock(c)
	batch, writerBatch := l.q.dequeueHandoff(c, false)
	if !writerBatch {
		l.cs.OpenWithArrivals(c, len(batch), l.q.numWriters > 0)
		l.tr.emit(c, p.id, trace.KindIndOpen, trace.PhaseNone, trace.RouteNone)
	}
	l.meta.unlock(c)
	l.stats.Inc(obs.GOLLHandoff, p.id)
	l.tr.emit(c, p.id, trace.KindHandoff, trace.PhaseNone, trace.RouteNone)
	signalBatch(c, batch)
	l.tr.emit(c, p.id, trace.KindReadReleased, trace.PhaseNone, trace.RouteNone)
}

func (p *gollProc) Lock(c *sim.Ctx) {
	l := p.l
	w0 := c.Now()
	if l.cs.CloseIfEmpty(c) {
		l.tr.emit(c, p.id, trace.KindWriteAcquired, trace.PhaseNone, trace.RouteRoot)
		l.stats.Observe(obs.GOLLWriteWait, p.id, c.Now()-w0)
		return
	}
	c.Store(p.flag, 0)
	l.meta.lock(c)
	if l.cs.Close(c) {
		l.meta.unlock(c)
		l.tr.emit(c, p.id, trace.KindWriteAcquired, trace.PhaseNone, trace.RouteRoot)
		l.stats.Observe(obs.GOLLWriteWait, p.id, c.Now()-w0)
		return
	}
	l.tr.emit(c, p.id, trace.KindIndClose, trace.PhaseNone, trace.RouteNone)
	l.q.enqueue(c, true, p.flag)
	l.meta.unlock(c)
	l.tr.emit(c, p.id, trace.KindQueueEnqueue, trace.PhaseNone, trace.RouteNone)
	l.tr.emit(c, p.id, trace.KindPhaseBegin, trace.PhaseQueueWait, trace.RouteNone)
	l.pol.wait(c, l.stats, p.id, p.flag, func(v uint64) bool { return v == 1 })
	l.tr.emit(c, p.id, trace.KindWriteAcquired, trace.PhaseNone, trace.RouteDirect)
	l.stats.Observe(obs.GOLLWriteWait, p.id, c.Now()-w0)
}

func (p *gollProc) Unlock(c *sim.Ctx) {
	l := p.l
	l.meta.lock(c)
	batch, writerBatch := l.q.dequeueHandoff(c, true)
	if batch == nil {
		l.cs.Open(c)
		l.meta.unlock(c)
		l.tr.emit(c, p.id, trace.KindIndOpen, trace.PhaseNone, trace.RouteNone)
		l.tr.emit(c, p.id, trace.KindWriteReleased, trace.PhaseNone, trace.RouteNone)
		return
	}
	if !writerBatch {
		l.cs.OpenWithArrivals(c, len(batch), l.q.numWriters > 0)
		l.tr.emit(c, p.id, trace.KindIndOpen, trace.PhaseNone, trace.RouteNone)
	}
	l.meta.unlock(c)
	l.stats.Inc(obs.GOLLHandoff, p.id)
	l.tr.emit(c, p.id, trace.KindHandoff, trace.PhaseNone, trace.RouteNone)
	signalBatch(c, batch)
	l.tr.emit(c, p.id, trace.KindWriteReleased, trace.PhaseNone, trace.RouteNone)
}
