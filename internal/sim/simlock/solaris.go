package simlock

import (
	"ollock/internal/sim"
)

// Solaris is the simulated Solaris-like kernel lock (mirrors
// internal/solaris): central lockword + mutex-protected wait queue with
// direct ownership hand-off.
type Solaris struct {
	m    *sim.Machine
	word *sim.Word
	meta simMutex
	q    simWaitQueue
}

// Lockword layout (as in internal/solaris).
const (
	solWriteLocked = uint64(1) << 0
	solWriteWanted = uint64(1) << 1
	solHasWaiters  = uint64(1) << 2
	solReaderOne   = uint64(1) << 3
	solReaderMask  = ^uint64(7)
)

// NewSolaris allocates a Solaris-like lock on m.
func NewSolaris(m *sim.Machine, maxProcs int) *Solaris {
	return &Solaris{m: m, word: m.NewWord(0), meta: newSimMutex(m)}
}

type solarisProc struct {
	l    *Solaris
	flag *sim.Word
}

// NewProc returns the per-thread handle (owning the park flag word).
// Call during setup, before Machine.Run.
func (l *Solaris) NewProc(id int) Proc {
	return &solarisProc{l: l, flag: l.m.NewWord(0)}
}

func (p *solarisProc) RLock(c *sim.Ctx) {
	l := p.l
	for {
		w := c.Load(l.word)
		if w&(solWriteLocked|solWriteWanted) == 0 {
			if c.CAS(l.word, w, w+solReaderOne) {
				return
			}
			continue
		}
		c.Store(p.flag, 0)
		l.meta.lock(c)
		w = c.Load(l.word)
		if w&(solWriteLocked|solWriteWanted) == 0 {
			l.meta.unlock(c)
			continue
		}
		if !c.CAS(l.word, w, w|solHasWaiters) {
			l.meta.unlock(c)
			continue
		}
		l.q.enqueue(c, false, p.flag)
		l.meta.unlock(c)
		c.SpinUntil(p.flag, func(v uint64) bool { return v == 1 })
		return
	}
}

func (p *solarisProc) Lock(c *sim.Ctx) {
	l := p.l
	for {
		w := c.Load(l.word)
		if w&(solWriteLocked|solReaderMask|solHasWaiters) == 0 {
			if c.CAS(l.word, w, w|solWriteLocked) {
				return
			}
			continue
		}
		c.Store(p.flag, 0)
		l.meta.lock(c)
		w = c.Load(l.word)
		if w&(solWriteLocked|solReaderMask|solHasWaiters) == 0 {
			l.meta.unlock(c)
			continue
		}
		if !c.CAS(l.word, w, w|solHasWaiters|solWriteWanted) {
			l.meta.unlock(c)
			continue
		}
		l.q.enqueue(c, true, p.flag)
		l.meta.unlock(c)
		c.SpinUntil(p.flag, func(v uint64) bool { return v == 1 })
		return
	}
}

func (p *solarisProc) RUnlock(c *sim.Ctx) {
	l := p.l
	for {
		w := c.Load(l.word)
		if (w&solReaderMask)>>3 == 1 && w&solHasWaiters != 0 {
			p.handoff(c, false)
			return
		}
		if c.CAS(l.word, w, w-solReaderOne) {
			return
		}
	}
}

func (p *solarisProc) Unlock(c *sim.Ctx) {
	l := p.l
	for {
		w := c.Load(l.word)
		if w&solHasWaiters != 0 {
			p.handoff(c, true)
			return
		}
		if c.CAS(l.word, w, w&^solWriteLocked) {
			return
		}
	}
}

func (p *solarisProc) handoff(c *sim.Ctx, releaserWriter bool) {
	l := p.l
	l.meta.lock(c)
	batch, writerBatch := l.q.dequeueHandoff(c, releaserWriter)
	var w uint64
	if writerBatch {
		w = solWriteLocked
	} else {
		w = uint64(len(batch)) * solReaderOne
	}
	if l.q.numWriters > 0 {
		w |= solWriteWanted
	}
	if !l.q.empty() {
		w |= solHasWaiters
	}
	c.Store(l.word, w)
	l.meta.unlock(c)
	signalBatch(c, batch)
}
