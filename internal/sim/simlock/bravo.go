package simlock

import (
	"ollock/internal/obs"
	"ollock/internal/sim"
)

// Bravo is the simulated BRAVO biased wrapper (mirrors internal/bravo):
// a per-wrapper visible-readers table of simulated words (each Word is
// its own cache line, matching the padded slots of the real table), a
// read-bias flag readers publish-then-re-check against, writer-side
// revocation that scans and drains the table before trusting the
// underlying lock, and the same operation-counted adaptive inhibition
// policy — so runs stay deterministic.
//
// The simulator port uses a per-wrapper table (slot value 1 = a
// fast-path reader of this lock is inside) rather than the real
// implementation's process-global one; the coherence behaviour under
// study is identical, since slots of distinct locks never share a cache
// line in either layout.
type Bravo struct {
	m       *sim.Machine
	base    Lock
	bias    *sim.Word
	inhibit *sim.Word
	table   []*sim.Word
	mask    uint64
	salt    uint64
	mult    uint64

	// stats mirrors the real wrapper's bravo.* counters. When the
	// wrapped lock carries its own obs block the wrapper adopts it (one
	// Snapshot covers the whole stack, as in the real facade).
	stats *obs.Stats
}

// Stats returns the wrapper's obs counter block.
func (l *Bravo) Stats() *obs.Stats { return l.stats }

// Simulated policy constants; these mirror internal/bravo.
const (
	bravoMaxProbes    = 4
	bravoDrainWeight  = 16
	bravoInhibitBatch = 8
)

// NewBravo wraps base with the biased reader fast path. The table holds
// the next power of two above 2*maxProcs slots (at least 64), so slot
// assignment is collision-free for practical thread counts while the
// revocation scan cost stays proportional to the machine size.
func NewBravo(m *sim.Machine, maxProcs int, base Lock) *Bravo {
	size := 64
	for size < 2*maxProcs {
		size *= 2
	}
	l := &Bravo{
		m:       m,
		base:    base,
		bias:    m.NewWord(1),
		inhibit: m.NewWord(0),
		table:   make([]*sim.Word, size),
		mask:    uint64(size - 1),
		salt:    uint64(m.Words()),
		mult:    1,
	}
	for i := range l.table {
		l.table[i] = m.NewWord(0)
	}
	if b, ok := base.(interface{ Stats() *obs.Stats }); ok && b.Stats() != nil {
		l.stats = b.Stats()
		l.stats.AddScope("bravo")
	} else {
		l.stats = obs.New(obs.WithName("bravo"), obs.WithStripes(1), obs.WithScopes("bravo"))
	}
	return l
}

// WithMultiplier sets the inhibition multiplier (the paper's N) and
// returns the lock, for sweep configuration.
func (l *Bravo) WithMultiplier(n int) *Bravo {
	if n > 0 {
		l.mult = uint64(n)
	}
	return l
}

type bravoProc struct {
	l    *Bravo
	base Proc
	id   int
	home uint64
	// cur is the slot this proc last published successfully; trying it
	// first lets procs whose home slots collide settle into disjoint
	// slots instead of ping-ponging one line forever.
	cur  *sim.Word
	slot *sim.Word
	pend uint64
}

// NewProc returns the per-thread handle; the home slot is fixed here so
// the fast path does no hashing.
func (l *Bravo) NewProc(id int) Proc {
	home := bravoMix(l.salt^bravoMix(uint64(id)+1)) & l.mask
	return &bravoProc{
		l:    l,
		base: l.base.NewProc(id),
		id:   id,
		home: home,
		cur:  l.table[home],
	}
}

func (p *bravoProc) RLock(c *sim.Ctx) {
	l := p.l
	if c.Load(l.bias) == 1 {
		// Memoized slot first: after settling this CAS is on a line
		// nobody else writes, so the fast path is three primitives.
		s := p.cur
		if !c.CAS(s, 0, 1) {
			l.stats.Inc(obs.BravoSlotCollision, p.id)
			s = nil
			for i := uint64(0); i < bravoMaxProbes; i++ {
				cand := l.table[(p.home+i)&l.mask]
				if cand != p.cur && c.Load(cand) == 0 && c.CAS(cand, 0, 1) {
					s = cand
					p.cur = cand
					break
				}
			}
		}
		if s != nil {
			if c.Load(l.bias) == 1 {
				p.slot = s
				l.stats.Inc(obs.BravoFastRead, p.id)
				return
			}
			// Revocation raced with our publish: back out.
			c.Store(s, 0)
		}
	}
	p.base.RLock(c)
	l.stats.Inc(obs.BravoSlowRead, p.id)
	if c.Load(l.bias) == 0 {
		p.slowReadArm(c)
	}
}

// slowReadArm is the adaptive re-arm policy, identical to the real
// implementation: batch slow reads locally, pay down the inhibition
// window with one lossy CAS per batch, re-arm once it reaches zero. The
// caller holds the underlying read lock, so no writer can revoke
// concurrently.
func (p *bravoProc) slowReadArm(c *sim.Ctx) {
	l := p.l
	p.pend++
	if p.pend < bravoInhibitBatch {
		return
	}
	v := c.Load(l.inhibit)
	switch {
	case v == 0:
		c.Store(l.bias, 1)
		l.stats.Inc(obs.BravoBiasArm, p.id)
	case v <= p.pend:
		c.CAS(l.inhibit, v, 0)
	default:
		c.CAS(l.inhibit, v, v-p.pend)
	}
	p.pend = 0
}

func (p *bravoProc) RUnlock(c *sim.Ctx) {
	if s := p.slot; s != nil {
		p.slot = nil
		c.Store(s, 0)
		return
	}
	p.base.RUnlock(c)
}

func (p *bravoProc) Lock(c *sim.Ctx) {
	p.base.Lock(c)
	if c.Load(p.l.bias) == 1 {
		p.l.revoke(c, p.id)
	}
}

func (p *bravoProc) Unlock(c *sim.Ctx) {
	p.base.Unlock(c)
}

// revoke clears the bias and drains every published fast-path reader.
// Caller holds the underlying write lock. The table is swept with a
// streaming scan (LoadStream models the memory-level parallelism of a
// contiguous array sweep); any reader that publishes after the bias
// store backs out on its re-check, so slots found empty in the snapshot
// stay irrelevant and only the occupied ones need a drain wait.
func (l *Bravo) revoke(c *sim.Ctx, id int) {
	start := c.Now()
	c.Store(l.bias, 0)
	drained := 0
	for i, v := range c.LoadStream(l.table) {
		if v != 0 {
			drained++
			c.SpinUntil(l.table[i], func(v uint64) bool { return v == 0 })
		}
	}
	l.stats.Inc(obs.BravoRevoke, id)
	// Virtual cycles, where the real wrapper records nanoseconds: the
	// histogram carries only the shape.
	l.stats.Observe(obs.BravoDrainWait, id, c.Now()-start)
	c.Store(l.inhibit, uint64(len(l.table)+bravoDrainWeight*drained)*l.mult)
}

// bravoMix is the splitmix64 finalizer (as in internal/bravo).
func bravoMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
