package simlock

import (
	"testing"

	"ollock/internal/sim"
	"ollock/internal/xrand"
)

// TestSimMutexNoHerd pins what the backoff is for: waiters CAS only
// after they have seen the word free, at moments their pauses have
// spread apart, so a release is not followed by a line-occupying failed
// CAS from every waiter. Sixty-four threads contend for one simMutex.
// A contended acquisition fails its first CAS (spin.Mutex.Lock's fast
// path does too) and loses about two more after a poll read zero — 3.1
// failed CASes per acquisition in all, against 9.7 for the bare
// CAS/SpinUntil loop this replaced; the bound sits between the two.
func TestSimMutexNoHerd(t *testing.T) {
	const threads, rounds = 64, 20
	m := sim.New(sim.T5440())
	mx := newSimMutex(m)
	var casOK, casFail int
	m.SetTrace(func(e sim.Event) {
		if e.Word != mx.w.ID() {
			return
		}
		switch e.Kind {
		case sim.EvCASSuccess:
			casOK++
		case sim.EvCASFail:
			casFail++
		}
	})
	inside, entries := 0, 0 // host memory: simulated threads run one at a time
	for i := 0; i < threads; i++ {
		m.Spawn(func(c *sim.Ctx) {
			for r := 0; r < rounds; r++ {
				mx.lock(c)
				inside++
				entries++
				if inside != 1 {
					t.Errorf("%d threads inside the mutex", inside)
				}
				c.Work(20)
				inside--
				mx.unlock(c)
			}
		})
	}
	m.Run()
	if entries != threads*rounds || casOK != entries {
		t.Fatalf("%d entries, %d successful CASes, want %d of each", entries, casOK, threads*rounds)
	}
	if casFail > 4*entries {
		t.Errorf("%d failed CASes on the mutex word for %d acquisitions, want at most four each", casFail, entries)
	}
}

// TestNoFlagStoreUnderMetalock pins where the waiter's flag reset sits:
// no thread stores to a proc's flag word between its own successful
// metalock CAS and its own releasing store — the reset happens before
// the section, the grants after it.
func TestNoFlagStoreUnderMetalock(t *testing.T) {
	const threads, ops = 32, 60
	flagOf := func(p Proc) *sim.Word {
		if g, ok := p.(*gollProc); ok {
			return g.flag
		}
		return p.(*solarisProc).flag
	}
	for _, tc := range []struct {
		name  string
		build func(m *sim.Machine) (Lock, simMutex)
	}{
		{"goll", func(m *sim.Machine) (Lock, simMutex) { l := NewGOLL(m, threads); return l, l.meta }},
		{"solaris", func(m *sim.Machine) (Lock, simMutex) { l := NewSolaris(m, threads); return l, l.meta }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.New(sim.T5440())
			l, meta := tc.build(m)
			flags := map[int]bool{}
			holder := -1 // the thread inside the metalock section, if any
			sections, flagStores := 0, 0
			m.SetTrace(func(e sim.Event) {
				switch {
				case e.Word == meta.w.ID() && e.Kind == sim.EvCASSuccess:
					holder = e.Thread
					sections++
				case e.Word == meta.w.ID() && e.Kind == sim.EvStore:
					holder = -1
				case flags[e.Word] && e.Kind == sim.EvStore:
					flagStores++
					if e.Thread == holder {
						t.Errorf("cycle %d: thread %d stores %d to flag word %d inside its metalock section", e.Time, e.Thread, e.Value, e.Word)
					}
				}
			})
			for i := 0; i < threads; i++ {
				p := l.NewProc(i)
				flags[flagOf(p).ID()] = true
				rng := xrand.New(42 + uint64(i)*0x9E3779B9 + 1)
				m.Spawn(func(c *sim.Ctx) {
					for j := 0; j < ops; j++ {
						if rng.Bool(0.05) {
							p.Lock(c)
							p.Unlock(c)
						} else {
							p.RLock(c)
							p.RUnlock(c)
						}
					}
				})
			}
			m.Run()
			if sections == 0 || flagStores == 0 {
				t.Fatalf("%d metalock sections, %d flag stores: the run never queued", sections, flagStores)
			}
		})
	}
}
