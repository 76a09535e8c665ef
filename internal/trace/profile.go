// Contention profile: fold a trace into wait-time-by-phase-by-lock
// tables, the pprof-style "top" view of where acquisition time went.
//
// The accounting identity the profile maintains: every Acquired event
// carries its full acquisition latency (packed by the emitting lock),
// and the explicit phase spans recorded during a slow acquisition
// partition that latency; whatever the spans do not cover is the
// arrive work that preceded queuing (the whole latency, on the
// conflict-free path). Total wall wait is therefore the sum of
// acquisition latencies plus standalone spans (BRAVO revocation, which
// runs after the write is acquired), and coverage reports how much of
// it the named phases account for.
package trace

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"time"
)

// PhaseRow is one (lock, phase) aggregate.
type PhaseRow struct {
	Lock  string
	Phase string
	Count uint64
	Total time.Duration
	Max   time.Duration
}

// Profile is a folded contention profile.
type Profile struct {
	Rows []PhaseRow
	// TotalWait is the wall time procs spent acquiring (sum of
	// acquisition latencies plus standalone spans such as revocation).
	TotalWait time.Duration
	// Attributed is the portion of TotalWait assigned to named phases.
	Attributed time.Duration
	// Acquires counts Read/WriteAcquired events folded in.
	Acquires uint64
}

// Coverage reports Attributed/TotalWait (1 when nothing was waited).
func (p *Profile) Coverage() float64 {
	if p.TotalWait <= 0 {
		return 1
	}
	return float64(p.Attributed) / float64(p.TotalWait)
}

// Fold builds the profile from a sorted event stream (Tracer.Snapshot
// or Recording.Decode output).
func Fold(evs []Event, lockName func(uint16) string) *Profile {
	type key struct {
		lock  uint16
		phase Phase
	}
	type pkey struct {
		lock uint16
		proc int32
	}
	type open struct {
		phase Phase
		ts    int64
	}
	rows := map[key]*PhaseRow{}
	opens := map[pkey]open{}
	pending := map[pkey]int64{} // span time since the last Acquired
	p := &Profile{}

	add := func(lock uint16, ph Phase, d int64) {
		if d < 0 {
			d = 0
		}
		k := key{lock, ph}
		r := rows[k]
		if r == nil {
			r = &PhaseRow{Lock: lockName(lock), Phase: ph.String()}
			rows[k] = r
		}
		r.Count++
		r.Total += time.Duration(d)
		if time.Duration(d) > r.Max {
			r.Max = time.Duration(d)
		}
	}

	for _, e := range evs {
		pk := pkey{e.Lock, e.Proc}
		switch e.Kind {
		case KindPhaseBegin:
			if o, ok := opens[pk]; ok {
				d := e.Ts - o.ts
				add(e.Lock, o.phase, d)
				pending[pk] += d
			}
			opens[pk] = open{e.Phase, e.Ts}
		case KindPhaseEnd:
			// A span closed outside an acquisition (e.g. revoke): it is
			// its own wall wait, fully attributed.
			if o, ok := opens[pk]; ok {
				d := e.Ts - o.ts
				if d < 0 {
					d = 0
				}
				add(e.Lock, o.phase, d)
				p.TotalWait += time.Duration(d)
				p.Attributed += time.Duration(d)
				delete(opens, pk)
			}
		case KindReadAcquired, KindWriteAcquired:
			if o, ok := opens[pk]; ok {
				d := e.Ts - o.ts
				add(e.Lock, o.phase, d)
				pending[pk] += d
				delete(opens, pk)
			}
			lat := e.Latency()
			spans := pending[pk]
			delete(pending, pk)
			if spans > lat {
				spans = lat // clock-granularity slop: never over-attribute
			}
			// The uncovered remainder is pre-queue arrive work.
			if rem := lat - spans; rem > 0 {
				add(e.Lock, PhaseArrive, rem)
			}
			p.Acquires++
			p.TotalWait += time.Duration(lat)
			p.Attributed += time.Duration(lat)
		}
	}
	for k := range rows {
		p.Rows = append(p.Rows, *rows[k])
	}
	sort.Slice(p.Rows, func(i, j int) bool {
		if p.Rows[i].Total != p.Rows[j].Total {
			return p.Rows[i].Total > p.Rows[j].Total
		}
		if p.Rows[i].Lock != p.Rows[j].Lock {
			return p.Rows[i].Lock < p.Rows[j].Lock
		}
		return p.Rows[i].Phase < p.Rows[j].Phase
	})
	return p
}

// WriteTop renders the profile as a pprof-style top table: phases
// sorted by cumulative wait, with each row's share of total wall wait.
func (p *Profile) WriteTop(w io.Writer) {
	fmt.Fprintf(w, "wall wait %v over %d acquisitions, %.1f%% attributed to phases\n",
		p.TotalWait, p.Acquires, 100*p.Coverage())
	fmt.Fprintf(w, "%-12s %-12s %10s %14s %14s %7s\n",
		"LOCK", "PHASE", "COUNT", "TOTAL", "MAX", "WAIT%")
	for _, r := range p.Rows {
		pct := 0.0
		if p.TotalWait > 0 {
			pct = 100 * float64(r.Total) / float64(p.TotalWait)
		}
		fmt.Fprintf(w, "%-12s %-12s %10d %14v %14v %6.1f%%\n",
			r.Lock, r.Phase, r.Count, r.Total, r.Max, pct)
	}
}

// Do runs f under pprof labels naming the traced lock, so CPU profiles
// sampled during a traced workload can be sliced by lock in pprof
// (`-tagfocus ollock_lock=<name>`). This is the runtime/pprof.Do
// integration point for a traced workload.
func Do(lock string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("ollock_lock", lock),
		func(context.Context) { f() })
}
