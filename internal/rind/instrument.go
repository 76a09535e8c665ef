package rind

import (
	"ollock/internal/obs"
)

// closeReporter is implemented by the in-package indicators whose Close
// cannot otherwise tell "already closed" (no transition) apart from
// "closed with surplus" (transition, not acquired); the instrumented
// wrapper counts close events per transition, matching the C-SNZI's
// internal accounting.
type closeReporter interface {
	Indicator
	closeReport(mark bool) (transitioned, acquired bool)
}

// Instrument attaches an obs.Stats block to an indicator, returning the
// indicator to use in its place. It is the single point where csnzi.*
// event counting joins the indicator layer:
//
//   - A nil stats block returns ind unchanged (zero-overhead-off).
//   - The CSNZI adapter routes the block into the C-SNZI itself, whose
//     internal accounting (root vs. tree arrivals, per-retry CAS
//     counts) is exact and predates this layer.
//   - Central and Sharded are wrapped with a decorator that emits the
//     same csnzi.* counter names, so snapshots are comparable across
//     indicators: direct/gate arrivals count as csnzi.arrive.root,
//     sharded slot arrivals as csnzi.arrive.tree, failures as
//     csnzi.arrive.fail, and open/close transitions as csnzi.open and
//     csnzi.close. csnzi.cas.retry stays zero for them (their retry
//     loops are not instrumented); see ALGORITHMS.md.
//
// Instrument must be called before the indicator is shared between
// goroutines.
func Instrument(ind Indicator, st *obs.Stats) Indicator {
	if st == nil || ind == nil {
		return ind
	}
	switch x := ind.(type) {
	case *CSNZI:
		x.cs.SetStats(st)
		return x
	case closeReporter:
		return &instrumented{inner: x, st: st}
	default:
		return ind
	}
}

// instrumented decorates a non-C-SNZI indicator with csnzi.*-named
// event counting.
type instrumented struct {
	inner closeReporter
	st    *obs.Stats
}

func (w *instrumented) count(lc *obs.Local, e obs.Event, id int) {
	if lc != nil {
		lc.Inc(e)
		return
	}
	w.st.Inc(e, id)
}

// Arrive implements Indicator.
func (w *instrumented) Arrive(id int) Ticket { return w.ArriveLocal(id, nil) }

// ArriveLocal implements Indicator.
func (w *instrumented) ArriveLocal(id int, lc *obs.Local) Ticket {
	t := w.inner.ArriveLocal(id, nil)
	switch {
	case !t.Arrived():
		w.count(lc, obs.CSNZIArriveFail, id)
	case t.Tree():
		w.count(lc, obs.CSNZIArriveTree, id)
	default:
		w.count(lc, obs.CSNZIArriveRoot, id)
	}
	return t
}

// Depart implements Indicator.
func (w *instrumented) Depart(t Ticket) bool { return w.inner.Depart(t) }

// Query implements Indicator.
func (w *instrumented) Query() (nonzero, open bool) { return w.inner.Query() }

// Close implements Indicator.
func (w *instrumented) Close() bool { return w.close(false) }

// CloseAndMark implements Indicator.
func (w *instrumented) CloseAndMark() bool { return w.close(true) }

func (w *instrumented) close(mark bool) bool {
	transitioned, acquired := w.inner.closeReport(mark)
	if transitioned {
		w.st.Inc(obs.CSNZIClose, 0)
	}
	return acquired
}

// CloseIfEmpty implements Indicator.
func (w *instrumented) CloseIfEmpty() bool {
	if w.inner.CloseIfEmpty() {
		w.st.Inc(obs.CSNZIClose, 0)
		return true
	}
	return false
}

// MarkWaiters implements Indicator.
func (w *instrumented) MarkWaiters() bool { return w.inner.MarkWaiters() }

// OpenIfNoWaiters implements Indicator.
func (w *instrumented) OpenIfNoWaiters() bool {
	if w.inner.OpenIfNoWaiters() {
		w.st.Inc(obs.CSNZIOpen, 0)
		return true
	}
	return false
}

// Open implements Indicator.
func (w *instrumented) Open() {
	w.inner.Open()
	w.st.Inc(obs.CSNZIOpen, 0)
}

// OpenWithArrivals implements Indicator.
func (w *instrumented) OpenWithArrivals(cnt int, close bool) {
	w.inner.OpenWithArrivals(cnt, close)
	w.st.Inc(obs.CSNZIOpen, 0)
}

// DirectTicket implements Indicator.
func (w *instrumented) DirectTicket() Ticket { return w.inner.DirectTicket() }

// TradeToRoot implements Indicator.
func (w *instrumented) TradeToRoot(t Ticket) Ticket { return w.inner.TradeToRoot(t) }

// SoleDirect implements Indicator.
func (w *instrumented) SoleDirect() bool { return w.inner.SoleDirect() }

// TryUpgrade implements Indicator.
func (w *instrumented) TryUpgrade() bool { return w.inner.TryUpgrade() }
