package rind

import (
	"ollock/internal/csnzi"
	"ollock/internal/obs"
)

// CSNZI adapts the paper's closable scalable nonzero indicator (package
// csnzi) to the Indicator contract. It is the default indicator of
// every OLL lock.
//
// The adapter is a thin ticket translation: the C-SNZI's own arrival
// policy, intermediate states and instrumentation are untouched, so the
// csnzi.* counters (including per-retry CAS accounting) keep their
// exact pre-refactor semantics.
type CSNZI struct {
	cs *csnzi.CSNZI
}

// NewCSNZI returns an open C-SNZI-backed indicator with zero surplus.
func NewCSNZI(opts ...csnzi.Option) *CSNZI {
	return &CSNZI{cs: csnzi.New(opts...)}
}

// WrapCSNZI adapts an existing, custom-configured C-SNZI (tree width,
// fanout, arrival policy) — the knob the ablation benchmarks turn.
func WrapCSNZI(c *csnzi.CSNZI) *CSNZI { return &CSNZI{cs: c} }

// Inner returns the underlying C-SNZI (diagnostics and ablation).
func (c *CSNZI) Inner() *csnzi.CSNZI { return c.cs }

// Arrive implements Indicator.
func (c *CSNZI) Arrive(id int) Ticket { return c.ArriveLocal(id, nil) }

// ArriveLocal implements Indicator.
func (c *CSNZI) ArriveLocal(id int, lc *obs.Local) Ticket {
	t := c.cs.ArriveLocal(id, lc)
	switch {
	case t.Direct():
		return directTicket
	case t.Arrived():
		return Ticket{kind: ticketCSNZI, cs: t}
	default:
		return Ticket{}
	}
}

// Depart implements Indicator.
func (c *CSNZI) Depart(t Ticket) bool {
	switch t.kind {
	case ticketDirect:
		return c.cs.Depart(c.cs.DirectTicket())
	case ticketCSNZI:
		return c.cs.Depart(t.cs)
	default:
		panic("rind: Depart with failed ticket")
	}
}

// Query implements Indicator.
func (c *CSNZI) Query() (nonzero, open bool) { return c.cs.Query() }

// Close implements Indicator.
func (c *CSNZI) Close() bool { return c.cs.Close() }

// CloseIfEmpty implements Indicator.
func (c *CSNZI) CloseIfEmpty() bool { return c.cs.CloseIfEmpty() }

// CloseAndMark implements Indicator.
func (c *CSNZI) CloseAndMark() bool { return c.cs.CloseAndMark() }

// MarkWaiters implements Indicator.
func (c *CSNZI) MarkWaiters() bool { return c.cs.MarkWaiters() }

// OpenIfNoWaiters implements Indicator.
func (c *CSNZI) OpenIfNoWaiters() bool { return c.cs.OpenIfNoWaiters() }

// Open implements Indicator.
func (c *CSNZI) Open() { c.cs.Open() }

// OpenWithArrivals implements Indicator.
func (c *CSNZI) OpenWithArrivals(cnt int, close bool) { c.cs.OpenWithArrivals(cnt, close) }

// DirectTicket implements Indicator.
func (c *CSNZI) DirectTicket() Ticket { return directTicket }

// TradeToRoot implements Indicator.
func (c *CSNZI) TradeToRoot(t Ticket) Ticket {
	switch t.kind {
	case ticketDirect:
		return t
	case ticketCSNZI:
		c.cs.TradeToRoot(t.cs)
		return directTicket
	default:
		panic("rind: TradeToRoot with failed ticket")
	}
}

// SoleDirect implements Indicator.
func (c *CSNZI) SoleDirect() bool { return c.cs.SoleDirect() }

// TryUpgrade implements Indicator.
func (c *CSNZI) TryUpgrade() bool { return c.cs.TryUpgrade() }
