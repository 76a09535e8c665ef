package rind

import (
	"ollock/internal/csnzi"
	"ollock/internal/obs"
)

// CSNZI adapts the paper's closable scalable nonzero indicator (package
// csnzi) to the Indicator contract. It is the default indicator of
// every OLL lock.
//
// The adapter only forwards — the ticket type is the C-SNZI's own — so
// every method is a call the inliner takes, and a lock that holds the
// adapter resolves it to the C-SNZI behind it once (see Root).
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
func (c *CSNZI) ArriveLocal(id int, lc *obs.Local) Ticket { return c.cs.ArriveLocal(id, lc) }

// Depart implements Indicator.
func (c *CSNZI) Depart(t Ticket) bool { return c.cs.Depart(t) }

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
func (c *CSNZI) DirectTicket() Ticket { return Direct }

// TradeToRoot implements Indicator.
func (c *CSNZI) TradeToRoot(t Ticket) Ticket { return c.cs.TradeToRoot(t) }

// SoleDirect implements Indicator.
func (c *CSNZI) SoleDirect() bool { return c.cs.SoleDirect() }

// TryUpgrade implements Indicator.
func (c *CSNZI) TryUpgrade() bool { return c.cs.TryUpgrade() }
