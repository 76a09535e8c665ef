package rind

import (
	"ollock/internal/central"
	"ollock/internal/obs"
)

// Central is the degenerate centralized read indicator: a single
// CAS-able counter word with a closed bit — exactly the word at the
// heart of the naive centralized lock (it *is* central.Lockword), and
// what a C-SNZI with zero leaves reduces to. Every arrival and
// departure hits the one word; it exists as the ablation floor the
// paper measures the C-SNZI against.
//
// All Central tickets are direct: the word is the root.
type Central struct {
	w central.Lockword
}

// NewCentral returns an open centralized indicator with zero surplus.
func NewCentral() *Central { return &Central{} }

// Arrive implements Indicator.
func (c *Central) Arrive(id int) Ticket {
	if c.w.Arrive() {
		return Direct
	}
	return 0
}

// ArriveLocal implements Indicator. The centralized word does its own
// accounting-free arrivals; lc is used only by the Instrument wrapper.
func (c *Central) ArriveLocal(id int, _ *obs.Local) Ticket { return c.Arrive(id) }

// Depart implements Indicator.
func (c *Central) Depart(t Ticket) bool {
	if t != Direct {
		panic("rind: Depart with failed ticket")
	}
	return c.w.Depart()
}

// Query implements Indicator.
func (c *Central) Query() (nonzero, open bool) { return c.w.Query() }

// Close implements Indicator.
func (c *Central) Close() bool {
	_, acquired := c.closeReport(false)
	return acquired
}

// CloseAndMark implements Indicator.
func (c *Central) CloseAndMark() bool {
	_, acquired := c.closeReport(true)
	return acquired
}

// closeReport exposes the transition/acquisition split of Close
// (mark false) and CloseAndMark (mark true) for the Instrument wrapper:
// close events are counted per transition.
func (c *Central) closeReport(mark bool) (transitioned, acquired bool) {
	if mark {
		return c.w.CloseAndMark()
	}
	return c.w.Close()
}

// CloseIfEmpty implements Indicator.
func (c *Central) CloseIfEmpty() bool { return c.w.CloseIfEmpty() }

// MarkWaiters implements Indicator.
func (c *Central) MarkWaiters() bool { return c.w.MarkWaiters() }

// OpenIfNoWaiters implements Indicator.
func (c *Central) OpenIfNoWaiters() bool { return c.w.OpenIfNoWaiters() }

// Open implements Indicator.
func (c *Central) Open() { c.w.Open() }

// OpenWithArrivals implements Indicator.
func (c *Central) OpenWithArrivals(cnt int, close bool) { c.w.OpenWithArrivals(cnt, close) }

// DirectTicket implements Indicator.
func (c *Central) DirectTicket() Ticket { return Direct }

// TradeToRoot implements Indicator. Central arrivals are already
// direct.
func (c *Central) TradeToRoot(t Ticket) Ticket {
	if t != Direct {
		panic("rind: TradeToRoot with foreign ticket")
	}
	return t
}

// SoleDirect implements Indicator.
func (c *Central) SoleDirect() bool { return c.w.Count() == 1 }

// TryUpgrade implements Indicator.
func (c *Central) TryUpgrade() bool { return c.w.TryUpgrade() }
