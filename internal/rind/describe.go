package rind

import (
	"fmt"

	"ollock/internal/csnzi"
	"ollock/internal/trace"
)

// TraceRoute classifies a ticket as a trace route: tree (a distributed
// arrival point), root (the central word), or none (a failed arrival).
func TraceRoute(t Ticket) trace.Route {
	switch {
	case t.Tree():
		return trace.RouteTree
	case t == Direct:
		return trace.RouteRoot
	default:
		return trace.RouteNone
	}
}

// Describe renders an indicator's live state for diagnostics (trace
// watchdog dumps): decoded gate/root word plus surplus estimate. The
// answer is advisory — words are read racily, exactly like Query.
func Describe(ind Indicator) string {
	switch x := ind.(type) {
	case *csnzi.CSNZI:
		return x.Describe()
	case *Sharded:
		return x.DescribeGate()
	default:
		nonzero, open := ind.Query()
		return fmt.Sprintf("Indicator{open=%v nonzero=%v}", open, nonzero)
	}
}

// GateWord returns the raw gate word (diagnostic; see the layout
// comment on Sharded).
func (s *Sharded) GateWord() uint64 { return s.gate.Load() }

// DescribeGate decodes the current gate word: open/closed/pending/
// drained state, close epoch, direct-arrival count, and the advisory
// slot surplus.
func (s *Sharded) DescribeGate() string { return s.describe(s.gate.Load()) }

// SetSealHook registers fn to be called with the close epoch whenever a
// close transition commits with the slots sealed (Close, CloseIfEmpty,
// TryUpgrade) — the trace layer's ind.seal event source. Set it before
// the indicator is shared; fn may be called from any goroutine that
// closes the indicator and must be cheap and non-blocking.
func (s *Sharded) SetSealHook(fn func(epoch uint64)) { s.sealHook = fn }

// sealed reports a committed close transition to the seal hook.
func (s *Sharded) sealed(g uint64) {
	if s.sealHook != nil {
		s.sealHook((g & gateEpochMask) >> gateEpochShift)
	}
}
