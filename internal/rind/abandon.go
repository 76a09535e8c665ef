package rind

// Abandon retracts an arrival on behalf of a caller that is giving up
// on acquisition (deadline expiry or context cancellation) rather than
// releasing a held lock. Mechanically it is a Depart — the indicator
// does not distinguish why a surplus unit leaves — but the contract on
// the return value is inverted to match what an abandoning caller must
// check: Abandon reports whether the caller was the last departer out
// of a closed indicator and thereby INHERITED the drain hand-off.
//
// An abandoner that inherits the drain cannot simply walk away: the
// closer (a writer that Closed the indicator and is waiting for the
// surplus to hit zero) is owed exactly one hand-off signal, and this
// departure just became it. The lock-layer cancellation paths
// (goll/deadline.go, internal/qnode/cancel.go) handle inheritance by
// running the same last-departer duty a normal RUnlock would — waking
// the writer or discharging the group hand-off — before returning "not
// acquired" to their caller. That is what keeps sealed-drain accounting
// exact under abandonment: every closed indicator drains to zero exactly
// once, no matter how many of its departures were cancellations.
//
// The ticket must come from a successful Arrive on ind and must not be
// used again (neither Depart nor Abandon).
func Abandon(ind Indicator, t Ticket) (inheritedDrain bool) {
	return !ind.Depart(t)
}
