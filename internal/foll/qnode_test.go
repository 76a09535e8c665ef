package foll

import (
	"testing"

	"ollock/internal/lockcore"
	"ollock/internal/qnodetest"
)

// policy is FOLL's row of the substrate battery (internal/qnodetest):
// the white-box node-state scenarios and the timed-acquisition surface
// FOLL shares with ROLL, each written once there.
var policy = qnodetest.Policy{
	New: func(maxProcs int, in lockcore.Instr) qnodetest.Lock {
		l := New(maxProcs, WithInstr(in))
		return qnodetest.Lock{Queue: &l.Queue, NewProc: func() qnodetest.Proc {
			p := l.NewProc()
			return qnodetest.Proc{Acquirer: p, Base: &p.Proc}
		}}
	},
	Events: events,
}

func TestEnqueueSitesResetDirtyNodes(t *testing.T) {
	qnodetest.EnqueueSitesResetDirtyNodes(t, policy)
}

func TestNodesReenterCanonicalAfterRealHistories(t *testing.T) {
	qnodetest.NodesReenterCanonicalAfterRealHistories(t, policy)
}

func TestNodesRestAfterCancelStorm(t *testing.T) { qnodetest.NodesRestAfterCancelStorm(t, policy) }
func TestWriteTimeoutBehindWriter(t *testing.T)  { qnodetest.WriteTimeoutBehindWriter(t, policy) }
func TestReadTimeoutBehindWriter(t *testing.T)   { qnodetest.ReadTimeoutBehindWriter(t, policy) }
func TestReadCtxCancel(t *testing.T)             { qnodetest.ReadCtxCancel(t, policy) }
func TestReadCtxCancelBehindWriter(t *testing.T) { qnodetest.ReadCtxCancelBehindWriter(t, policy) }
func TestTrySemantics(t *testing.T)              { qnodetest.TrySemantics(t, policy) }
func TestTryLockHammer(t *testing.T)             { qnodetest.TryLockHammer(t, policy) }
func TestCloseBeforeLink(t *testing.T)           { qnodetest.CloseBeforeLink(t, policy) }

func TestBecomeHeadClearsOwnBackLink(t *testing.T) {
	qnodetest.BecomeHeadClearsOwnBackLink(t, policy)
}
