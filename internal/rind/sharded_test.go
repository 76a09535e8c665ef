package rind

import (
	"math"
	"testing"
)

// TestShardedSlotIndexExtremeIDs pins the unsigned slot reduction:
// negating math.MinInt overflows and stays negative, so the old
// `-id % n` computation produced a negative index and panicked.
func TestShardedSlotIndexExtremeIDs(t *testing.T) {
	ind := NewSharded(3)
	for _, id := range []int{0, 1, -1, -7, math.MinInt, math.MaxInt} {
		idx := ind.slotIndex(id)
		if idx < 0 || int(idx) >= ind.Shards() {
			t.Fatalf("slotIndex(%d) = %d, out of range [0,%d)", id, idx, ind.Shards())
		}
		tk := ind.Arrive(id)
		if !tk.Arrived() {
			t.Fatalf("Arrive(%d) failed on an open indicator", id)
		}
		if !ind.Depart(tk) {
			t.Fatal("Depart reported a drain on an open indicator")
		}
	}
}

// TestShardedDrainClaimEpochABA replays, hand-stepped, the cross-epoch
// ABA the gate's close-epoch counter exists to prevent: a departer
// preempted inside tryDrain between its sum and its claim CAS must not
// be able to resume after a full Open/Close cycle and succeed the stale
// CAS — the gate word of the new close epoch has to differ from the one
// the departer read, or the lock is handed over while the new epoch's
// readers still hold slot arrivals.
func TestShardedDrainClaimEpochABA(t *testing.T) {
	ind := NewSharded(2)

	// Close epoch 0: two readers in, a writer closes behind them, the
	// first reader departs without draining.
	t1 := ind.Arrive(1)
	t2 := ind.Arrive(2)
	if !t1.Arrived() || !t2.Arrived() {
		t.Fatal("arrivals failed on an open indicator")
	}
	if ind.Close() {
		t.Fatal("Close acquired with surplus 2")
	}
	if !ind.Depart(t1) {
		t.Fatal("first departer claimed the drain with surplus left")
	}

	// Second departer, stepped by hand to the preemption point: it has
	// bumped its egress, read the closed gate, and summed zero — and
	// stalls just before the drain-claim CAS.
	ind.slots[t2.Index()].egress.Add(1)
	gStale := ind.gate.Load()
	if gStale&gateClosed == 0 || gStale&gateDrained != 0 || gStale&gateDirectMask != 0 {
		t.Fatalf("unexpected gate %#x at the preemption point", gStale)
	}
	if ind.sumSealed() != 0 {
		t.Fatal("surplus left after both departures")
	}

	// A concurrent claimant wins the epoch-0 drain instead, and the
	// owner runs a full Open/Close cycle: the gate is once again
	// "closed, direct=0" — now with a new-epoch reader inside.
	if !ind.tryDrain(gStale) {
		t.Fatal("concurrent claimant failed to drain the emptied epoch")
	}
	ind.Open()
	t3 := ind.Arrive(3)
	if !t3.Arrived() {
		t.Fatal("arrival failed after reopen")
	}
	if ind.Close() {
		t.Fatal("Close acquired with surplus 1")
	}

	// The stalled departer resumes and issues the claim CAS it had
	// formed in epoch 0. Without the epoch counter the new closed gate
	// word recurs bit-identically and this CAS succeeds.
	if ind.gate.CompareAndSwap(gStale, gStale|gateDrained) {
		t.Fatal("stale drain-claim CAS from a prior close epoch succeeded")
	}
	// And the full resume path (tryDrain re-evaluates after the failed
	// CAS) must give the drain up rather than re-claim it.
	if ind.tryDrain(gStale) {
		t.Fatal("stale tryDrain claimed a later epoch's drain")
	}
	if ind.gate.Load()&gateDrained != 0 {
		t.Fatal("gate drained while a reader holds an arrival")
	}

	// The drain still happens exactly once, at the real last departer.
	if ind.Depart(t3) {
		t.Fatal("last departer out of the closed gate missed the drain")
	}
	ind.Open()
	if nonzero, open := ind.Query(); nonzero || !open {
		t.Fatalf("end state nonzero=%v open=%v, want empty and open", nonzero, open)
	}
}
