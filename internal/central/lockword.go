package central

import (
	"fmt"

	"ollock/internal/atomicx"
)

// Lockword is the classic centralized closable reader count: a single
// CAS-able 64-bit word packing a closed flag (bit 63), a waiters flag
// (bit 62) and an arrival count (bits 0..61). It is the degenerate case of the paper's C-SNZI
// (a C-SNZI with zero leaves reduces to exactly this word) and the
// "central counter" point of BRAVO's read-indicator taxonomy.
//
// Two layers of this module build on it: the naive centralized RWLock
// in this package (which spins where an indicator would fail), and the
// rind.Central read indicator (which plugs the word under the OLL
// locks). Keeping both on one implementation is the point — the
// centralized-vs-distributed ablation then differs only in the
// indicator, not in incidental word-layout details.
//
// The zero Lockword is open with zero count.
type Lockword struct {
	w atomicx.PaddedUint64
}

// ClosedBit is the closed flag of the word and WaitersBit the waiters
// flag (the Solaris lockword's RW_HAS_WAITERS: set only while closed,
// by MarkWaiters/CloseAndMark, cleared by every transition to open; the
// word itself never acts on it); the remaining 62 bits hold the arrival
// count. "Closed with zero count" (write-acquired, in lock terms) is
// therefore the word value ClosedBit, give or take WaitersBit.
const (
	ClosedBit  = uint64(1) << 63
	WaitersBit = uint64(1) << 62
	countMask  = WaitersBit - 1
)

// writeAcquired reports whether w is closed with zero count, with or
// without the waiters flag.
func writeAcquired(w uint64) bool { return w&^WaitersBit == ClosedBit }

// Arrive attempts to increment the count. It fails, without modifying
// the word, iff the word is closed. CAS retries back off (tight retry
// loops on a single hot word are exactly where backoff pays).
func (l *Lockword) Arrive() bool {
	var b atomicx.Backoff
	for {
		w := l.w.Load()
		if w&ClosedBit != 0 {
			return false
		}
		if l.w.CompareAndSwap(w, w+1) {
			return true
		}
		b.Pause()
	}
}

// Depart decrements the count. It returns false iff the resulting word
// is closed with zero count — the departer was the last one out of a
// closed word and must hand over. It panics if the count is zero.
func (l *Lockword) Depart() bool {
	var b atomicx.Backoff
	for {
		w := l.w.Load()
		if w&countMask == 0 {
			panic("central: Depart without matching Arrive")
		}
		if l.w.CompareAndSwap(w, w-1) {
			return !writeAcquired(w - 1)
		}
		b.Pause()
	}
}

// Close transitions the word from open to closed, reporting whether
// this call made the transition and whether the closed word has zero
// count (acquired outright). An already-closed word is left unchanged
// (false, false).
func (l *Lockword) Close() (transitioned, acquired bool) {
	var b atomicx.Backoff
	for {
		w := l.w.Load()
		if w&ClosedBit != 0 {
			return false, false
		}
		if l.w.CompareAndSwap(w, w|ClosedBit) {
			return true, w == 0
		}
		b.Pause()
	}
}

// CloseAndMark is Close for a closer that will queue unless it acquires
// outright: it leaves the word closed and, unless the closer took it
// empty, flagged as having waiters, in one CAS — there is no moment at
// which the word is closed on the caller's behalf but OpenIfNoWaiters
// could still succeed. An already-closed word is marked (false, false).
func (l *Lockword) CloseAndMark() (transitioned, acquired bool) {
	var b atomicx.Backoff
	for {
		w := l.w.Load()
		nw := w | ClosedBit | WaitersBit
		if w == 0 {
			nw = ClosedBit
		}
		if nw == w || l.w.CompareAndSwap(w, nw) {
			return w&ClosedBit == 0, w == 0
		}
		b.Pause()
	}
}

// MarkWaiters sets the waiters flag iff the word is closed, reporting
// whether it is. An open word is left unchanged.
func (l *Lockword) MarkWaiters() bool {
	var b atomicx.Backoff
	for {
		w := l.w.Load()
		if w&ClosedBit == 0 {
			return false
		}
		if w&WaitersBit != 0 || l.w.CompareAndSwap(w, w|WaitersBit) {
			return true
		}
		b.Pause()
	}
}

// OpenIfNoWaiters reopens a word that is closed with zero count and no
// waiters flag, reporting whether it did. One CAS: the writer's release
// fast path.
func (l *Lockword) OpenIfNoWaiters() bool {
	return l.w.CompareAndSwap(ClosedBit, 0)
}

// CloseIfEmpty closes the word only if it is open with zero count,
// reporting whether it did. One CAS: the writer fast path.
func (l *Lockword) CloseIfEmpty() bool {
	return l.w.Load() == 0 && l.w.CompareAndSwap(0, ClosedBit)
}

// Open reopens the word, clearing the waiters flag. It requires (and
// panics otherwise) that the word is closed with zero count.
func (l *Lockword) Open() {
	if w := l.w.Load(); !writeAcquired(w) {
		panic(fmt.Sprintf("central: Open on word %#x", w))
	}
	l.w.Store(0)
}

// OpenWithArrivals atomically opens the word, performs cnt arrivals,
// and, if close is set, closes it again, keeping the waiters flag
// (which an open result clears). Like Open it requires the word to be
// closed with zero count.
func (l *Lockword) OpenWithArrivals(cnt int, close bool) {
	if cnt < 0 || uint64(cnt) > countMask {
		panic(fmt.Sprintf("central: OpenWithArrivals count %d out of range", cnt))
	}
	old := l.w.Load()
	if !writeAcquired(old) {
		panic(fmt.Sprintf("central: OpenWithArrivals on word %#x", old))
	}
	w := uint64(cnt)
	if close {
		w |= old // ClosedBit, and WaitersBit if set
	}
	l.w.Store(w)
}

// TryUpgrade attempts to atomically transition from "count exactly one"
// to "closed with zero count", regardless of the open/closed state. On
// success the caller's arrival is consumed (do not Depart it). It fails
// if any other arrival exists. The waiters flag carries over.
func (l *Lockword) TryUpgrade() bool {
	var b atomicx.Backoff
	for {
		w := l.w.Load()
		if w&countMask != 1 {
			return false
		}
		if l.w.CompareAndSwap(w, ClosedBit|w&WaitersBit) {
			return true
		}
		b.Pause()
	}
}

// Query returns whether the count is nonzero and whether the word is
// open.
func (l *Lockword) Query() (nonzero, open bool) {
	w := l.w.Load()
	return w&countMask != 0, w&ClosedBit == 0
}

// Count returns the current arrival count (diagnostic).
func (l *Lockword) Count() int { return int(l.w.Load() & countMask) }

// HasWaiters reports whether the waiters flag is set (diagnostic).
func (l *Lockword) HasWaiters() bool { return l.w.Load()&WaitersBit != 0 }

// Closed reports whether the word is closed (diagnostic).
func (l *Lockword) Closed() bool { return l.w.Load()&ClosedBit != 0 }
