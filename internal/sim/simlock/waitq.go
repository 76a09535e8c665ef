package simlock

import (
	"slices"

	"ollock/internal/atomicx"
	"ollock/internal/sim"
)

// simMutex is the queue "metalock" of the GOLL and Solaris locks on one
// simulated word: spin.Mutex.Lock line for line — a test-and-test-and-set
// lock whose waiters poll with a doubling pause and CAS only once they
// have seen the word free, so an unlock is not met by a herd of failed
// CASes queued on the line ahead of the next holder's store.
type simMutex struct {
	w *sim.Word
}

func newSimMutex(m *sim.Machine) simMutex { return simMutex{w: m.NewWord(0)} }

// lock pauses by atomicx.Backoff's default bounds, which is what
// spin.Mutex runs with; one spin iteration is charged one cycle.
func (mx simMutex) lock(c *sim.Ctx) {
	if c.CAS(mx.w, 0, 1) {
		return
	}
	pause := int64(atomicx.DefaultBackoffMin)
	for {
		for c.Load(mx.w) != 0 {
			c.Work(pause)
			pause = min(2*pause, atomicx.DefaultBackoffMax)
		}
		if c.CAS(mx.w, 0, 1) {
			return
		}
	}
}

func (mx simMutex) unlock(c *sim.Ctx) {
	c.Store(mx.w, 0)
}

// waitEntry is one queued thread: its intention and the flag word it
// parks on.
type waitEntry struct {
	writer bool
	flag   *sim.Word
}

// simWaitQueue is the mutex-protected wait queue. The queue's link
// structure itself is modeled as plain host memory plus a fixed Work
// charge per operation (the metalock and flag words dominate its real
// cost); see DESIGN.md §4.
type simWaitQueue struct {
	entries    []waitEntry
	numWriters int
}

// queueOpCost approximates touching the queue's list structure.
const queueOpCost = 5

// enqueue publishes flag to releasers. Until then the word is private
// to its proc, so callers reset it (a line a remote releaser wrote
// last) before taking the metalock, not inside the section.
func (q *simWaitQueue) enqueue(c *sim.Ctx, writer bool, flag *sim.Word) {
	c.Work(queueOpCost)
	q.entries = append(q.entries, waitEntry{writer: writer, flag: flag})
	if writer {
		q.numWriters++
	}
}

func (q *simWaitQueue) empty() bool { return len(q.entries) == 0 }

// dequeueHandoff implements the Solaris policy used by both GOLL and the
// Solaris-like lock: a releasing reader hands to the first waiting
// writer (or all readers if none); a releasing writer hands to all
// waiting readers (or the first writer if none). Returned batch is nil
// when the queue is empty; writerBatch reports the batch kind. The
// queue is edited in place, keeping its order (which is simulated
// behaviour) and its array; a returned batch is a slice of its own.
func (q *simWaitQueue) dequeueHandoff(c *sim.Ctx, releaserWriter bool) (batch []waitEntry, writerBatch bool) {
	c.Work(queueOpCost)
	if len(q.entries) == 0 {
		return nil, false
	}
	takeWriter := func() []waitEntry {
		for i, e := range q.entries {
			if e.writer {
				q.entries = slices.Delete(q.entries, i, i+1)
				q.numWriters--
				return []waitEntry{e}
			}
		}
		return nil
	}
	takeReaders := func() []waitEntry {
		if q.numWriters == len(q.entries) {
			return nil
		}
		var readers []waitEntry
		rest := q.entries[:0]
		for _, e := range q.entries {
			if e.writer {
				rest = append(rest, e)
			} else {
				readers = append(readers, e)
			}
		}
		q.entries = rest
		return readers
	}
	if releaserWriter {
		if readers := takeReaders(); len(readers) > 0 {
			return readers, false
		}
		return takeWriter(), true
	}
	if w := takeWriter(); w != nil {
		return w, true
	}
	return takeReaders(), false
}

// signal wakes every entry in the batch (one flag-word store each).
func signalBatch(c *sim.Ctx, batch []waitEntry) {
	for _, e := range batch {
		c.Store(e.flag, 1)
	}
}
