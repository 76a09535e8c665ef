// Package waitq implements the mutex-protected queue of waiting threads
// used by the GOLL and Solaris-like reader-writer locks. It is the
// user-space analogue of the Solaris turnstile: threads enqueue
// themselves (with their read/write intention and a priority), block on
// a spin-based waiter object, and are dequeued in hand-off batches — a
// single writer, or a group of readers that may all hold the lock
// simultaneously.
//
// The queue itself is not thread-safe: the owning lock serializes all
// queue operations under its "metalock" (queue mutex), exactly as in the
// paper's Figure 3. What this package provides is the ordering policy:
// which waiter(s) a releasing thread hands the lock to.
package waitq

import (
	"ollock/internal/park"
	"ollock/internal/spin"
	"ollock/internal/trace"
)

// Kind is a waiting thread's intention.
type Kind int

// Waiter intentions.
const (
	Reader Kind = iota
	Writer
)

func (k Kind) String() string {
	if k == Reader {
		return "reader"
	}
	return "writer"
}

// Entry is one waiting thread. After Enqueue returns an Entry, the
// enqueuing thread calls Wait (outside the queue mutex); the thread that
// dequeues it calls Signal via the returned Batch.
type Entry struct {
	kind       Kind
	priority   int
	w          spin.Waiter
	prev, next *Entry
	q          *Queue
	linked     bool
}

// Wait blocks the calling thread until the entry is signaled by a
// hand-off.
func (e *Entry) Wait() { e.w.Wait() }

// WaitWith is Wait under a wait policy: the blocked thread descends the
// policy's spin→yield→park ladder instead of spinning unconditionally. id is the caller's proc id
// and tr (nil ok) receives park/unpark trace events.
func (e *Entry) WaitWith(pol *park.Policy, id int, tr *trace.Local) {
	e.w.WaitWith(pol, id, tr)
}

// WaitUntil is WaitWith with a bound: true once the entry is signaled
// by a hand-off, false if dl expired first. After a false return the
// entry may still be dequeued and signaled by a concurrent releaser —
// the canceling thread must take the queue mutex and consult Cancel to
// learn which side won.
func (e *Entry) WaitUntil(pol *park.Policy, id int, tr *trace.Local, dl park.Deadline) bool {
	return e.w.WaitUntil(pol, id, tr, dl)
}

// Kind returns the entry's intention.
func (e *Entry) Kind() Kind { return e.kind }

// Queue is an ordered list of waiting threads with reader/writer
// batching. The zero value is an empty queue. All methods require
// external synchronization.
type Queue struct {
	head, tail *Entry
	numWriters int
	numReaders int
}

// Enqueue appends a waiter of the given kind and priority and returns
// its entry. Higher priority values are preferred by hand-off; equal
// priorities keep FIFO order.
func (q *Queue) Enqueue(kind Kind, priority int) *Entry {
	e := &Entry{kind: kind, priority: priority, q: q}
	if q.tail == nil {
		q.head, q.tail = e, e
	} else {
		e.prev = q.tail
		q.tail.next = e
		q.tail = e
	}
	if kind == Writer {
		q.numWriters++
	} else {
		q.numReaders++
	}
	e.linked = true
	return e
}

// Cancel unlinks e if it is still queued, reporting whether it did.
// Like every Queue method it requires the owning lock's mutex — that
// serialization is what makes the return value decisive: true means no
// hand-off will ever signal e (the canceling thread owns the
// abandonment); false means a releaser already dequeued e into a batch
// and a signal is coming (the canceling thread must wait it out and
// then give the acquisition back).
func (q *Queue) Cancel(e *Entry) bool {
	if !e.linked {
		return false
	}
	q.remove(e)
	return true
}

// Len returns the number of waiting threads.
func (q *Queue) Len() int { return q.numWriters + q.numReaders }

// NumWriters returns the number of waiting writers. The GOLL lock uses
// it to decide whether a reader hand-off must leave the C-SNZI closed.
func (q *Queue) NumWriters() int { return q.numWriters }

// NumReaders returns the number of waiting readers.
func (q *Queue) NumReaders() int { return q.numReaders }

// Empty reports whether no threads are waiting.
func (q *Queue) Empty() bool { return q.head == nil }

// remove unlinks e from the queue.
func (q *Queue) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
	if e.kind == Writer {
		q.numWriters--
	} else {
		q.numReaders--
	}
}

// Batch is the set of threads a releasing thread hands the lock to:
// either exactly one writer, or one or more readers.
type Batch struct {
	Kind    Kind
	entries []*Entry
}

// Count returns the number of threads in the batch (the OpenWithArrivals
// count for a reader batch).
func (b *Batch) Count() int { return len(b.entries) }

// Signal wakes every thread in the batch. Call it after releasing the
// queue mutex, as the paper's pseudocode does. The wake hint lives in
// the waiter itself: an entry that parked costs a channel send, one
// that never left the spin phase one swap.
func (b *Batch) Signal() {
	for _, e := range b.entries {
		e.w.Signal()
	}
}

// DequeueHandoff removes and returns the batch that a releasing thread
// of the given kind hands the lock to, or nil if the queue is empty.
//
// The policy is the one the paper uses for the GOLL lock (§5.1), which
// is the Solaris policy: readers hand the lock over to writers, and
// writers hand the lock over to readers — unless a higher-priority
// writer is waiting.
//
//   - releaser == Reader: pick the best (highest-priority, FIFO among
//     equals) waiting writer; if no writer waits, batch all waiting
//     readers.
//   - releaser == Writer: batch all waiting readers, unless some waiting
//     writer has strictly higher priority than every waiting reader, in
//     which case pick that writer; if no reader waits, pick the best
//     writer.
func (q *Queue) DequeueHandoff(releaser Kind) *Batch {
	if q.head == nil {
		return nil
	}
	bestW := q.bestWriter()
	switch releaser {
	case Reader:
		if bestW != nil {
			q.remove(bestW)
			return &Batch{Kind: Writer, entries: []*Entry{bestW}}
		}
		return q.takeAllReaders()
	default: // Writer
		if q.numReaders == 0 {
			q.remove(bestW)
			return &Batch{Kind: Writer, entries: []*Entry{bestW}}
		}
		if bestW != nil && bestW.priority > q.maxReaderPriority() {
			q.remove(bestW)
			return &Batch{Kind: Writer, entries: []*Entry{bestW}}
		}
		return q.takeAllReaders()
	}
}

// DequeueFIFO removes and returns the head batch with strict queue-order
// fairness: the head entry, plus (if it is a reader) all consecutive
// readers behind it. Used by locks that want queue order rather than the
// Solaris alternation policy.
func (q *Queue) DequeueFIFO() *Batch {
	if q.head == nil {
		return nil
	}
	if q.head.kind == Writer {
		w := q.head
		q.remove(w)
		return &Batch{Kind: Writer, entries: []*Entry{w}}
	}
	var entries []*Entry
	for q.head != nil && q.head.kind == Reader {
		e := q.head
		q.remove(e)
		entries = append(entries, e)
	}
	return &Batch{Kind: Reader, entries: entries}
}

func (q *Queue) bestWriter() *Entry {
	var best *Entry
	for e := q.head; e != nil; e = e.next {
		if e.kind == Writer && (best == nil || e.priority > best.priority) {
			best = e
		}
	}
	return best
}

func (q *Queue) maxReaderPriority() int {
	max := int(^uint(0) >> 1) // start at -inf
	max = -max - 1
	for e := q.head; e != nil; e = e.next {
		if e.kind == Reader && e.priority > max {
			max = e.priority
		}
	}
	return max
}

// TakeReaders removes every waiting reader and returns them as one
// (possibly empty) batch. Used by lock downgrade, which admits all
// waiting readers alongside the downgrading writer.
func (q *Queue) TakeReaders() *Batch {
	return q.takeAllReaders()
}

// takeAllReaders removes every waiting reader (regardless of position:
// the Solaris hand-off wakes all readers, letting them overtake queued
// writers) and returns them as one batch.
func (q *Queue) takeAllReaders() *Batch {
	var entries []*Entry
	e := q.head
	for e != nil {
		next := e.next
		if e.kind == Reader {
			q.remove(e)
			entries = append(entries, e)
		}
		e = next
	}
	return &Batch{Kind: Reader, entries: entries}
}

// EntryInfo describes one waiting thread for diagnostics.
type EntryInfo struct {
	Kind     Kind
	Priority int
}

// Entries returns the waiting threads in queue order. Like every Queue
// method it requires the owning lock's mutex; the trace watchdog takes
// it before dumping the queue chain.
func (q *Queue) Entries() []EntryInfo {
	var out []EntryInfo
	for e := q.head; e != nil; e = e.next {
		out = append(out, EntryInfo{Kind: e.kind, Priority: e.priority})
	}
	return out
}
