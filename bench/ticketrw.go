package main

import (
	"runtime"
	"sync/atomic"
)

// ticketRW is the centralized fair reader-writer lock of Scott's
// "Shared-Memory Synchronization" Fig. 6.3 (SNIPPETS.md §1): a requests
// word and a completions word, readers counted in the top half and
// writers in the bottom half, waiting with backoff proportional to the
// number of predecessors. It is a fixed yardstick (ref.ticketrw_ns): no
// library change can move it, so if it moves, the machine did.
type ticketRW struct {
	requests    atomic.Uint64
	_           [56]byte
	completions atomic.Uint64
	_           [56]byte
}

const (
	ticketReader  = 1 << 32
	ticketBackoff = 16 // spins per predecessor still ahead
)

// Lock waits until every earlier reader and writer has completed. A
// carry out of the writer half reaches both words after the same number
// of writers, so whole-word equality stays exact.
func (l *ticketRW) Lock() {
	mine := l.requests.Add(1) - 1
	for {
		c := l.completions.Load()
		if c == mine {
			return
		}
		ticketPause(uint32(mine) - uint32(c) + uint32(mine>>32) - uint32(c>>32))
	}
}

func (l *ticketRW) Unlock() { l.completions.Add(1) }

// RLock waits until every earlier writer has completed.
func (l *ticketRW) RLock() {
	mine := uint32(l.requests.Add(ticketReader) - ticketReader)
	for {
		c := uint32(l.completions.Load())
		if c == mine {
			return
		}
		ticketPause(mine - c)
	}
}

func (l *ticketRW) RUnlock() { l.completions.Add(ticketReader) }

// ticketPause spins in proportion to the predecessors ahead, then
// yields so a descheduled holder can run when goroutines outnumber
// processors.
func ticketPause(ahead uint32) {
	for i := uint32(0); i < ahead*ticketBackoff; i++ {
		spinHint.Load()
	}
	runtime.Gosched()
}

var spinHint atomic.Uint32
