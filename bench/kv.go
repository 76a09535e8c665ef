package main

import (
	"sync"

	"ollock"
)

// kvKeys is the key space of the store, as in examples/kvstore.
const kvKeys = 1024

// kvStore restates the store of examples/kvstore (which is package main
// and cannot be imported): one map guarded by one reader-writer lock,
// reached through per-goroutine sessions that hold an ollock.Proc.
type kvStore struct {
	lock ollock.Lock
	data map[uint64]uint64
}

type kvSession struct {
	s *kvStore
	p ollock.Proc
}

func newKVStore(kind ollock.Kind, maxProcs int) (*kvStore, error) {
	l, err := ollock.New(kind, maxProcs)
	if err != nil {
		return nil, err
	}
	s := &kvStore{lock: l, data: make(map[uint64]uint64, kvKeys)}
	for k := uint64(0); k < kvKeys; k++ {
		s.data[k] = k
	}
	return s, nil
}

func (s *kvStore) session() *kvSession { return &kvSession{s: s, p: s.lock.NewProc()} }

func (se *kvSession) get(k uint64) (uint64, bool) {
	se.p.RLock()
	v, ok := se.s.data[k]
	se.p.RUnlock()
	return v, ok
}

func (se *kvSession) put(k, v uint64) {
	se.p.Lock()
	se.s.data[k] = v
	se.p.Unlock()
}

// kvKey spreads op i over the key space without a table, so the key
// stream costs no memory traffic of its own.
func kvKey(i int, salt uint64) uint64 {
	return (uint64(i)*0x9E3779B97F4A7C15 + salt) >> 54
}

// loopKV runs n Get/Put ops of the schedule through a session; misses
// counts Gets that found no key (every key is preloaded, so any miss is
// a failed op).
func loopKV(se *kvSession, s *schedule, salt uint64, n int, misses *int) {
	for i := 0; i < n; i++ {
		k := kvKey(i, salt)
		if s.read(i) {
			if _, ok := se.get(k); !ok {
				*misses++
			}
		} else {
			se.put(k, uint64(i))
		}
	}
}

// stdKV is the same store under sync.RWMutex (kvstore.rwmutex_op_ns).
type stdKV struct {
	mu   sync.RWMutex
	data map[uint64]uint64
}

func newStdKV() *stdKV {
	s := &stdKV{data: make(map[uint64]uint64, kvKeys)}
	for k := uint64(0); k < kvKeys; k++ {
		s.data[k] = k
	}
	return s
}

func loopStdKV(kv *stdKV, s *schedule, salt uint64, n int, misses *int) {
	for i := 0; i < n; i++ {
		k := kvKey(i, salt)
		if s.read(i) {
			kv.mu.RLock()
			_, ok := kv.data[k]
			kv.mu.RUnlock()
			if !ok {
				*misses++
			}
		} else {
			kv.mu.Lock()
			kv.data[k] = uint64(i)
			kv.mu.Unlock()
		}
	}
}
