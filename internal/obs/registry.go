package obs

import (
	"fmt"
	"sync"
)

// Registry is an enumerable set of Stats blocks — the handle the
// metrics sampler (internal/metrics) polls. A Registry makes a whole
// fleet of blocks visible to machinery — the sampler iterates it every
// period, /debug/ollock and the Prometheus exposition render it — with
// no process-global namespace behind it, so tests can build private
// registries that see nothing but their own locks.
//
// Registration is keyed by the block's name; registering a second
// block under a taken key gets a deterministic "#2"-style suffix
// (several locks of one kind in one registry stay distinguishable),
// and re-registering the *same* block is a no-op. A nil *Registry is
// valid and ignores registrations, so callers can thread an optional
// registry without guarding every call site.
type Registry struct {
	mu    sync.RWMutex
	order []string
	keys  map[*Stats]string
	by    map[string]*Stats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: map[*Stats]string{}, by: map[string]*Stats{}}
}

// Register adds s to the registry and returns the key it was filed
// under: the block's name ("lock" when unnamed), suffixed "#2", "#3",
// ... when the plain key is taken by a different block. Registering a
// block twice returns its existing key. Nil registries and nil blocks
// are no-ops (returning "").
func (r *Registry) Register(s *Stats) string {
	if r == nil || s == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if key, ok := r.keys[s]; ok {
		return key
	}
	base := s.Name()
	if base == "" {
		base = "lock"
	}
	key := base
	for n := 2; r.by[key] != nil; n++ {
		key = fmt.Sprintf("%s#%d", base, n)
	}
	r.keys[s] = key
	r.by[key] = s
	r.order = append(r.order, key)
	return key
}

// Each calls fn for every registered block in registration order.
// Registrations made by fn itself (or concurrently) are not seen by
// the running iteration.
func (r *Registry) Each(fn func(key string, s *Stats)) {
	if r == nil {
		return
	}
	r.mu.RLock()
	order := append([]string(nil), r.order...)
	blocks := make([]*Stats, len(order))
	for i, key := range order {
		blocks[i] = r.by[key]
	}
	r.mu.RUnlock()
	for i, key := range order {
		fn(key, blocks[i])
	}
}

// Get returns the block registered under key, nil if absent.
func (r *Registry) Get(key string) *Stats {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.by[key]
}

// Names returns the registered keys in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Len returns the number of registered blocks.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}
