// Package obs is the sharded zero-overhead-off instrumentation
// substrate for the lock stack: striped, cache-line-padded event
// counters and log-bucketed latency histograms that make the paper's
// mechanisms (C-SNZI tree arrivals, FOLL reader-group sharing, ROLL
// overtakes, BRAVO bias dynamics) observable in a live lock without
// destroying the scalability being measured.
//
// The design applies the paper's own trick to the measurement layer:
// each counter is a stripe of per-slot padded cells (internal/atomicx
// PaddedUint64), hashed by the caller's per-goroutine proc id, so
// concurrent increments land on disjoint cache lines and are only
// merged when a Snapshot is taken. An uninstrumented lock holds a nil
// *Stats; every hot-path method is a nil-guarded thin wrapper small
// enough for the compiler to inline, so the stats-off cost is one
// predictable branch and zero allocations:
//
//	var s *obs.Stats            // nil: instrumentation off
//	s.Inc(obs.CSNZIArriveRoot, id)  // compiles to a compare + branch
//
// Counter identities are a closed enum (Event) with stable dotted
// string names ("csnzi.arrive.root", "bravo.revoke", ...). The
// simulator ports (internal/sim/simlock) share the same enum, so real
// and simulated runs emit comparable Snapshots by construction; a test
// asserts the name sets match per lock kind.
//
// A Stats is created with the scopes (name prefixes) relevant to one
// lock kind; Snapshot reports exactly the counters in scope, zero or
// not, so "which counters can this lock emit" is part of the contract.
//
// Striping keeps concurrent writers apart, but each Inc is still an
// atomic RMW — a measurable tax on read paths that are themselves only
// a few atomics long. Hot paths therefore count through a per-proc
// Local (see local.go): plain stores into a proc-owned buffer, folded
// into the striped cells every FlushEvery events, at the documented
// cost of bounded Snapshot staleness. The deterministic simulator
// ports keep using Stats directly so their counters stay exact.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ollock/internal/atomicx"
)

// Event identifies one countable lock-stack event. The enum is closed:
// every event any lock can emit is declared here, which is what lets
// real and simulated locks share counter names.
type Event uint8

// Lock-stack events. The glossary in ALGORITHMS.md maps each to the
// paper mechanism it witnesses.
const (
	// CSNZIArriveRoot counts reader arrivals taken directly at the
	// C-SNZI root (the §5.1 uncontended fast path).
	CSNZIArriveRoot Event = iota
	// CSNZIArriveTree counts reader arrivals diverted to the leaf tree
	// (the shouldArriveAtTree policy firing, §2.2/§5.1).
	CSNZIArriveTree
	// CSNZIArriveFail counts arrivals that failed because the C-SNZI
	// was closed (reader met a writer, Figure 1 semantics).
	CSNZIArriveFail
	// CSNZICASRetry counts failed root CASes inside Arrive (the
	// contention signal that drives the arrival policy).
	CSNZICASRetry
	// CSNZIClose counts successful open->closed transitions (writer
	// acquisitions and FOLL/ROLL group shutdowns).
	CSNZIClose
	// CSNZIOpen counts closed->open transitions, including
	// OpenWithArrivals hand-offs.
	CSNZIOpen

	// GOLLHandoff counts direct ownership hand-offs to a waiting batch
	// (releaser-wakes-owner, §3.1).
	GOLLHandoff
	// GOLLUpgradeAttempt counts TryUpgrade calls (§3.2.1).
	GOLLUpgradeAttempt
	// GOLLUpgradeFail counts TryUpgrade calls that failed (another
	// arrival existed).
	GOLLUpgradeFail
	// GOLLDowngrade counts write->read downgrades.
	GOLLDowngrade
	// GOLLTimeout counts GOLL acquisitions abandoned on deadline
	// expiry (RLockFor/LockFor returning false).
	GOLLTimeout
	// GOLLCancel counts GOLL acquisitions abandoned on context
	// cancellation (RLockCtx/LockCtx observing ctx.Done).
	GOLLCancel

	// FOLLReadJoin counts readers that joined an existing reader
	// node's group (the C-SNZI sharing of §4.2: no tail write).
	FOLLReadJoin
	// FOLLReadEnqueue counts readers that enqueued a fresh reader node
	// (first reader of a group).
	FOLLReadEnqueue
	// FOLLNodeRecycle counts reader nodes returned to the ring pool
	// (§4.2.1 availability accounting).
	FOLLNodeRecycle
	// FOLLTimeout counts FOLL acquisitions abandoned on deadline
	// expiry.
	FOLLTimeout
	// FOLLCancel counts FOLL acquisitions abandoned on context
	// cancellation.
	FOLLCancel

	// ROLLReadJoin counts readers that joined the reader node at the
	// tail (FOLL-style join, no overtaking involved).
	ROLLReadJoin
	// ROLLReadEnqueue counts readers that enqueued a fresh reader
	// node.
	ROLLReadEnqueue
	// ROLLNodeRecycle counts reader nodes returned to the ring pool.
	ROLLNodeRecycle
	// ROLLOvertake counts readers that joined a *waiting* group,
	// overtaking the writers queued between it and the tail (§4.3).
	ROLLOvertake
	// ROLLHintHit counts reads that joined via the lastReader hint
	// without any backward search (§4.3's optimization).
	ROLLHintHit
	// ROLLHintMiss counts reads that found a stale hint (set but not
	// joinable) and had to fall back to the search/enqueue path.
	ROLLHintMiss
	// ROLLTimeout counts ROLL acquisitions abandoned on deadline
	// expiry.
	ROLLTimeout
	// ROLLCancel counts ROLL acquisitions abandoned on context
	// cancellation.
	ROLLCancel

	// BravoFastRead counts read acquisitions that took the biased
	// visible-readers fast path.
	BravoFastRead
	// BravoSlowRead counts read acquisitions that went through the
	// underlying lock (bias off, or publish failed).
	BravoSlowRead
	// BravoBiasArm counts bias re-arms by the slow-path adaptive
	// policy.
	BravoBiasArm
	// BravoRevoke counts writer-side bias revocations (table scan +
	// reader drain).
	BravoRevoke
	// BravoSlotCollision counts fast-path attempts whose memoized slot
	// was occupied, forcing a probe (table pressure signal).
	BravoSlotCollision
	// BravoRevokeAbort counts revocations abandoned on deadline expiry:
	// the writer re-armed the bias, released the underlying lock, and
	// reported failure (graceful degradation under slow readers).
	BravoRevokeAbort

	// ParkYield counts waits that exhausted their hot-spin budget and
	// escalated to the Gosched ladder (one per wait episode).
	ParkYield
	// ParkPark counts waiters that parked outright — a channel park
	// under the adaptive policy, or a timed-sleep ladder at a
	// condition-wait site.
	ParkPark
	// ParkUnpark counts parked waiters woken by a grant.
	ParkUnpark
	// ParkTimeout counts timed waits that expired before the grant —
	// the park layer's view of every abandoned acquisition above it.
	ParkTimeout

	// NumEvents is the number of declared events (not itself an
	// event).
	NumEvents
)

var eventNames = [NumEvents]string{
	CSNZIArriveRoot:    "csnzi.arrive.root",
	CSNZIArriveTree:    "csnzi.arrive.tree",
	CSNZIArriveFail:    "csnzi.arrive.fail",
	CSNZICASRetry:      "csnzi.cas.retry",
	CSNZIClose:         "csnzi.close",
	CSNZIOpen:          "csnzi.open",
	GOLLHandoff:        "goll.handoff",
	GOLLUpgradeAttempt: "goll.upgrade.attempt",
	GOLLUpgradeFail:    "goll.upgrade.fail",
	GOLLDowngrade:      "goll.downgrade",
	GOLLTimeout:        "goll.timeout",
	GOLLCancel:         "goll.cancel",
	FOLLReadJoin:       "foll.read.join",
	FOLLReadEnqueue:    "foll.read.enqueue",
	FOLLNodeRecycle:    "foll.node.recycle",
	FOLLTimeout:        "foll.timeout",
	FOLLCancel:         "foll.cancel",
	ROLLReadJoin:       "roll.read.join",
	ROLLReadEnqueue:    "roll.read.enqueue",
	ROLLNodeRecycle:    "roll.node.recycle",
	ROLLOvertake:       "roll.overtake",
	ROLLHintHit:        "roll.hint.hit",
	ROLLHintMiss:       "roll.hint.miss",
	ROLLTimeout:        "roll.timeout",
	ROLLCancel:         "roll.cancel",
	BravoFastRead:      "bravo.read.fast",
	BravoSlowRead:      "bravo.read.slow",
	BravoBiasArm:       "bravo.bias.arm",
	BravoRevoke:        "bravo.revoke",
	BravoSlotCollision: "bravo.slot.collision",
	BravoRevokeAbort:   "bravo.revoke.abort",
	ParkYield:          "park.yield",
	ParkPark:           "park.park",
	ParkUnpark:         "park.unpark",
	ParkTimeout:        "park.timeout",
}

// String returns the event's stable dotted name.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("obs.Event(%d)", uint8(e))
}

// Scope returns the event's scope — the dotted name's first segment
// ("csnzi", "goll", "foll", "roll", "bravo").
func (e Event) Scope() string {
	name := e.String()
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// HistID identifies one latency histogram.
type HistID uint8

// Histograms. Real locks record nanoseconds; the simulator ports
// record virtual cycles — same buckets, different unit (the Snapshot
// carries only the shape).
const (
	// BravoDrainWait is the writer-side revocation drain wait: the
	// time one revocation spent scanning the visible-readers table and
	// waiting for published readers to leave.
	BravoDrainWait HistID = iota

	// GOLLWriteWait is the full write-acquire latency of the GOLL lock
	// (call entry to ownership), recorded once per write acquisition.
	// The metrics sampler's writer-starvation rule watches its windowed
	// p99.
	GOLLWriteWait
	// FOLLWriteWait is the FOLL write-acquire latency.
	FOLLWriteWait
	// ROLLWriteWait is the ROLL write-acquire latency — the histogram
	// that quantifies what reader preference costs writers.
	ROLLWriteWait

	// ParkWait is the time a waiter spent descheduled: from the park
	// decision (channel park or timed-sleep ladder) to the wake. The
	// park.park counter says how often waiters parked; this says for
	// how long — the pair separates a park storm (huge count, tiny
	// waits) from honest long waits.
	ParkWait

	// NumHists is the number of declared histograms.
	NumHists
)

var histNames = [NumHists]string{
	BravoDrainWait: "bravo.drain.wait",
	GOLLWriteWait:  "goll.write.wait",
	FOLLWriteWait:  "foll.write.wait",
	ROLLWriteWait:  "roll.write.wait",
	ParkWait:       "park.wait",
}

// String returns the histogram's stable dotted name.
func (h HistID) String() string {
	if h < NumHists {
		return histNames[h]
	}
	return fmt.Sprintf("obs.HistID(%d)", uint8(h))
}

// Scope returns the histogram's scope (first name segment).
func (h HistID) Scope() string {
	name := h.String()
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// maxStripes caps the stripe count; beyond ~32 slots the merge cost
// and footprint grow without contention benefit (slots are hashed by
// proc id, and collisions only cost sharing of one padded line).
const maxStripes = 32

// Stats is one lock's instrumentation block. A nil *Stats is valid
// and means "instrumentation off": every method on a nil receiver is
// an inlined no-op. Create with New.
type Stats struct {
	name    string
	stripes int
	mask    uint32
	scopeMu sync.RWMutex
	scopes  map[string]bool // nil = every scope; guarded by scopeMu
	cells   []atomicx.PaddedUint64
	hists   []histStripe
}

// histStripe is one stripe of every declared histogram: NumHists
// bucket arrays padded at both ends so stripes never share a cache
// line. Buckets within one stripe may share lines — by design, a
// stripe has a single dominant writer.
type histStripe struct {
	_ atomicx.Pad
	h [NumHists]stripeHist
	_ atomicx.Pad
}

// Option configures New.
type Option func(*Stats)

// WithName sets the stats block's name, used by Snapshot and as the
// block's key in a Registry.
func WithName(name string) Option { return func(s *Stats) { s.name = name } }

// WithStripes sets the number of counter stripes (rounded up to a
// power of two, capped). The default suits the host's parallelism;
// the deterministic simulator uses 1.
func WithStripes(n int) Option { return func(s *Stats) { s.stripes = n } }

// WithScopes restricts the Snapshot to counters whose scope (first
// name segment) is listed. An empty list reports every counter. The
// scopes define which counters a lock kind can emit, so two stats
// blocks with equal scopes produce Snapshots with equal name sets.
func WithScopes(scopes ...string) Option {
	return func(s *Stats) {
		if len(scopes) == 0 {
			return
		}
		s.scopes = make(map[string]bool, len(scopes))
		for _, sc := range scopes {
			s.scopes[sc] = true
		}
	}
}

// New returns an enabled Stats block. All counters start at zero.
func New(opts ...Option) *Stats {
	s := &Stats{stripes: defaultStripes()}
	for _, o := range opts {
		o(s)
	}
	s.stripes = clampPow2(s.stripes)
	s.mask = uint32(s.stripes - 1)
	s.cells = make([]atomicx.PaddedUint64, int(NumEvents)*s.stripes)
	s.hists = make([]histStripe, s.stripes)
	return s
}

func clampPow2(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxStripes {
		n = maxStripes
	}
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// Enabled reports whether instrumentation is on. Use it to gate
// instrumentation whose inputs are themselves expensive to gather
// (e.g. a time.Now pair around a drain wait).
func (s *Stats) Enabled() bool { return s != nil }

// Name returns the stats block's name ("" if unnamed). Nil-safe.
func (s *Stats) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Inc adds 1 to the event's counter on the caller's stripe. id is the
// caller's per-goroutine proc id (any stable small integer); distinct
// ids land on distinct padded cells. A nil receiver is a no-op — this
// wrapper stays within the inlining budget, so the stats-off hot path
// pays one branch.
func (s *Stats) Inc(e Event, id int) {
	if s == nil {
		return
	}
	s.cells[int(e)*s.stripes+int(uint32(id)&s.mask)].Add(1)
}

// Add adds delta to the event's counter on the caller's stripe. Nil
// receivers are no-ops.
func (s *Stats) Add(e Event, id int, delta uint64) {
	if s == nil {
		return
	}
	s.cells[int(e)*s.stripes+int(uint32(id)&s.mask)].Add(delta)
}

// Observe records one latency sample (nanoseconds for real locks,
// virtual cycles for simulated ones) into the histogram's stripe for
// the caller's proc id. Nil receivers are no-ops.
func (s *Stats) Observe(h HistID, id int, v int64) {
	if s == nil {
		return
	}
	s.observe(h, id, v)
}

//go:noinline
func (s *Stats) observe(h HistID, id int, v int64) {
	s.hists[int(uint32(id)&s.mask)].h[h].record(v)
}

// Count merges the event's stripes into one total. Nil-safe.
func (s *Stats) Count(e Event) uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for i := 0; i < s.stripes; i++ {
		total += s.cells[int(e)*s.stripes+i].Load()
	}
	return total
}

// Hist merges the histogram's stripes into one Histogram. Nil
// receivers return an empty histogram.
func (s *Stats) Hist(h HistID) Histogram {
	var out Histogram
	if s == nil {
		return out
	}
	for i := range s.hists {
		s.hists[i].h[h].mergeInto(&out)
	}
	return out
}

// inScope reports whether a counter scope is reported by Snapshot.
// Only the snapshot/report paths consult the scope set, so the RWMutex
// here costs nothing on the lock hot path.
func (s *Stats) inScope(scope string) bool {
	s.scopeMu.RLock()
	ok := s.scopes == nil || s.scopes[scope]
	s.scopeMu.RUnlock()
	return ok
}

// AddScope widens the snapshot scope set. Used by wrappers that adopt
// an existing block (e.g. the BRAVO wrapper over an OLL lock); a nil
// or unrestricted block is left as is. Safe concurrently with
// Snapshot: the scope set is guarded, so a wrapper constructed while
// another goroutine snapshots (e.g. a metrics sampler poll) does not race.
func (s *Stats) AddScope(scope string) {
	if s == nil {
		return
	}
	s.scopeMu.Lock()
	if s.scopes != nil {
		s.scopes[scope] = true
	}
	s.scopeMu.Unlock()
}

// Scopes returns the sorted scope list ("" receiver or unrestricted
// block returns nil, meaning all scopes).
func (s *Stats) Scopes() []string {
	if s == nil {
		return nil
	}
	s.scopeMu.RLock()
	defer s.scopeMu.RUnlock()
	if s.scopes == nil {
		return nil
	}
	out := make([]string, 0, len(s.scopes))
	for sc := range s.scopes {
		out = append(out, sc)
	}
	sort.Strings(out)
	return out
}

// HistSnapshot is the merged, immutable view of one histogram.
type HistSnapshot struct {
	Count uint64 `json:"count"`
	// Sum is the exact sum of recorded samples (Sum/Count is the mean;
	// the Prometheus exporter emits it as the summary's _sum sample).
	Sum int64 `json:"sum"`
	// P50/P90/P99 are log-bucket midpoint estimates; Max is exact.
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// Snapshot is the merged, immutable view of a Stats block: every
// in-scope counter by name (zero or not — the name set is the lock
// kind's contract), and every in-scope histogram summarized.
type Snapshot struct {
	Name     string                  `json:"name,omitempty"`
	Counters map[string]uint64       `json:"counters"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Snapshot merges all stripes into an immutable view. It is safe to
// call concurrently with ongoing increments; the result is a
// consistent-enough point-in-time merge (counters are read one cell
// at a time, as in any striped counter design). A nil receiver yields
// an empty snapshot.
func (s *Stats) Snapshot() Snapshot {
	out := Snapshot{Counters: map[string]uint64{}}
	if s == nil {
		return out
	}
	out.Name = s.name
	for e := Event(0); e < NumEvents; e++ {
		if s.inScope(e.Scope()) {
			out.Counters[e.String()] = s.Count(e)
		}
	}
	for h := HistID(0); h < NumHists; h++ {
		if !s.inScope(h.Scope()) {
			continue
		}
		m := s.Hist(h)
		if out.Hists == nil {
			out.Hists = map[string]HistSnapshot{}
		}
		out.Hists[h.String()] = HistSnapshot{
			Count: m.Count(),
			Sum:   m.Sum(),
			P50:   m.Quantile(0.50),
			P90:   m.Quantile(0.90),
			P99:   m.Quantile(0.99),
			Max:   m.Max(),
		}
	}
	return out
}

// Counter returns the snapshot's value for an event name, zero if
// absent.
func (sn Snapshot) Counter(name string) uint64 { return sn.Counters[name] }

// Names returns the snapshot's counter names, sorted.
func (sn Snapshot) Names() []string {
	out := make([]string, 0, len(sn.Counters))
	for k := range sn.Counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EachCounter calls fn for every in-scope event with its current
// merged total (zero or not — the in-scope set is the lock kind's
// contract, exactly as in Snapshot). Unlike Snapshot it allocates
// nothing, which is what lets the metrics sampler poll every
// registered block at a fixed period without map churn. Nil-safe.
func (s *Stats) EachCounter(fn func(e Event, total uint64)) {
	if s == nil {
		return
	}
	for e := Event(0); e < NumEvents; e++ {
		if s.inScope(e.Scope()) {
			fn(e, s.Count(e))
		}
	}
}

// EachHist calls fn for every in-scope histogram with its merged
// point-in-time copy. Nil-safe.
func (s *Stats) EachHist(fn func(h HistID, hist Histogram)) {
	if s == nil {
		return
	}
	for h := HistID(0); h < NumHists; h++ {
		if s.inScope(h.Scope()) {
			fn(h, s.Hist(h))
		}
	}
}

// AllEventNames returns the dotted names of every declared event,
// sorted — the counter-name universe shared by real and simulated
// locks.
func AllEventNames() []string {
	out := make([]string, 0, NumEvents)
	for e := Event(0); e < NumEvents; e++ {
		out = append(out, e.String())
	}
	sort.Strings(out)
	return out
}

// AllHistNames returns the dotted names of every declared histogram,
// sorted.
func AllHistNames() []string {
	out := make([]string, 0, NumHists)
	for h := HistID(0); h < NumHists; h++ {
		out = append(out, h.String())
	}
	sort.Strings(out)
	return out
}
