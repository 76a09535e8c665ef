// Package prof is the call-site lock profiler: a sampling layer that
// answers the question neither the obs counters ("how often") nor the
// flight recorder ("which phase") can — *which code* is paying for the
// contention. On sampled slow-path acquisitions it captures the caller
// stack via runtime.Callers and accumulates per-stack records of
// contention counts, blocked nanoseconds, hold counts, and held
// nanoseconds in a striped fixed-size stack table, exactly the shape of
// the Go runtime's mutex profile but attributed per lock.
//
// Sampling follows runtime.SetMutexProfileFraction: each per-proc
// handle counts acquisitions and elects every rate-th one, so the
// profile-off fast path is one predictable nil-check branch and the
// sampled-miss path (counter bumped, sample not chosen) is one
// increment and one compare — neither allocates. Only an elected
// acquisition reads the clock and walks the stack, and even that path
// is allocation-free (the PC buffer is a fixed-size stack array).
// Values exported by Profile are scaled by the sampling rate, so a
// 1-in-rate profile estimates the full population the same way the
// runtime's mutex profile does.
//
// Consumers: WriteProfile encodes pprof profile.proto (pproto.go),
// WriteFolded emits flamegraph folded-stack text (folded.go), Parse
// round-trips the protobuf for validation (decode.go), and HottestSite
// reduces a lock's records to the single worst call site for the
// doctor's findings.
package prof

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// MaxStackDepth bounds captured stacks (the runtime's mutex profile
	// uses 32 as well). Deeper stacks are truncated at the root end.
	MaxStackDepth = 32
	// DefaultRate samples one acquisition in eight per proc — cheap
	// enough to leave on, dense enough to profile a contended lock in
	// seconds.
	DefaultRate = 8

	// The stack table: numShards shards of shardSlots open-addressed
	// records each (4096 records total, far above the distinct-stack
	// count of any realistic lock workload). A shard's records never
	// move and are never deleted, so a *record stays valid for the
	// profiler's lifetime — which is what lets a Local hold its pending
	// hold sample as a bare pointer.
	numShards  = 16
	shardSlots = 256
	// maxProbe bounds the linear probe before a sample is dropped
	// (counted in Dropped) rather than degrading into a table scan.
	maxProbe = 32
)

// record is one (lock, stack) row of the table. depth == 0 marks a
// free slot (captured stacks always have at least one frame).
type record struct {
	hash        uint64
	contentions uint64
	delayNs     uint64
	holds       uint64
	heldNs      uint64
	depth       int32
	lock        uint16
	pcs         [MaxStackDepth]uintptr
}

type shard struct {
	mu   sync.Mutex
	recs [shardSlots]record
}

// Profiler owns a profile: the sampling rate, the epoch its timestamps
// are relative to, the lock-name registry, and the striped stack
// table. Create one with New, hand out per-lock handles with Register.
type Profiler struct {
	rate    int64
	epoch   time.Time
	dropped atomic.Uint64

	mu    sync.Mutex
	locks []string

	shards [numShards]shard
}

// New returns an empty profiler sampling one acquisition in rate per
// proc (rate <= 0 selects DefaultRate; rate 1 records every
// acquisition).
func New(rate int) *Profiler {
	if rate <= 0 {
		rate = DefaultRate
	}
	return &Profiler{rate: int64(rate), epoch: time.Now()}
}

// Rate returns the sampling rate (1 = every acquisition).
func (p *Profiler) Rate() int {
	if p == nil {
		return 0
	}
	return int(p.rate)
}

// Dropped reports how many samples were discarded because their
// shard's probe window was full.
func (p *Profiler) Dropped() uint64 {
	if p == nil {
		return 0
	}
	return p.dropped.Load()
}

// now reads the profile clock: nanoseconds since the epoch, never zero
// (zero is the "not sampled" sentinel Tick returns).
func (p *Profiler) now() int64 {
	ts := int64(time.Since(p.epoch))
	if ts <= 0 {
		ts = 1
	}
	return ts
}

// Register adds a lock to the profile under name and returns its
// handle. A nil Profiler returns a nil handle, which propagates the
// nil-off discipline to every Local created from it.
func (p *Profiler) Register(name string) *LockProf {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	id := len(p.locks)
	if id > int(^uint16(0)) {
		panic("prof: too many locks registered")
	}
	p.locks = append(p.locks, name)
	return &LockProf{p: p, id: uint16(id)}
}

// lockName resolves a registered lock id.
func (p *Profiler) lockName(id uint16) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) < len(p.locks) {
		return p.locks[id]
	}
	return "lock?"
}

// LockProf is one lock's registration with a Profiler; locks hold one
// and mint a Local per Proc.
type LockProf struct {
	p  *Profiler
	id uint16
}

// Profiler returns the owning profiler (nil for a nil handle).
func (lp *LockProf) Profiler() *Profiler {
	if lp == nil {
		return nil
	}
	return lp.p
}

// NewLocal mints the per-proc sampling handle. A nil LockProf returns
// nil; every Local method nil-checks, so unprofiled procs pay one
// branch per site.
func (lp *LockProf) NewLocal() *Local {
	if lp == nil {
		return nil
	}
	return &Local{p: lp.p, lock: lp.id, tick: lp.p.rate}
}

// Local is a single-goroutine sampling handle: the per-proc election
// counter plus the pending hold sample armed by Acquired and closed by
// Released. A Proc is single-goroutine by contract, so no field needs
// atomics.
type Local struct {
	p         *Profiler
	holdRec   *record
	holdShard *shard
	holdStart int64
	tick      int64
	lock      uint16
}

// Tick advances the sampling pacer at the top of an acquisition and
// returns a nonzero profile-clock timestamp when this acquisition is
// elected for sampling, 0 otherwise (including when profiling is off).
// The returned value is threaded to Acquired, whose work is entirely
// gated on it.
func (lo *Local) Tick() (ts int64) {
	if lo != nil {
		if lo.tick--; lo.tick <= 0 {
			ts = lo.tickElect()
		}
	}
	return ts
}

// tickElect is the elected-sample tail of Tick, kept out of line so
// Tick stays within the inlining budget of the lock fast paths.
func (lo *Local) tickElect() int64 {
	lo.tick = lo.p.rate
	return lo.p.now()
}

// Acquired completes a sampled acquisition: it captures the caller
// stack, charges blocked time since ts to the call site when contended,
// and arms the hold sample that Released will close. A zero ts (not
// sampled, or profiling off) makes it a no-op.
func (lo *Local) Acquired(ts int64, contended bool) {
	if lo == nil || ts == 0 {
		return
	}
	lo.capture(ts, contended, true)
}

// Contended records a sampled contention event without arming a hold
// sample. The BRAVO wrapper charges revocation cost to writer call
// sites this way while the base lock owns the hold accounting.
func (lo *Local) Contended(ts int64) {
	if lo == nil || ts == 0 {
		return
	}
	lo.capture(ts, true, false)
}

// Released closes the pending hold sample, if any.
func (lo *Local) Released() {
	if lo == nil || lo.holdRec == nil {
		return
	}
	lo.releaseSlow()
}

// capture walks the caller stack and merges the sample into the table.
// The skip count lands on the lock method itself (the profile's leaf,
// like sync.(*Mutex).Lock in the runtime's mutex profile): frame 1 is
// capture, 2 the Acquired/Contended wrapper, 3 the lockcore ProcInstr
// helper, 4 the lock method. Inlined frames count as logical frames
// (Go >= 1.12), so the skip is stable whether or not the thin wrappers
// inline; encode-time pruning catches any residue.
func (lo *Local) capture(ts int64, contended, armHold bool) {
	var pcs [MaxStackDepth]uintptr
	n := runtime.Callers(4, pcs[:])
	if n == 0 {
		return
	}
	now := lo.p.now()
	var blocked uint64
	if contended && now > ts {
		blocked = uint64(now - ts)
	}
	rec, sh := lo.p.merge(lo.lock, &pcs, n, contended, blocked)
	if armHold && rec != nil {
		lo.holdRec, lo.holdShard, lo.holdStart = rec, sh, now
	}
}

func (lo *Local) releaseSlow() {
	rec, sh := lo.holdRec, lo.holdShard
	lo.holdRec, lo.holdShard = nil, nil
	held := lo.p.now() - lo.holdStart
	if held < 0 {
		held = 0
	}
	sh.mu.Lock()
	rec.holds++
	rec.heldNs += uint64(held)
	sh.mu.Unlock()
}

// merge folds one sample into the (lock, stack) record, claiming a
// free slot on first sight. A full probe window drops the sample (the
// profile under-reports rather than growing or scanning).
func (p *Profiler) merge(lock uint16, pcs *[MaxStackDepth]uintptr, n int, contended bool, blocked uint64) (*record, *shard) {
	h := hashStack(lock, pcs[:n])
	sh := &p.shards[h%numShards]
	// High bits pick the slot so shard and slot selection stay
	// independent.
	base := h >> 32
	sh.mu.Lock()
	var rec *record
	for i := uint64(0); i < maxProbe; i++ {
		r := &sh.recs[(base+i)%shardSlots]
		if r.depth == 0 {
			r.hash, r.lock, r.depth = h, lock, int32(n)
			copy(r.pcs[:], pcs[:n])
			rec = r
			break
		}
		if r.hash == h && r.lock == lock && r.depth == int32(n) {
			rec = r
			break
		}
	}
	if rec == nil {
		sh.mu.Unlock()
		p.dropped.Add(1)
		return nil, nil
	}
	if contended {
		rec.contentions++
		rec.delayNs += blocked
	}
	sh.mu.Unlock()
	return rec, sh
}

// hashStack is FNV-1a over the lock id and the PC slice.
func hashStack(lock uint16, pcs []uintptr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(lock)) * prime64
	for _, pc := range pcs {
		h = (h ^ uint64(pc)) * prime64
	}
	return h
}

// Record is one call stack's accumulated profile values, scaled by the
// sampling rate (each sampled event stands for rate events, the
// runtime mutex-profile estimator).
type Record struct {
	// Lock is the registered lock name.
	Lock string
	// Stack is the captured caller stack, leaf (the lock method) first.
	Stack []uintptr
	// Contentions counts slow-path acquisitions; DelayNs is their
	// accumulated blocked time.
	Contentions uint64
	DelayNs     uint64
	// Holds counts sampled acquisitions (fast or slow); HeldNs is their
	// accumulated ownership time.
	Holds  uint64
	HeldNs uint64
}

// Snapshot is a point-in-time copy of a profiler's records, or the
// difference of two (see Sub).
type Snapshot struct {
	// Rate is the sampling rate the values are already scaled by.
	Rate int
	// TimeNanos is the wall-clock time of the snapshot (Unix
	// nanoseconds); DurationNanos is nonzero only for delta snapshots.
	TimeNanos     int64
	DurationNanos int64
	// Dropped counts samples discarded on full probe windows.
	Dropped uint64
	// Records are ordered by contention delay, then held time,
	// descending (deterministic for equal values via the stack bytes).
	Records []Record
}

// Profile snapshots the table. Values are scaled by the sampling rate;
// a nil Profiler yields an empty snapshot.
func (p *Profiler) Profile() *Snapshot {
	if p == nil {
		return &Snapshot{Rate: 1, TimeNanos: time.Now().UnixNano()}
	}
	s := &Snapshot{
		Rate:      int(p.rate),
		TimeNanos: time.Now().UnixNano(),
		Dropped:   p.dropped.Load(),
	}
	rate := uint64(p.rate)
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for ri := range sh.recs {
			r := &sh.recs[ri]
			if r.depth == 0 {
				continue
			}
			s.Records = append(s.Records, Record{
				Lock:        p.lockName(r.lock),
				Stack:       append([]uintptr(nil), r.pcs[:r.depth]...),
				Contentions: r.contentions * rate,
				DelayNs:     r.delayNs * rate,
				Holds:       r.holds * rate,
				HeldNs:      r.heldNs * rate,
			})
		}
		sh.mu.Unlock()
	}
	sortRecords(s.Records)
	return s
}

func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].DelayNs != recs[j].DelayNs {
			return recs[i].DelayNs > recs[j].DelayNs
		}
		if recs[i].HeldNs != recs[j].HeldNs {
			return recs[i].HeldNs > recs[j].HeldNs
		}
		if recs[i].Lock != recs[j].Lock {
			return recs[i].Lock < recs[j].Lock
		}
		return stackKey(recs[i].Stack) < stackKey(recs[j].Stack)
	})
}

// stackKey renders a stack as a comparable map key (cold paths only).
func stackKey(stack []uintptr) string {
	var b strings.Builder
	for _, pc := range stack {
		b.WriteByte(byte(pc))
		b.WriteByte(byte(pc >> 8))
		b.WriteByte(byte(pc >> 16))
		b.WriteByte(byte(pc >> 24))
		b.WriteByte(byte(pc >> 32))
		b.WriteByte(byte(pc >> 40))
		b.WriteByte(byte(pc >> 48))
		b.WriteByte(byte(pc >> 56))
	}
	return b.String()
}

// Sub returns the delta s - old: per-(lock, stack) value differences,
// dropping rows that saw no activity in between. DurationNanos is the
// wall time between the snapshots. Both snapshots must come from the
// same profiler (same rate, cumulative values).
func (s *Snapshot) Sub(old *Snapshot) *Snapshot {
	type key struct {
		lock  string
		stack string
	}
	prev := make(map[key]Record, len(old.Records))
	for _, r := range old.Records {
		prev[key{r.Lock, stackKey(r.Stack)}] = r
	}
	out := &Snapshot{
		Rate:          s.Rate,
		TimeNanos:     s.TimeNanos,
		DurationNanos: s.TimeNanos - old.TimeNanos,
		Dropped:       monus(s.Dropped, old.Dropped),
	}
	for _, r := range s.Records {
		if o, ok := prev[key{r.Lock, stackKey(r.Stack)}]; ok {
			r.Contentions = monus(r.Contentions, o.Contentions)
			r.DelayNs = monus(r.DelayNs, o.DelayNs)
			r.Holds = monus(r.Holds, o.Holds)
			r.HeldNs = monus(r.HeldNs, o.HeldNs)
		}
		if r.Contentions == 0 && r.DelayNs == 0 && r.Holds == 0 && r.HeldNs == 0 {
			continue
		}
		out.Records = append(out.Records, r)
	}
	sortRecords(out.Records)
	return out
}

func monus(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Site is one symbolized call site with its contention totals.
type Site struct {
	// Func/File/Line locate the first non-internal caller frame — the
	// user code that asked for the lock, not the lock method itself.
	Func string
	File string
	Line int
	// Contentions and DelayNs are the owning record's (rate-scaled)
	// contention totals.
	Contentions uint64
	DelayNs     uint64
}

// HottestSite returns the call site with the greatest accumulated
// contention delay for the named lock (empty name matches any lock);
// ok is false when no contention has been recorded.
func (p *Profiler) HottestSite(lock string) (Site, bool) {
	if p == nil {
		return Site{}, false
	}
	return p.Profile().HottestSite(lock)
}

// HottestSite is the snapshot form of Profiler.HottestSite.
func (s *Snapshot) HottestSite(lock string) (Site, bool) {
	var best *Record
	for i := range s.Records {
		r := &s.Records[i]
		if lock != "" && r.Lock != lock {
			continue
		}
		if r.Contentions == 0 {
			continue
		}
		if best == nil || r.DelayNs > best.DelayNs {
			best = r
		}
	}
	if best == nil {
		return Site{}, false
	}
	return best.Site(), true
}

// Site symbolizes the record's caller site — the first frame outside
// this module's internal packages — and pairs it with the record's
// (rate-scaled) contention totals.
func (r *Record) Site() Site {
	fn, file, line := callerSite(r.Stack)
	return Site{
		Func: fn, File: file, Line: line,
		Contentions: r.Contentions, DelayNs: r.DelayNs,
	}
}

// callerSite symbolizes the first frame outside this module's internal
// packages — the user call site. Falls back to the leaf frame when the
// whole stack is internal (a test inside internal/, say).
func callerSite(stack []uintptr) (fn, file string, line int) {
	if len(stack) == 0 {
		return "?", "", 0
	}
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if f.Function != "" && fn == "" {
			fn, file, line = f.Function, f.File, f.Line // leaf fallback
		}
		if f.Function != "" && !strings.HasPrefix(f.Function, "ollock/internal/") {
			return f.Function, f.File, f.Line
		}
		if !more {
			return fn, file, line
		}
	}
}
