// Package trace is a flight-recorder tracing layer for the OLL lock
// stack, modeled on the Go runtime tracer: each (lock, proc) pair owns
// a cache-line-padded lock-free ring buffer of fixed-width binary
// events, written by exactly one goroutine and overwriting the oldest
// events when full, so a recording is always the recent past and never
// blocks the locks.
//
// Where internal/obs answers "how often" (counters) and "how long in
// aggregate" (histograms), trace answers "which phase of which
// acquisition stalled, and in what order": every event carries a
// monotonic nanosecond timestamp, the lock, the proc, an event kind,
// and a phase/argument word, so consumers can reconstruct per-proc
// phase timelines (export.go), fold wait time by phase (profile.go),
// or watch for stuck waiters live (watchdog.go).
//
// The instrumentation discipline is the same as obs.Local: every
// emission method nil-checks its receiver first, so a lock built
// without WithTrace pays one predictable branch per site and zero
// allocations — trace-off must be free enough to leave compiled in
// everywhere.
package trace

import (
	"io"
	"sort"
	"sync"
	"time"
)

// Kind identifies what happened. Kinds are instants except PhaseBegin/
// PhaseEnd, which open and close a phase span on the emitting proc's
// timeline; the Read/WriteAcquired kinds also close whatever phase is
// open (the acquisition the phase belonged to is over).
type Kind uint8

const (
	KindNone       Kind = iota
	KindPhaseBegin      // phase span opens (Phase says which)
	KindPhaseEnd        // phase span closes without an acquisition (e.g. revoke done)

	KindReadAcquired  // read ownership gained; Arg packs latency + route
	KindReadReleased  // read ownership released
	KindWriteAcquired // write ownership gained; Arg packs latency + route
	KindWriteReleased // write ownership released

	KindArriveFail   // indicator arrival failed (closed); the slow path begins
	KindQueueEnqueue // GOLL wait-queue enqueue; Arg: 0 reader, 1 writer
	KindGroupEnqueue // FOLL/ROLL fresh reader node enqueued at the tail
	KindOvertake     // ROLL reader joined a non-tail waiting group
	KindHintHit      // ROLL lastReader hint led straight to a joinable node
	KindHintMiss     // ROLL lastReader hint was stale; backward search ran

	KindIndClose // indicator open -> closed (writer blocks new readers)
	KindIndOpen  // indicator reopened; Arg = direct arrivals granted
	KindIndDrain // closed indicator's surplus hit zero; emitter must hand off
	KindIndSeal  // rind.Sharded slot seal sweep; Arg = close epoch

	KindHandoff // releasing thread hands ownership on; Arg packs batch size + kind

	KindBravoRecheckFail // BRAVO published slot invalidated by the re-check
	KindBravoRevoke      // BRAVO revocation scan finished; Arg = slots revoked

	KindStall // watchdog: waiter stuck past threshold; Arg = waited ns

	KindPark   // waiter left the direct-spin path; Arg: 0 channel park, 2 sleep ladder (1 is retired)
	KindUnpark // parked waiter woken by a grant; Arg mirrors the KindPark mechanism

	KindCancel // acquisition abandoned; Arg: 0 timeout (duration/time bound), 1 cancel (context-driven bound)

	NumKinds
)

// kindNames are the dotted wire names (ALGORITHMS.md trace glossary).
var kindNames = [NumKinds]string{
	KindNone:         "none",
	KindPhaseBegin:   "phase.begin",
	KindPhaseEnd:     "phase.end",
	KindReadAcquired: "read.acquired", KindReadReleased: "read.released",
	KindWriteAcquired: "write.acquired", KindWriteReleased: "write.released",
	KindArriveFail:   "arrive.fail",
	KindQueueEnqueue: "queue.enqueue",
	KindGroupEnqueue: "group.enqueue",
	KindOvertake:     "overtake",
	KindHintHit:      "hint.hit", KindHintMiss: "hint.miss",
	KindIndClose: "ind.close", KindIndOpen: "ind.open",
	KindIndDrain: "ind.drain", KindIndSeal: "ind.seal",
	KindHandoff:          "handoff",
	KindBravoRecheckFail: "bravo.recheck.fail",
	KindBravoRevoke:      "bravo.revoke",
	KindStall:            "stall",
	KindPark:             "park",
	KindUnpark:           "unpark",
	KindCancel:           "cancel",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind?"
}

// KindByName resolves a dotted kind name (inverse of Kind.String);
// it returns KindNone, false for unknown names.
func KindByName(name string) (Kind, bool) {
	for k := Kind(1); k < NumKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return KindNone, false
}

// Phase labels a span of a proc's timeline during which it is doing (or
// stuck in) one protocol step of an acquisition.
type Phase uint8

const (
	PhaseNone      Phase = iota
	PhaseArrive          // arrive-start to arrival resolution (slow path only; fast arrivals are folded into the Acquired event's latency)
	PhaseQueueWait       // blocked in a wait queue / behind a queue node
	PhaseSpinWait        // FOLL/ROLL reader spinning on its group node's grant flag
	PhaseDrainWait       // writer waiting for a closed reader group to drain
	PhaseRevoke          // BRAVO writer revoking published fast-path readers
	PhaseReadHeld        // synthesized by consumers from Acquired..Released
	PhaseWriteHeld       // synthesized by consumers from Acquired..Released

	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseNone:      "none",
	PhaseArrive:    "arrive",
	PhaseQueueWait: "queue.wait",
	PhaseSpinWait:  "spin.wait",
	PhaseDrainWait: "drain.wait",
	PhaseRevoke:    "revoke",
	PhaseReadHeld:  "read.held",
	PhaseWriteHeld: "write.held",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "phase?"
}

// Route says where a successful arrival landed; it rides in the low
// bits of an Acquired event's Arg (see PackAcquire).
type Route uint8

const (
	RouteNone      Route = iota
	RouteRoot            // direct arrival at the indicator's central word
	RouteTree            // C-SNZI tree leaf or sharded slot arrival
	RouteDirect          // pre-made direct arrival handed over by a releaser
	RouteJoin            // FOLL/ROLL join of an existing reader group node
	RouteBravoFast       // BRAVO visible-readers-table fast path

	numRoutes
)

var routeNames = [numRoutes]string{"none", "root", "tree", "direct", "join", "bravo"}

func (r Route) String() string {
	if r < numRoutes {
		return routeNames[r]
	}
	return "route?"
}

// PackAcquire packs an acquisition latency and arrival route into the
// Arg word of a Read/WriteAcquired event. Latencies are clamped to 60
// bits (36 years); negative latencies (clock retreat can't happen on a
// monotonic clock, but belt and braces) clamp to zero.
func PackAcquire(latency int64, r Route) uint64 {
	if latency < 0 {
		latency = 0
	}
	return uint64(latency)<<4 | uint64(r&0xf)
}

// PackHandoff packs a hand-off batch's size and kind into the Arg word
// of a KindHandoff event (size<<1 | writer bit).
func PackHandoff(count int, writer bool) uint64 {
	w := uint64(0)
	if writer {
		w = 1
	}
	return uint64(count)<<1 | w
}

// Event is one decoded trace event. The Arg word is kind-specific; for
// Acquired kinds use Latency/Route.
type Event struct {
	Ts    int64 // nanoseconds since the Tracer's epoch
	Arg   uint64
	Proc  int32
	Lock  uint16
	Kind  Kind
	Phase Phase
}

// Latency returns the packed acquisition latency of an Acquired event
// (0 for other kinds' Args, which simply decode meaninglessly).
func (e Event) Latency() int64 { return int64(e.Arg >> 4) }

// Route returns the packed arrival route of an Acquired event.
func (e Event) Route() Route { return Route(e.Arg & 0xf) }

// StateDumper is implemented by locks (and indicator wrappers) that can
// describe their live wait-queue/indicator state for a watchdog
// post-mortem dump. Implementations must be safe to call from a
// goroutine that holds no acquisition.
type StateDumper interface {
	DumpLockState(w io.Writer)
}

// Tracer owns a recording: the epoch all timestamps are relative to,
// the lock-name registry, and every per-proc ring created under it.
// Create one with New, hand out per-lock handles with Register, and
// read the recording back with Snapshot.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	perProc int // ring capacity (events) per (lock, proc) pair
	locks   []lockEntry
	locals  []*Local
}

type lockEntry struct {
	name    string
	dumpers []StateDumper
}

// DefaultEventsPerProc is the default ring capacity (events per lock
// per proc): 8192 events x 24 bytes = 192 KiB per proc — roughly the
// flight-recorder window the Go runtime tracer keeps per P.
const DefaultEventsPerProc = 8192

// New returns an empty Tracer recording into rings of eventsPerProc
// events (rounded up to a power of two; <= 0 selects
// DefaultEventsPerProc).
func New(eventsPerProc int) *Tracer {
	if eventsPerProc <= 0 {
		eventsPerProc = DefaultEventsPerProc
	}
	cap := 1
	for cap < eventsPerProc {
		cap <<= 1
	}
	return &Tracer{epoch: time.Now(), perProc: cap}
}

// Now returns the current timestamp (nanoseconds since the epoch) on
// the tracer's clock. A nil Tracer reads as time zero.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// now is Now without the nil guard, for callers holding a live tracer:
// the guard's few nodes are what keeps lockcore.ProcInstr.Now within
// the inlining budget.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Register adds a lock to the recording under name and returns its
// handle. A nil Tracer returns a nil handle, which propagates the
// nil-off discipline to every Local created from it.
func (t *Tracer) Register(name string) *LockTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.locks)
	if id > int(^uint16(0)) {
		panic("trace: too many locks registered")
	}
	t.locks = append(t.locks, lockEntry{name: name})
	return &LockTrace{tr: t, id: uint16(id)}
}

// LockName resolves a registered lock id to its name.
func (t *Tracer) LockName(id uint16) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.locks) {
		return t.locks[id].name
	}
	return "lock?"
}

// Snapshot drains a consistent copy of every ring, merged and sorted by
// timestamp. Emitters keep running; events overwritten mid-copy are
// discarded rather than returned torn (see ring.snapshot). Snapshot is
// a cold path and allocates freely.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	locals := append([]*Local(nil), t.locals...)
	t.mu.Unlock()
	var out []Event
	for _, l := range locals {
		out = l.ring.snapshot(out)
	}
	sortEvents(out)
	return out
}

// sortEvents orders events by timestamp with proc as a deterministic
// tie-break; the sort is stable so ties within one ring keep their
// emission order (snapshot appends in ring order).
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ts != evs[j].Ts {
			return evs[i].Ts < evs[j].Ts
		}
		return evs[i].Proc < evs[j].Proc
	})
}

// AddDumper attaches a live-state dumper to the lock for watchdog
// post-mortems. Multiple dumpers compose (the facade registers the
// BRAVO wrapper and its base lock separately). Nil-safe.
func (lt *LockTrace) AddDumper(d StateDumper) {
	if lt == nil || d == nil {
		return
	}
	lt.tr.mu.Lock()
	lt.tr.locks[lt.id].dumpers = append(lt.tr.locks[lt.id].dumpers, d)
	lt.tr.mu.Unlock()
}

// dumpersOf returns a copy of the lock's dumpers.
func (t *Tracer) dumpersOf(id uint16) []StateDumper {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.locks) {
		return nil
	}
	return append([]StateDumper(nil), t.locks[id].dumpers...)
}

// LockTrace is a per-lock handle: the lock's id in the recording plus
// the tracer. Locks hold one and mint a Local per Proc.
type LockTrace struct {
	tr *Tracer
	id uint16
}

// Tracer returns the owning tracer (nil for a nil handle).
func (lt *LockTrace) Tracer() *Tracer {
	if lt == nil {
		return nil
	}
	return lt.tr
}

// NewLocal mints the single-writer emission handle for proc. A nil
// LockTrace returns nil: every Local method nil-checks, so
// uninstrumented procs pay one branch per site.
func (lt *LockTrace) NewLocal(proc int) *Local {
	if lt == nil {
		return nil
	}
	l := &Local{tr: lt.tr, lock: lt.id, proc: int32(proc)}
	l.ring.init(lt.tr.perProc)
	lt.tr.mu.Lock()
	lt.tr.locals = append(lt.tr.locals, l)
	lt.tr.mu.Unlock()
	return l
}
