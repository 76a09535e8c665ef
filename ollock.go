// Package ollock provides scalable reader-writer locks for Go,
// reproducing "Scalable Reader-Writer Locks" (Lev, Luchangco, Olszewski,
// SPAA 2009).
//
// The package exposes the paper's three OLL locks —
//
//   - GOLL: general lock with a Solaris-style wait queue, flexible
//     fairness, and write upgrade/downgrade;
//   - FOLL: FIFO distributed-queue lock (MCS-style) where successive
//     readers share one queue node through a C-SNZI;
//   - ROLL: FOLL with reader preference (readers overtake queued writers
//     to join a waiting reader group);
//
// — along with the closable scalable nonzero indicator (C-SNZI) they are
// built on, and the prior-work baselines the paper compares against
// (KSUH, the MCS fair reader-writer lock, a Solaris-like lock, the
// Hsieh–Weihl lock, and a naive centralized lock).
//
// # Per-goroutine handles
//
// These algorithms keep per-thread state (queue nodes, C-SNZI arrival
// tickets). Go has no thread-local storage, so each participating
// goroutine creates one Proc handle per lock and acquires through it:
//
//	l := ollock.NewROLL(64) // up to 64 participating goroutines
//	p := l.NewProc()        // one per goroutine, create once
//	p.RLock()
//	...read...
//	p.RUnlock()
//
// A Proc supports one outstanding acquisition at a time and must not be
// shared between goroutines while an acquisition is outstanding.
//
// # Choosing a lock
//
// For read-dominated workloads at high core counts, ROLL gives the best
// throughput; FOLL adds strict FIFO fairness at some cost under writer
// pressure; GOLL supports unbounded participants, priorities, and write
// upgrade, at the price of a queue mutex under contention. See
// EXPERIMENTS.md for measured comparisons reproducing the paper's
// Figure 5.
package ollock

import (
	"fmt"

	"ollock/internal/chaos"
	"ollock/internal/foll"
	"ollock/internal/goll"
	"ollock/internal/lockcore"
	"ollock/internal/obs"
	"ollock/internal/park"
	"ollock/internal/prof"
	"ollock/internal/rind"
	"ollock/internal/roll"
	"ollock/internal/trace"
)

// Proc is a per-goroutine handle on a reader-writer lock. RLock/RUnlock
// and Lock/Unlock must be properly paired; one acquisition may be
// outstanding per Proc at a time.
type Proc interface {
	// RLock acquires the lock for reading (shared mode).
	RLock()
	// RUnlock releases a read acquisition.
	RUnlock()
	// Lock acquires the lock for writing (exclusive mode).
	Lock()
	// Unlock releases a write acquisition.
	Unlock()
}

// Upgrader is implemented by Procs that support in-place conversion
// between read and write ownership (the GOLL lock).
type Upgrader interface {
	// TryUpgrade converts a read acquisition into a write acquisition.
	// It succeeds iff the caller is the only holder; on failure the read
	// acquisition is retained.
	TryUpgrade() bool
	// Downgrade converts a write acquisition into a read acquisition
	// without releasing the lock, admitting any waiting readers.
	Downgrade()
}

// Lock is a reader-writer lock instance; create Procs from it, one per
// participating goroutine.
type Lock interface {
	NewProc() Proc
}

// Kind names a lock algorithm.
type Kind string

// Available lock algorithms.
const (
	// GOLL is the general OLL lock (§3 of the paper).
	GOLL Kind = "goll"
	// FOLL is the FIFO distributed-queue OLL lock (§4.2).
	FOLL Kind = "foll"
	// ROLL is the reader-preference distributed-queue OLL lock (§4.3).
	ROLL Kind = "roll"
	// KSUH is the Krieger–Stumm–Unrau–Hanna fair lock (ICPP '93).
	KSUH Kind = "ksuh"
	// MCSRW is the Mellor-Crummey & Scott fair reader-writer lock
	// (PPoPP '91).
	MCSRW Kind = "mcs-rw"
	// Solaris is a user-space version of the Solaris kernel lock.
	Solaris Kind = "solaris"
	// Hsieh is the Hsieh–Weihl private-mutex lock (IPPS '92).
	Hsieh Kind = "hsieh"
	// Central is a naive centralized counter+flag lock.
	Central Kind = "central"
	// KindBravoGOLL is GOLL wrapped with the BRAVO biased reader fast
	// path (equivalent to New(GOLL, n, WithBias())).
	KindBravoGOLL Kind = "bravo-goll"
	// KindBravoROLL is ROLL wrapped with the BRAVO biased reader fast
	// path (equivalent to New(ROLL, n, WithBias())).
	KindBravoROLL Kind = "bravo-roll"
)

// Kinds lists every available lock kind in registry order, OLL locks
// first. The list is derived from the kind registry
// (internal/lockcore) — the single source of truth this facade, the
// command-line tools, and the simulator's lock table all share.
func Kinds() []Kind {
	descs := lockcore.Descs()
	out := make([]Kind, len(descs))
	for i, d := range descs {
		out[i] = Kind(d.Name)
	}
	return out
}

// KindInfo describes one lock kind: its name, a one-line summary, and
// the capability flags that decide which New options it accepts. The
// command-line tools derive their kind enumerations and help text from
// this; the values come from the same registry descriptor that drives
// New's validation, so a capability shown here is exactly a
// combination New accepts.
type KindInfo struct {
	// Kind is the registry name.
	Kind Kind
	// Doc is a one-line description of the algorithm.
	Doc string
	// Indicator reports whether the kind accepts WithIndicator.
	Indicator bool
	// Wait reports whether the kind accepts a non-default WithWait mode.
	Wait bool
	// Upgrade reports whether the kind's Procs implement Upgrader.
	Upgrade bool
	// Priority reports whether the kind's Procs support SetPriority.
	Priority bool
	// BoundedProcs reports whether the kind has a fixed participant
	// capacity: maxProcs must be >= 1 and at most maxProcs Procs may be
	// created.
	BoundedProcs bool
	// Instrumented reports whether WithStats attaches counters to the
	// kind (uninstrumented kinds accept the option but record nothing).
	Instrumented bool
	// Profiled reports whether the kind accepts WithProfile (its
	// acquire/release paths carry call-site profiler hooks).
	Profiled bool
	// Cancellable reports whether the kind's Procs implement
	// DeadlineProc: timed (RLockFor/LockFor) and context-cancellable
	// (RLockCtx/LockCtx) acquisition with safe abandonment.
	Cancellable bool
	// Biased marks the pre-biased wrapper kinds (bravo-*), equivalent
	// to New of the base kind with WithBias.
	Biased bool
	// Figure5 marks the kinds plotted in the paper's Figure 5.
	Figure5 bool
}

func kindInfo(d lockcore.KindDesc) KindInfo {
	return KindInfo{
		Kind:         Kind(d.Name),
		Doc:          d.Doc,
		Indicator:    d.Caps.Indicator,
		Wait:         d.Caps.Wait,
		Upgrade:      d.Caps.Upgrade,
		Priority:     d.Caps.Priority,
		BoundedProcs: d.Caps.BoundedProcs,
		Instrumented: d.Caps.Instrumented,
		Profiled:     d.Caps.Profiled,
		Cancellable:  d.Caps.Cancellable,
		Biased:       d.ForceBias,
		Figure5:      d.Figure5,
	}
}

// KindInfos lists every kind's KindInfo, in Kinds() order.
func KindInfos() []KindInfo {
	descs := lockcore.Descs()
	out := make([]KindInfo, len(descs))
	for i, d := range descs {
		out[i] = kindInfo(d)
	}
	return out
}

// InfoOf returns the KindInfo for a kind; ok is false for unknown
// kinds.
func InfoOf(kind Kind) (KindInfo, bool) {
	d, ok := lockcore.DescOf(string(kind))
	if !ok {
		return KindInfo{}, false
	}
	return kindInfo(d), true
}

// IndicatorKind names a read-indicator implementation (see
// internal/rind): the mechanism through which readers announce and
// retract their presence inside an OLL lock.
type IndicatorKind string

// Available read indicators for the OLL locks.
const (
	// IndicatorCSNZI is the paper's closable scalable nonzero
	// indicator tree — the default.
	IndicatorCSNZI IndicatorKind = "csnzi"
	// IndicatorCentral is a single CAS-able counter word, the
	// degenerate centralized indicator (the ablation floor).
	IndicatorCentral IndicatorKind = "central"
	// IndicatorSharded is the cache-line-padded per-proc
	// ingress/egress counter array behind a closable gate word
	// (BRAVO-style ingress-egress indicator).
	IndicatorSharded IndicatorKind = "sharded"
)

// IndicatorKinds lists every available read indicator.
func IndicatorKinds() []IndicatorKind {
	return []IndicatorKind{IndicatorCSNZI, IndicatorCentral, IndicatorSharded}
}

// WaitMode names a waiting policy (see internal/park): what a blocked
// goroutine does with its CPU between the moment it starts waiting and
// the moment it is granted the lock.
type WaitMode string

// Available wait modes for WithWait.
const (
	// WaitSpin is the paper's §5.1 behavior and the default: waiters
	// spin (with bounded exponential backoff) until granted. Lowest
	// hand-off latency, but every waiter burns a CPU, so throughput
	// collapses when runnable goroutines exceed GOMAXPROCS.
	WaitSpin WaitMode = "spin"
	// WaitAdaptive escalates each wait through a spin → yield → park
	// ladder: a bounded hot spin, a round of runtime.Gosched yields,
	// then parking on a per-waiter channel. Releasers only pay a wake-up
	// when the waiter actually parked (a wake hint in the waiter).
	WaitAdaptive WaitMode = "adaptive"
)

// WaitModes lists every available wait mode.
func WaitModes() []WaitMode { return []WaitMode{WaitSpin, WaitAdaptive} }

// parkMode maps a WaitMode to its internal/park mode.
func parkMode(m WaitMode) (park.Mode, error) {
	switch m {
	case "", WaitSpin:
		return park.ModeSpin, nil
	case WaitAdaptive:
		return park.ModeAdaptive, nil
	default:
		return park.ModeSpin, fmt.Errorf("ollock: unknown wait mode %q", m)
	}
}

// Option configures New.
type Option func(*newConfig)

type newConfig struct {
	bias      bool
	biasMult  int
	withStats bool
	statsName string
	indicator IndicatorKind
	wait      WaitMode
	lt        *trace.LockTrace
	lp        *prof.LockProf
	metrics   *Metrics
	chaos     *chaos.Injector
}

// WithBias wraps the created lock with the BRAVO biased reader fast path
// (see BravoLock): while the lock is read-biased, readers bypass the
// underlying lock entirely via a visible-readers table, and writers
// revoke the bias before entering. Worth enabling for read-dominated
// workloads; see README.md for the trade-off discussion.
func WithBias() Option {
	return func(c *newConfig) { c.bias = true }
}

// WithBiasMultiplier is WithBias with the post-revocation inhibition
// window scaled by n (the BRAVO paper's N parameter; default 1). Larger
// values revoke less often under mixed workloads at the price of keeping
// read-mostly phases on the slow path longer.
func WithBiasMultiplier(n int) Option {
	return func(c *newConfig) {
		c.bias = true
		c.biasMult = n
	}
}

// WithIndicator selects the read indicator backing an OLL lock (GOLL,
// FOLL, ROLL, and their BRAVO-wrapped variants): the paper's C-SNZI
// tree (the default), a degenerate centralized counter word, or a
// sharded ingress/egress counter array. Baseline kinds have their own
// fixed reader-tracking mechanisms; New returns an error when a
// non-default indicator is requested for one. Composes with WithStats
// (every indicator reports through the same csnzi.* counter names) and
// WithBias.
func WithIndicator(k IndicatorKind) Option {
	return func(c *newConfig) { c.indicator = k }
}

// WithWait selects the wait policy for the created lock: what a blocked
// goroutine does between starting to wait and being granted the lock.
// The default, WaitSpin, is the paper's pure spinning (§5.1 eliminates
// context switches by design); WaitAdaptive trades a little hand-off
// latency for robustness when goroutines outnumber GOMAXPROCS — see
// README.md for the measured crossover. Applies to the OLL locks
// (GOLL, FOLL, ROLL, their BRAVO-wrapped variants) and Central; the other baseline kinds keep their fixed waiting behavior
// and New returns an error if a non-default mode is requested for one.
// Composes with WithStats (park.* counters), WithBias (revocation drain
// waits descend the ladder), WithIndicator (sharded gate waits ride the
// policy), and WithTrace (park/unpark events).
func WithWait(m WaitMode) Option {
	return func(c *newConfig) { c.wait = m }
}

// WithChaos arms a deterministic-schedule fault injector on the
// created lock (torture testing only): the lock's instrumentation emit
// sites — which mark exactly the protocol's linearization points
// (enqueue published, indicator closed, hand-off decided) — gain
// randomized delays, yields, and micro-sleeps drawn from a per-proc
// schedule seeded by seed, widening the race windows a stress run
// explores. The decisions each Proc makes are a pure function of
// (seed, proc id, call index), so a failing seed re-biases the same
// windows on re-run. Applies to the instrumented kinds (the OLL locks
// and their BRAVO-wrapped variants); New returns an error for others.
// Never enable in production: acquisitions are delayed on purpose.
func WithChaos(seed uint64) Option {
	return func(c *newConfig) { c.chaos = chaos.New(seed) }
}

// ChaosCountOf returns the number of faults injected so far into a
// lock created with WithChaos. The second result is false when the
// lock carries no injector.
func ChaosCountOf(l Lock) (uint64, bool) {
	c, ok := l.(chaosCarrier)
	if !ok || c.lockChaos() == nil {
		return 0, false
	}
	return c.lockChaos().Count(), true
}

// chaosCarrier is implemented by the lock wrappers that can carry a
// chaos injector.
type chaosCarrier interface {
	lockChaos() *chaos.Injector
}

// WithStats attaches a striped instrumentation block to the created
// lock, counting the internal events of its algorithm (C-SNZI arrival
// routing, GOLL hand-offs, FOLL/ROLL queue behaviour, BRAVO bias
// transitions; see ALGORITHMS.md for the counter glossary). Read the
// counters with SnapshotOf. A lock created without WithStats pays
// nothing for the machinery beyond one predictable nil-check branch
// per event site.
//
// name labels the block wherever it is rendered — Snapshot.Name, the
// /debug/ollock JSON, the Prometheus exposition's lock label (see
// WithMetrics) — and defaults to the kind string when empty.
func WithStats(name string) Option {
	return func(c *newConfig) {
		c.withStats = true
		c.statsName = name
	}
}

// Snapshot is an immutable point-in-time view of an instrumented
// lock's counters and histograms. See internal/obs for the field
// semantics.
type Snapshot = obs.Snapshot

// HistSnapshot summarizes one latency histogram inside a Snapshot.
type HistSnapshot = obs.HistSnapshot

// statsCarrier is implemented by the lock wrappers that can carry an
// instrumentation block.
type statsCarrier interface {
	lockStats() *obs.Stats
}

// SnapshotOf returns a consistent-enough snapshot of the counters of a
// lock created with WithStats. The second result is false when the
// lock is uninstrumented (not created through New with WithStats) or
// its kind has no instrumentation.
func SnapshotOf(l Lock) (Snapshot, bool) {
	c, ok := l.(statsCarrier)
	if !ok || c.lockStats() == nil {
		return Snapshot{}, false
	}
	return c.lockStats().Snapshot(), true
}

// statScopes returns the obs counter scopes a lock kind reports,
// read from its registry descriptor: every OLL lock carries its own
// scope plus the C-SNZI substrate, a biased wrapper adds the bravo
// scope on top, and a non-spin wait policy adds the park scope (pure
// spinning emits no park events, so the default keeps the historical
// name set exactly). Baseline kinds have no instrumentation.
func statScopes(kind Kind, bias, parked bool) []string {
	var s []string
	if d, ok := lockcore.DescOf(string(kind)); ok {
		s = append(s, d.Scopes...)
	}
	if bias {
		s = append(s, "bravo")
	}
	if parked {
		s = append(s, "park")
	}
	return s
}

// New creates a lock of the given kind sized for maxProcs participating
// goroutines. GOLL, KSUH, MCSRW, Solaris and Central ignore maxProcs
// (they have no fixed capacity); FOLL, ROLL and Hsieh admit at most
// maxProcs Procs and New reports an error unless maxProcs >= 1. Options
// apply to any kind: WithBias wraps the result in the BRAVO biased
// reader fast path.
//
// Kind dispatch and option validation are driven by the kind registry
// (internal/lockcore): each kind's descriptor says which options it
// takes (see KindInfos), and New rejects an inapplicable option with a
// uniform error naming the kind and the rejected value.
func New(kind Kind, maxProcs int, opts ...Option) (Lock, error) {
	var cfg newConfig
	for _, o := range opts {
		o(&cfg)
	}
	wmode, err := parkMode(cfg.wait)
	if err != nil {
		return nil, err
	}
	desc, ok := lockcore.DescOf(string(kind))
	if !ok {
		return nil, fmt.Errorf("ollock: unknown lock kind %q", kind)
	}
	bias := cfg.bias || desc.ForceBias
	parked := wmode != park.ModeSpin
	if parked && !desc.Caps.Wait {
		return nil, fmt.Errorf("ollock: lock kind %q does not take a wait policy (%q)", kind, cfg.wait)
	}
	if desc.Caps.BoundedProcs && maxProcs < 1 {
		return nil, fmt.Errorf("ollock: lock kind %q requires maxProcs >= 1 (got %d)", kind, maxProcs)
	}
	if cfg.lp != nil && !desc.Caps.Profiled {
		return nil, fmt.Errorf("ollock: lock kind %q does not take a profiler (WithProfile)", kind)
	}
	if cfg.chaos != nil && !desc.Caps.Instrumented {
		return nil, fmt.Errorf("ollock: lock kind %q does not take a chaos injector (WithChaos)", kind)
	}
	var st *obs.Stats
	if cfg.withStats {
		name := cfg.statsName
		if name == "" {
			name = string(kind)
		}
		st = obs.New(obs.WithName(name), obs.WithScopes(statScopes(kind, bias, parked)...))
	}
	// One policy is shared by every wait site in the stack — queue
	// waiters, queue-mutex contenders, indicator gates, and (under
	// WithBias) revocation drains — so park.* counters aggregate across
	// layers the way one lock's waiters actually interleave.
	var pol *park.Policy
	if parked {
		pol = park.New(wmode, park.WithStats(st))
	}
	var sealFn func(uint64)
	if cfg.lt != nil && cfg.indicator == IndicatorSharded {
		se := &sealEmitter{tr: cfg.lt.NewLocal(-1)}
		sealFn = se.emit
	}
	factory, err := indicatorFactory(cfg.indicator, sealFn, pol)
	if err != nil {
		return nil, err
	}
	if factory != nil && !desc.Caps.Indicator {
		return nil, fmt.Errorf("ollock: lock kind %q does not take a read indicator (%q)", kind, cfg.indicator)
	}
	baseName := desc.Name
	if desc.ForceBias {
		baseName = desc.BiasBase
	}
	build, ok := builders[baseName]
	if !ok {
		return nil, fmt.Errorf("ollock: lock kind %q has no registered constructor", kind)
	}
	base := build(maxProcs, buildArgs{st: st, lt: cfg.lt, pol: pol, lp: cfg.lp, ch: cfg.chaos, factory: factory})
	if cfg.metrics != nil {
		cfg.metrics.reg.Register(st)
	}
	if bias {
		// The wrapper shares the base lock's profiler registration:
		// wrapper-owned events (fast-path reads, revocations) and base
		// events land in one per-lock profile.
		return wrapBiasStats(base, cfg.biasMult, st, cfg.lt, pol, cfg.lp, cfg.chaos), nil
	}
	return base, nil
}

// buildArgs carries the cross-cutting pieces New assembles — the stats
// block, trace handle, wait policy, profiler registration, and
// read-indicator factory — into a kind's registered constructor.
type buildArgs struct {
	st      *obs.Stats
	lt      *trace.LockTrace
	pol     *park.Policy
	lp      *prof.LockProf
	ch      *chaos.Injector
	factory rind.Factory
}

// instr bundles the instrumentation arguments into the lockcore.Instr
// the algorithm packages take.
func (a buildArgs) instr() lockcore.Instr {
	return lockcore.Instr{Stats: a.st, Trace: a.lt, Wait: a.pol, Prof: a.lp, Chaos: a.ch}
}

// builders maps base kind names to constructors. The bravo-* wrapper
// kinds have no entry — New dispatches them through their descriptor's
// BiasBase and applies the wrapper afterwards. A sync test asserts
// every registered kind resolves to a builder.
var builders = map[string]func(maxProcs int, a buildArgs) Lock{
	"goll": func(_ int, a buildArgs) Lock {
		gopts := []goll.Option{goll.WithInstr(a.instr())}
		if a.factory != nil {
			gopts = append(gopts, goll.WithIndicator(a.factory()))
		}
		return &GOLLLock{l: goll.New(gopts...), stats: a.st, chaos: a.ch}
	},
	"foll": func(n int, a buildArgs) Lock {
		fopts := []foll.Option{foll.WithInstr(a.instr())}
		if a.factory != nil {
			fopts = append(fopts, foll.WithIndicator(a.factory))
		}
		return &FOLLLock{l: foll.New(n, fopts...), stats: a.st, chaos: a.ch}
	},
	"roll": func(n int, a buildArgs) Lock {
		ropts := []roll.Option{roll.WithInstr(a.instr())}
		if a.factory != nil {
			ropts = append(ropts, roll.WithIndicator(a.factory))
		}
		return &ROLLLock{l: roll.New(n, ropts...), stats: a.st, chaos: a.ch}
	},
	"ksuh":    func(int, buildArgs) Lock { return NewKSUH() },
	"mcs-rw":  func(int, buildArgs) Lock { return NewMCSRW() },
	"solaris": func(int, buildArgs) Lock { return NewSolaris() },
	"hsieh":   func(n int, _ buildArgs) Lock { return NewHsieh(n) },
	"central": func(_ int, a buildArgs) Lock {
		cl := NewCentral()
		cl.l.SetWaitPolicy(a.pol)
		return cl
	},
}

// indicatorFactory maps an IndicatorKind to a rind.Factory, or nil for
// the default (the locks build their own C-SNZI when given no
// indicator, preserving the pre-option construction path exactly).
// sealFn, when non-nil, is installed as the seal hook on every sharded
// indicator the factory produces (trace ind.seal events); pol, when
// non-nil, routes the sharded indicator's gate waits and CAS retries
// through the lock's wait policy.
func indicatorFactory(k IndicatorKind, sealFn func(uint64), pol *park.Policy) (rind.Factory, error) {
	switch k {
	case "", IndicatorCSNZI:
		return nil, nil
	case IndicatorCentral:
		return rind.CentralFactory(), nil
	case IndicatorSharded:
		f := rind.ShardedFactory(0)
		if sealFn == nil && pol == nil {
			return f, nil
		}
		return func() rind.Indicator {
			ind := f()
			if s, ok := ind.(*rind.Sharded); ok {
				if sealFn != nil {
					s.SetSealHook(sealFn)
				}
				s.SetWaitPolicy(pol)
			}
			return ind
		}, nil
	default:
		return nil, fmt.Errorf("ollock: unknown indicator kind %q", k)
	}
}

// MustNew is New, panicking on error; convenient for tables of kinds
// known at compile time.
func MustNew(kind Kind, maxProcs int, opts ...Option) Lock {
	l, err := New(kind, maxProcs, opts...)
	if err != nil {
		panic(err)
	}
	return l
}
