package lockcore

// Caps declares what a lock kind can do — the capability matrix the
// facade's option validation, the tool layer's flag enumeration, and
// the capability-matrix tests all read. A false field means the facade
// rejects the corresponding option with a uniform error rather than
// silently ignoring it.
type Caps struct {
	// Indicator: the kind accepts a non-default read indicator
	// (WithIndicator; the OLL locks and their biased wrappers).
	Indicator bool
	// Wait: the kind accepts a non-default wait policy (WithWait).
	Wait bool
	// Upgrade: the kind's Procs implement TryUpgrade/Downgrade (the
	// Upgrader interface). Note the BRAVO-wrapped kinds lose this — the
	// wrapper's Proc does not forward upgrades.
	Upgrade bool
	// Priority: the kind's Procs implement SetPriority.
	Priority bool
	// BoundedProcs: the kind is sized by maxProcs (NewProc panics
	// beyond it), so construction requires maxProcs > 0.
	BoundedProcs bool
	// Instrumented: the kind carries obs counters (Scopes below);
	// SnapshotOf works on locks of this kind built with stats on.
	Instrumented bool
	// Profiled: the kind's acquire/release paths carry call-site
	// profiler hooks (WithProfile; the OLL locks and their biased
	// wrappers).
	Profiled bool
	// Cancellable: the kind's Procs implement timed/cancellable
	// acquisition (RLockFor/LockFor and RLockCtx/LockCtx — the
	// DeadlineProc interface) with safe abandonment.
	Cancellable bool
}

// KindDesc describes one lock kind: the single source from which the
// facade's Kinds/New/statScopes, the cmd tools' kind enumeration, and
// the simulator's and locksuite's lock tables are generated.
// Constructors are registered next to each consumer (the facade builds
// real locks, simlock builds simulated ones) in tables keyed by Name;
// a sync test asserts the tables and this registry agree.
type KindDesc struct {
	// Name is the kind's wire name (ollock.Kind value, sim table name,
	// cmd flag value).
	Name string
	// Doc is a one-line description for help text.
	Doc string
	// Caps is the kind's capability matrix.
	Caps Caps
	// Scopes is the obs scope set an instrumented lock of this kind
	// reports (before the bias/park scopes options add on top).
	Scopes []string
	// ForceBias marks the pre-biased wrapper kinds (bravo-*): New wraps
	// the BiasBase kind with the BRAVO fast path unconditionally.
	ForceBias bool
	// BiasBase is the kind a ForceBias kind wraps.
	BiasBase string
	// Figure5 marks the five locks of the paper's Figure 5, in registry
	// order (the set simlock.Figure5Locks returns).
	Figure5 bool
	// IndicatorMatrix marks the kinds whose sim/suite tables also carry
	// -central/-sharded read-indicator variants.
	IndicatorMatrix bool
}

// MatrixIndicators lists the non-default read-indicator variants the
// IndicatorMatrix kinds are tabled with (the default C-SNZI is covered
// by the plain entries).
func MatrixIndicators() []string { return []string{"central", "sharded"} }

// descs is the kind registry, in the canonical enumeration order
// (Kinds(), the sim lock table, and every cmd tool's help text follow
// it): the three OLL locks, the prior-work baselines, then the
// pre-biased wrappers.
var descs = []KindDesc{
	{
		Name: "goll", Doc: "general OLL lock (§3): wait queue, priorities, upgrade/downgrade",
		Caps:    Caps{Indicator: true, Wait: true, Upgrade: true, Priority: true, Instrumented: true, Profiled: true, Cancellable: true},
		Scopes:  []string{"csnzi", "goll"},
		Figure5: true, IndicatorMatrix: true,
	},
	{
		Name: "foll", Doc: "FIFO distributed-queue OLL lock (§4.2)",
		Caps:    Caps{Indicator: true, Wait: true, BoundedProcs: true, Instrumented: true, Profiled: true, Cancellable: true},
		Scopes:  []string{"csnzi", "foll"},
		Figure5: true, IndicatorMatrix: true,
	},
	{
		Name: "roll", Doc: "reader-preference distributed-queue OLL lock (§4.3)",
		Caps:    Caps{Indicator: true, Wait: true, BoundedProcs: true, Instrumented: true, Profiled: true, Cancellable: true},
		Scopes:  []string{"csnzi", "roll"},
		Figure5: true, IndicatorMatrix: true,
	},
	{
		Name: "ksuh", Doc: "Krieger–Stumm–Unrau–Hanna fair baseline (ICPP '93)",
		Figure5: true,
	},
	{
		Name: "mcs-rw", Doc: "Mellor-Crummey & Scott fair reader-writer baseline (PPoPP '91)",
	},
	{
		Name: "solaris", Doc: "user-space Solaris kernel lock baseline",
		Figure5: true,
	},
	{
		Name: "hsieh", Doc: "Hsieh–Weihl private-mutex baseline (IPPS '92)",
		Caps: Caps{BoundedProcs: true},
	},
	{
		Name: "central", Doc: "naive centralized counter+flag baseline",
		Caps: Caps{Wait: true, Cancellable: true},
	},
	{
		Name: "bravo-goll", Doc: "GOLL under the BRAVO biased reader fast path",
		Caps:      Caps{Indicator: true, Wait: true, Instrumented: true, Profiled: true, Cancellable: true},
		Scopes:    []string{"csnzi", "goll"},
		ForceBias: true, BiasBase: "goll",
	},
	{
		Name: "bravo-roll", Doc: "ROLL under the BRAVO biased reader fast path",
		Caps:      Caps{Indicator: true, Wait: true, BoundedProcs: true, Instrumented: true, Profiled: true, Cancellable: true},
		Scopes:    []string{"csnzi", "roll"},
		ForceBias: true, BiasBase: "roll",
	},
}

// Descs returns the kind registry in canonical order. The slice is
// freshly allocated; callers may reorder or filter it.
func Descs() []KindDesc {
	out := make([]KindDesc, len(descs))
	copy(out, descs)
	return out
}

// DescOf returns the descriptor for a kind name.
func DescOf(name string) (KindDesc, bool) {
	for _, d := range descs {
		if d.Name == name {
			return d, true
		}
	}
	return KindDesc{}, false
}
