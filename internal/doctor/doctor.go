// Package doctor is the automated lock pathologist: a rule engine
// over sampled rate windows (internal/metrics) and watchdog signals
// (internal/trace) that turns raw counter deltas into typed findings
// — "this lock is starving its writers", "BRAVO is thrashing
// revocations", "the wait layer is park-storming" — each with the
// numeric evidence that fired the rule and the tuning advice the
// module's own knobs offer.
//
// The engine is deliberately a pure function over plain data:
// Diagnose(cfg, windows) has no clocks, no goroutines, and no
// dependence on the live lock — the same scripted window always
// yields the same findings. That is what makes the rules testable
// against exact counter streams from the deterministic simulator, and
// what lets `lockmon doctor -scenario` demonstrate each pathology
// without reproducing it on the host.
package doctor

import (
	"fmt"
	"time"
)

// Severity grades a finding.
type Severity uint8

const (
	Info Severity = iota
	Warning
	Critical
)

var sevNames = [...]string{"info", "warning", "critical"}

func (s Severity) String() string {
	if int(s) < len(sevNames) {
		return sevNames[s]
	}
	return "severity?"
}

// Evidence is one measured value that supported a finding.
type Evidence struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Finding is one diagnosed pathology on one lock.
type Finding struct {
	// Rule is the stable rule identifier ("writer-starvation",
	// "bias-thrash", "park-storm", "indicator-stall").
	Rule string `json:"rule"`
	// Lock is the registry key of the diagnosed lock.
	Lock     string     `json:"lock"`
	Severity Severity   `json:"-"`
	Summary  string     `json:"summary"`
	Evidence []Evidence `json:"evidence"`
	// Advice names the module knob that addresses the pathology.
	Advice string `json:"advice,omitempty"`
	// CallSite is the hottest contended call site attribution, present
	// when the window carried one (a call-site profiler was attached).
	CallSite string `json:"call_site,omitempty"`
}

// SeverityName surfaces the severity in JSON exports.
func (f Finding) SeverityName() string { return f.Severity.String() }

// HistWindow is a histogram's windowed view as plain numbers.
type HistWindow struct {
	Count uint64
	Sum   int64
	P50   int64
	P99   int64
	Max   int64
}

// StallInfo is one watchdog-reported stall, already reduced to data.
type StallInfo struct {
	Phase  string
	Waited time.Duration
}

// CallSite is a profiler-attributed call site, already reduced to data
// (the doctor stays a pure rule engine; the facade formats and attaches
// these from the call-site profiler's snapshot).
type CallSite struct {
	// Site is the rendered call site, e.g. "main.readHot (main.go:42)".
	Site string
	// Contentions and DelayNs are the site's rate-scaled contention
	// totals.
	Contentions uint64
	DelayNs     uint64
}

// Window is the doctor's input: one lock's activity over Seconds of
// wall time, as counter deltas and histogram windows keyed by the obs
// dotted names. Plain maps keep scripted scenarios and sim-harness
// streams trivial to construct.
type Window struct {
	Lock    string
	Seconds float64
	Deltas  map[string]uint64
	Hists   map[string]HistWindow
	Stalls  []StallInfo
	// HotSite is the lock's hottest contended call site, when a
	// call-site profiler was attached (see AttachHotSites).
	HotSite *CallSite
}

func (w Window) delta(name string) uint64 { return w.Deltas[name] }

// Signals are the derived per-window quantities the rules (and the
// bench harness) share: acquire mix and churn ratios.
type Signals struct {
	// Reads is the number of read acquisitions in the window: C-SNZI
	// arrivals (root + tree) plus BRAVO fast-path reads (which bypass
	// the indicator entirely).
	Reads uint64
	// Writes is the number of write acquisitions: the write-wait
	// histograms' counts (every write acquire samples exactly once).
	Writes uint64
	// Revocations is the BRAVO revocation count.
	Revocations uint64
	// Parks counts true descheduling events (park.park).
	Parks uint64
	// Timeouts and Cancels count abandoned timed acquisitions, split by
	// expiry cause (deadline vs. context), summed over the per-kind
	// counters.
	Timeouts uint64
	Cancels  uint64
	// RevocationsPerRead and ParksPerAcquire are the churn ratios the
	// thrash and storm rules threshold (0 when the denominator is 0).
	RevocationsPerRead float64
	ParksPerAcquire    float64
	// TimeoutsPerAttempt is the fraction of acquisition attempts
	// (successes plus abandonments) that were abandoned.
	TimeoutsPerAttempt float64
}

// writeWaitHists lists the per-kind write-acquire histograms; a
// window carries whichever its lock kind owns.
var writeWaitHists = []string{"goll.write.wait", "foll.write.wait", "roll.write.wait"}

// timeoutCounters and cancelCounters list the per-kind abandonment
// counters a timed acquisition bumps on expiry (deadline vs. context).
var (
	timeoutCounters = []string{"goll.timeout", "foll.timeout", "roll.timeout"}
	cancelCounters  = []string{"goll.cancel", "foll.cancel", "roll.cancel"}
)

// SignalsOf derives the shared quantities from one window.
func SignalsOf(w Window) Signals {
	var s Signals
	s.Reads = w.delta("csnzi.arrive.root") + w.delta("csnzi.arrive.tree") + w.delta("bravo.read.fast")
	for _, h := range writeWaitHists {
		s.Writes += w.Hists[h].Count
	}
	s.Revocations = w.delta("bravo.revoke")
	s.Parks = w.delta("park.park")
	for _, name := range timeoutCounters {
		s.Timeouts += w.delta(name)
	}
	for _, name := range cancelCounters {
		s.Cancels += w.delta(name)
	}
	if s.Reads > 0 {
		s.RevocationsPerRead = float64(s.Revocations) / float64(s.Reads)
	}
	if acq := s.Reads + s.Writes; acq > 0 {
		s.ParksPerAcquire = float64(s.Parks) / float64(acq)
	}
	if att := s.Reads + s.Writes + s.Timeouts + s.Cancels; att > 0 {
		s.TimeoutsPerAttempt = float64(s.Timeouts+s.Cancels) / float64(att)
	}
	return s
}

// Config holds the rule thresholds. The zero value is NOT usable;
// start from DefaultConfig.
type Config struct {
	// WriteP99StarvationNs fires writer-starvation when the windowed
	// write-acquire p99 meets it while reads keep flowing.
	WriteP99StarvationNs int64
	// StarvationMinWrites is the minimum write sample count before the
	// p99 is trusted (tiny windows produce noisy quantiles).
	StarvationMinWrites uint64
	// RevokesPerReadThrash and ThrashMinRevokes fire bias-thrash when
	// revocations are both frequent and numerous relative to reads.
	RevokesPerReadThrash float64
	ThrashMinRevokes     uint64
	// ParksPerAcquireStorm and StormMinParks fire park-storm when
	// waiters deschedule more often than they acquire.
	ParksPerAcquireStorm float64
	StormMinParks        uint64
	// TimeoutsPerAttemptStorm and StormMinTimeouts fire
	// acquire-timeout-storm when abandonments are both numerous and a
	// large fraction of all acquisition attempts.
	TimeoutsPerAttemptStorm float64
	StormMinTimeouts        uint64
}

// DefaultConfig returns the thresholds tuned for nanosecond-domain
// windows from real locks.
func DefaultConfig() Config {
	return Config{
		WriteP99StarvationNs: 50 * int64(time.Millisecond),
		StarvationMinWrites:  4,
		RevokesPerReadThrash: 0.02,
		ThrashMinRevokes:     8,
		ParksPerAcquireStorm: 1.0,
		StormMinParks:        64,

		TimeoutsPerAttemptStorm: 0.25,
		StormMinTimeouts:        32,
	}
}

// Diagnose runs every rule over every window and returns the findings
// in input order (windows outer, rules inner). It is pure: no clocks,
// no I/O, deterministic for identical inputs.
func Diagnose(cfg Config, windows []Window) []Finding {
	var out []Finding
	for _, w := range windows {
		sig := SignalsOf(w)
		out = append(out, ruleWriterStarvation(cfg, w, sig)...)
		out = append(out, ruleBiasThrash(cfg, w, sig)...)
		out = append(out, ruleParkStorm(cfg, w, sig)...)
		out = append(out, ruleAcquireTimeoutStorm(cfg, w, sig)...)
		out = append(out, ruleIndicatorStall(w)...)
	}
	return out
}

func ruleWriterStarvation(cfg Config, w Window, sig Signals) []Finding {
	if sig.Reads == 0 || sig.Writes < cfg.StarvationMinWrites {
		return nil
	}
	var worst HistWindow
	var worstName string
	for _, name := range writeWaitHists {
		if h, ok := w.Hists[name]; ok && h.Count > 0 && h.P99 > worst.P99 {
			worst, worstName = h, name
		}
	}
	if worstName == "" || worst.P99 < cfg.WriteP99StarvationNs {
		return nil
	}
	ev := []Evidence{
		{Name: worstName + ".p99", Value: float64(worst.P99), Unit: "ns"},
		{Name: "writes", Value: float64(sig.Writes), Unit: "count"},
		{Name: "read.rate", Value: float64(sig.Reads) / w.Seconds, Unit: "per_sec"},
	}
	advice := "prefer a writer-fair kind (GOLL/FOLL queue writers FIFO); if this lock is ROLL, reader overtaking is the likely cause"
	if ot := w.delta("roll.overtake"); ot > 0 {
		ev = append(ev, Evidence{Name: "roll.overtake", Value: float64(ot), Unit: "count"})
		advice = "ROLL reader preference is overtaking writers; switch to FOLL (writer-fair batching) for this workload"
	}
	f := Finding{
		Rule:     "writer-starvation",
		Lock:     w.Lock,
		Severity: Critical,
		Summary: fmt.Sprintf("write-acquire p99 %.1fms while reads flow at %.0f/s",
			float64(worst.P99)/1e6, float64(sig.Reads)/w.Seconds),
		Evidence: ev,
		Advice:   advice,
	}
	attachHotSite(&f, w)
	return []Finding{f}
}

func ruleBiasThrash(cfg Config, w Window, sig Signals) []Finding {
	if sig.Revocations < cfg.ThrashMinRevokes || sig.RevocationsPerRead < cfg.RevokesPerReadThrash {
		return nil
	}
	ev := []Evidence{
		{Name: "bravo.revoke", Value: float64(sig.Revocations), Unit: "count"},
		{Name: "revocations.per.read", Value: sig.RevocationsPerRead, Unit: "ratio"},
	}
	if h, ok := w.Hists["bravo.drain.wait"]; ok && h.Count > 0 {
		ev = append(ev, Evidence{Name: "bravo.drain.wait.p99", Value: float64(h.P99), Unit: "ns"})
	}
	f := Finding{
		Rule:     "bias-thrash",
		Lock:     w.Lock,
		Severity: Warning,
		Summary: fmt.Sprintf("BRAVO revoked bias %d times (%.3f per read) — writers keep tearing down the fast path",
			sig.Revocations, sig.RevocationsPerRead),
		Evidence: ev,
		Advice:   "raise WithBiasMultiplier to lengthen the inhibition window, or drop WithBias for write-heavy phases",
	}
	attachHotSite(&f, w)
	return []Finding{f}
}

func ruleParkStorm(cfg Config, w Window, sig Signals) []Finding {
	if sig.Parks < cfg.StormMinParks || sig.ParksPerAcquire < cfg.ParksPerAcquireStorm {
		return nil
	}
	ev := []Evidence{
		{Name: "park.park", Value: float64(sig.Parks), Unit: "count"},
		{Name: "parks.per.acquire", Value: sig.ParksPerAcquire, Unit: "ratio"},
	}
	if h, ok := w.Hists["park.wait"]; ok && h.Count > 0 {
		ev = append(ev, Evidence{Name: "park.wait.p50", Value: float64(h.P50), Unit: "ns"})
	}
	return []Finding{{
		Rule:     "park-storm",
		Lock:     w.Lock,
		Severity: Warning,
		Summary: fmt.Sprintf("%d parks in %.1fs (%.2f per acquire) — waiters deschedule faster than they acquire",
			sig.Parks, w.Seconds, sig.ParksPerAcquire),
		Evidence: ev,
		Advice:   "reduce oversubscription (fewer runnable goroutines per processor, shorter critical sections): parking is already the cheapest way to wait here, so keep WaitAdaptive and select it for any lock on this path that still spins",
	}}
}

func ruleAcquireTimeoutStorm(cfg Config, w Window, sig Signals) []Finding {
	abandoned := sig.Timeouts + sig.Cancels
	if abandoned < cfg.StormMinTimeouts || sig.TimeoutsPerAttempt < cfg.TimeoutsPerAttemptStorm {
		return nil
	}
	ev := []Evidence{
		{Name: "acquire.timeouts", Value: float64(sig.Timeouts), Unit: "count"},
		{Name: "acquire.cancels", Value: float64(sig.Cancels), Unit: "count"},
		{Name: "timeouts.per.attempt", Value: sig.TimeoutsPerAttempt, Unit: "ratio"},
	}
	if pt := w.delta("park.timeout"); pt > 0 {
		ev = append(ev, Evidence{Name: "park.timeout", Value: float64(pt), Unit: "count"})
	}
	for _, name := range writeWaitHists {
		if h, ok := w.Hists[name]; ok && h.Count > 0 {
			ev = append(ev, Evidence{Name: name + ".p99", Value: float64(h.P99), Unit: "ns"})
			break
		}
	}
	f := Finding{
		Rule:     "acquire-timeout-storm",
		Lock:     w.Lock,
		Severity: Warning,
		Summary: fmt.Sprintf("%d of every 100 acquisition attempts abandoned (%d timeouts, %d cancels in %.1fs) — deadlines are shorter than the lock's acquisition latency",
			int(sig.TimeoutsPerAttempt*100), sig.Timeouts, sig.Cancels, w.Seconds),
		Evidence: ev,
		Advice:   "lengthen the deadlines (or stop passing near-expired contexts), shrink the critical sections that set the acquisition latency, or treat the timeouts as backpressure and shed load at the callers",
	}
	attachHotSite(&f, w)
	return []Finding{f}
}

// attachHotSite copies the window's profiler attribution, if any, onto
// a contention-shaped finding: the call site itself plus its delay as
// one more piece of evidence.
func attachHotSite(f *Finding, w Window) {
	if w.HotSite == nil {
		return
	}
	f.CallSite = w.HotSite.Site
	f.Evidence = append(f.Evidence,
		Evidence{Name: "hot.site.delay", Value: float64(w.HotSite.DelayNs), Unit: "ns"})
}

func ruleIndicatorStall(w Window) []Finding {
	var out []Finding
	for _, st := range w.Stalls {
		out = append(out, Finding{
			Rule:     "indicator-stall",
			Lock:     w.Lock,
			Severity: Critical,
			Summary: fmt.Sprintf("watchdog: %s stalled for %s — a reader or writer is stuck mid-acquisition",
				st.Phase, st.Waited),
			Evidence: []Evidence{{Name: "stall." + st.Phase, Value: st.Waited.Seconds(), Unit: "s"}},
			Advice:   "inspect the flight-recorder trace around the stalled proc; a drain that never completes usually means a lost unpark or a departed reader that never signaled",
		})
	}
	return out
}

// Report renders findings as the human text report cmd/lockmon
// prints. An empty slice renders the healthy line.
func Report(findings []Finding) string {
	if len(findings) == 0 {
		return "doctor: no findings — all sampled locks look healthy\n"
	}
	var b []byte
	for _, f := range findings {
		b = fmt.Appendf(b, "[%s] %s (lock=%s, rule=%s)\n", f.Severity, f.Summary, f.Lock, f.Rule)
		for _, e := range f.Evidence {
			b = fmt.Appendf(b, "    %-28s %.4g %s\n", e.Name, e.Value, e.Unit)
		}
		if f.CallSite != "" {
			b = fmt.Appendf(b, "    hottest contended call site: %s\n", f.CallSite)
		}
		if f.Advice != "" {
			b = fmt.Appendf(b, "    advice: %s\n", f.Advice)
		}
	}
	return string(b)
}
