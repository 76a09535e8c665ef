// Command lockmon is the live monitoring companion to the lock stack:
// it runs a configurable workload against an instrumented lock while
// the metrics pipeline samples it, and exposes, dumps, or diagnoses the
// resulting time series.
//
// Usage:
//
//	lockmon serve   [workload flags] [-addr :9090] [-period 1s] [-duration 0]
//	                [-debug] [-rate 8]
//	lockmon sample  [workload flags] [-period 100ms] [-duration 2s]
//	                [-format prom|json|text] [-o FILE]
//	lockmon doctor  [workload flags] [-period 100ms] [-duration 2s]
//	                | -scenario NAME
//	lockmon profile [workload flags] [-rate 8] [-duration 2s] [-top 10]
//	                [-o FILE.pb.gz] [-folded FILE] [-holds]
//	lockmon checkfmt FILE
//	lockmon profcheck FILE.pb.gz
//
// Workload flags (serve, sample, doctor, profile):
//
//	-lock goll -indicator csnzi -bias=false -wait spin
//	-threads 8 -readpct 95 -work 0 -seed 42
//
// serve runs the workload (forever with -duration 0) and serves the
// scrape endpoints: /metrics (Prometheus/OpenMetrics text, or the JSON
// time series on Accept: application/json), and /doctor (the current
// diagnosis as text; nonzero findings also set X-Lockmon-Findings).
// With -debug it additionally attaches a call-site profiler (sampling
// one acquisition in -rate) and a tracer, and mounts the unified
// /debug/ollock/ surface: pprof contention and hold profiles (delta
// with ?seconds=N), folded flamegraph stacks, the metrics and doctor
// views as JSON, and a Perfetto-loadable trace.
//
// sample runs the workload for -duration while sampling at -period and
// writes the series in the chosen format: prom (exposition text), json
// (the full ring time series), or text (a human summary plus the
// doctor's report).
//
// doctor runs the workload (or replays a scripted -scenario; see
// "lockmon doctor -scenario list") and exits 0 when the diagnosis is
// clean, 1 when findings fire, 2 on usage errors — scriptable as a CI
// gate. Scenario replay needs no workload at all: the scripted counter
// windows are evaluated directly, deterministically.
//
// profile runs the workload for -duration with a call-site profiler
// attached (sampling one acquisition in -rate), prints the -top hottest
// contended call sites, and optionally writes the pprof protobuf
// (-o, loadable with `go tool pprof`) and folded flamegraph stacks
// (-folded). -holds switches both exports and the table from the
// contention metric to the hold metric.
//
// checkfmt validates a Prometheus text exposition file (as scraped from
// /metrics) against the format rules the exporter promises, exiting
// nonzero with a line-numbered complaint on the first violation.
//
// profcheck validates a pprof profile file (as written by `lockmon
// profile -o` or fetched from /debug/ollock/profile) by decoding the
// protobuf and checking it carries at least one sample with the
// contention or hold value schema, exiting nonzero otherwise.
//
// Every exported metric name is documented in METRICS.md; the doctor's
// rules are specified in ALGORITHMS.md §14.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ollock"
	"ollock/internal/doctor"
	"ollock/internal/metrics"
	"ollock/internal/prof"
	"ollock/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		cmdServe(os.Args[2:])
	case "sample":
		cmdSample(os.Args[2:])
	case "doctor":
		cmdDoctor(os.Args[2:])
	case "profile":
		cmdProfile(os.Args[2:])
	case "checkfmt":
		cmdCheckfmt(os.Args[2:])
	case "profcheck":
		cmdProfcheck(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lockmon serve|sample|doctor|profile [flags]
       lockmon checkfmt FILE
       lockmon profcheck FILE.pb.gz
run "lockmon <subcommand> -h" for the subcommand's flags`)
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "lockmon:", err)
	os.Exit(2)
}

// workloadFlags holds the shared workload shape shared by serve,
// sample and doctor.
type workloadFlags struct {
	lock      *string
	indicator *string
	bias      *bool
	wait      *string
	threads   *int
	readPct   *float64
	work      *int
	seed      *uint64
}

// kindList renders the registry's kind names for flag help text.
func kindList() string {
	var names []string
	for _, k := range ollock.Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

func addWorkloadFlags(fs *flag.FlagSet) *workloadFlags {
	return &workloadFlags{
		lock:      fs.String("lock", "goll", "lock kind under test: "+kindList()),
		indicator: fs.String("indicator", "csnzi", "read indicator: csnzi, central or sharded"),
		bias:      fs.Bool("bias", false, "wrap with the BRAVO biased reader fast path"),
		wait:      fs.String("wait", "spin", "wait policy: spin or adaptive"),
		threads:   fs.Int("threads", 8, "concurrent goroutines"),
		readPct:   fs.Float64("readpct", 95, "percentage of read acquisitions"),
		work:      fs.Int("work", 0, "critical-section spin iterations"),
		seed:      fs.Uint64("seed", 42, "PRNG seed"),
	}
}

// build creates the instrumented lock on m per the flags; extra
// options (e.g. WithProfile) are appended.
func (w *workloadFlags) build(m *ollock.Metrics, extra ...ollock.Option) ollock.Lock {
	opts := []ollock.Option{
		ollock.WithMetrics(m),
		ollock.WithStats(*w.lock),
		ollock.WithIndicator(ollock.IndicatorKind(*w.indicator)),
		ollock.WithWait(ollock.WaitMode(*w.wait)),
	}
	if *w.bias {
		opts = append(opts, ollock.WithBias())
	}
	opts = append(opts, extra...)
	l, err := ollock.New(ollock.Kind(*w.lock), *w.threads, opts...)
	if err != nil {
		die(err)
	}
	return l
}

// run drives the workload until stop is closed; returns after every
// goroutine exits.
func (w *workloadFlags) run(l ollock.Lock, stop <-chan struct{}) {
	var wg sync.WaitGroup
	var sink atomic.Uint64
	readFrac := *w.readPct / 100
	for t := 0; t < *w.threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := l.NewProc()
			rng := xrand.New(*w.seed + uint64(id)*0x9E3779B9 + 1)
			var local uint64
			for {
				select {
				case <-stop:
					sink.Add(local)
					return
				default:
				}
				if rng.Bool(readFrac) {
					p.RLock()
					for i := 0; i < *w.work; i++ {
						local++
					}
					p.RUnlock()
				} else {
					p.Lock()
					for i := 0; i < *w.work; i++ {
						local++
					}
					p.Unlock()
				}
			}
		}(t)
	}
	wg.Wait()
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("lockmon serve", flag.ExitOnError)
	w := addWorkloadFlags(fs)
	addr := fs.String("addr", ":9090", "listen address")
	period := fs.Duration("period", time.Second, "sampling period")
	duration := fs.Duration("duration", 0, "stop the workload after this long (0 = run until killed)")
	debug := fs.Bool("debug", false, "attach a profiler and tracer and serve /debug/ollock/")
	rate := fs.Int("rate", 8, "with -debug: profile one acquisition in this many per proc")
	fs.Parse(args)

	var (
		p     *ollock.Profiler
		tr    *ollock.Tracer
		extra []ollock.Option
	)
	if *debug {
		p = ollock.NewProfiler(*rate)
		tr = ollock.NewTracer(0)
		extra = append(extra,
			ollock.WithProfile(p.Register(*w.lock)),
			ollock.WithTrace(tr.Register(*w.lock)))
	}
	mopts := []ollock.MetricsOption{ollock.MetricsPeriod(*period)}
	if p != nil {
		mopts = append(mopts, ollock.MetricsProfiler(p))
	}
	m := ollock.NewMetrics(mopts...)
	l := w.build(m, extra...)
	m.Start()
	stop := make(chan struct{})
	go w.run(l, stop)
	if *duration > 0 {
		go func() {
			time.Sleep(*duration)
			close(stop)
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Handler())
	mux.Handle("/metrics.json", m.Handler()) // ".json" path steers the negotiation
	mux.HandleFunc("/doctor", func(rw http.ResponseWriter, _ *http.Request) {
		findings := m.Diagnose(0)
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rw.Header().Set("X-Lockmon-Findings", fmt.Sprint(len(findings)))
		fmt.Fprintln(rw, ollock.DoctorReport(findings))
	})
	surfaces := "/metrics, /metrics.json, /doctor"
	if *debug {
		mux.Handle("/debug/ollock/", ollock.DebugHandler(p, m, tr))
		surfaces += ", /debug/ollock/"
	}
	fmt.Fprintf(os.Stderr, "lockmon: serving %s on %s (lock=%s threads=%d readpct=%g)\n",
		surfaces, *addr, *w.lock, *w.threads, *w.readPct)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		die(err)
	}
}

func cmdSample(args []string) {
	fs := flag.NewFlagSet("lockmon sample", flag.ExitOnError)
	w := addWorkloadFlags(fs)
	period := fs.Duration("period", 100*time.Millisecond, "sampling period")
	duration := fs.Duration("duration", 2*time.Second, "workload duration")
	format := fs.String("format", "text", "output format: prom, json or text")
	out := fs.String("o", "", "write to this file instead of stdout")
	fs.Parse(args)

	m := ollock.NewMetrics(ollock.MetricsPeriod(*period))
	l := w.build(m)
	m.Start()
	stop := make(chan struct{})
	go func() {
		time.Sleep(*duration)
		close(stop)
	}()
	w.run(l, stop)
	m.Stop()
	m.Sample() // final point so the last partial period is covered

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		dst = f
	}
	switch *format {
	case "prom":
		if err := m.WritePrometheus(dst); err != nil {
			die(err)
		}
	case "json":
		rec := httpDump{m: m}
		if err := rec.writeJSON(dst); err != nil {
			die(err)
		}
	case "text":
		printSummary(dst, l, m)
	default:
		die(fmt.Errorf("unknown -format %q", *format))
	}
}

// httpDump adapts the handler's JSON view for file output without
// spinning up a server.
type httpDump struct{ m *ollock.Metrics }

func (h httpDump) writeJSON(dst *os.File) error {
	req, _ := http.NewRequest("GET", "/metrics.json", nil)
	req.Header.Set("Accept", "application/json")
	rw := &fileResponse{f: dst, hdr: http.Header{}}
	h.m.Handler().ServeHTTP(rw, req)
	return rw.err
}

type fileResponse struct {
	f   *os.File
	hdr http.Header
	err error
}

func (r *fileResponse) Header() http.Header { return r.hdr }
func (r *fileResponse) WriteHeader(int)     {}
func (r *fileResponse) Write(p []byte) (int, error) {
	n, err := r.f.Write(p)
	if err != nil && r.err == nil {
		r.err = err
	}
	return n, err
}

// printSummary renders the human view: final counters, wait histograms,
// and the doctor's opinion.
func printSummary(dst *os.File, l ollock.Lock, m *ollock.Metrics) {
	sn, ok := ollock.SnapshotOf(l)
	if !ok {
		die(fmt.Errorf("lock has no instrumentation"))
	}
	fmt.Fprintf(dst, "samples: %d\n\ncounters:\n", m.Samples())
	for _, name := range sn.Names() {
		if sn.Counters[name] != 0 {
			fmt.Fprintf(dst, "  %-24s %12d\n", name, sn.Counters[name])
		}
	}
	hists := make([]string, 0, len(sn.Hists))
	for name := range sn.Hists {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	fmt.Fprintln(dst, "\nhistograms:")
	for _, name := range hists {
		h := sn.Hists[name]
		fmt.Fprintf(dst, "  %-24s count=%d p50=%dns p99=%dns max=%dns\n",
			name, h.Count, h.P50, h.P99, h.Max)
	}
	fmt.Fprintf(dst, "\n%s\n", ollock.DoctorReport(m.Diagnose(0)))
}

func cmdDoctor(args []string) {
	fs := flag.NewFlagSet("lockmon doctor", flag.ExitOnError)
	w := addWorkloadFlags(fs)
	period := fs.Duration("period", 100*time.Millisecond, "sampling period")
	duration := fs.Duration("duration", 2*time.Second, "workload duration")
	scenario := fs.String("scenario", "", `evaluate a scripted scenario instead of running a workload ("list" to enumerate)`)
	fs.Parse(args)

	var findings []ollock.Finding
	if *scenario != "" {
		if *scenario == "list" {
			fmt.Println(strings.Join(doctor.ScenarioNames(), "\n"))
			return
		}
		windows, err := doctor.Scenario(*scenario)
		if err != nil {
			die(err)
		}
		findings = doctor.Diagnose(doctor.DefaultConfig(), windows)
	} else {
		m := ollock.NewMetrics(ollock.MetricsPeriod(*period))
		l := w.build(m)
		m.Start()
		stop := make(chan struct{})
		go func() {
			time.Sleep(*duration)
			close(stop)
		}()
		w.run(l, stop)
		m.Stop()
		findings = m.Diagnose(0)
	}
	fmt.Println(ollock.DoctorReport(findings))
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("lockmon profile", flag.ExitOnError)
	w := addWorkloadFlags(fs)
	rate := fs.Int("rate", 8, "profile one acquisition in this many per proc")
	duration := fs.Duration("duration", 2*time.Second, "workload duration")
	top := fs.Int("top", 10, "call sites to print")
	out := fs.String("o", "", "write the pprof protobuf profile to this file")
	folded := fs.String("folded", "", "write folded flamegraph stacks to this file")
	holds := fs.Bool("holds", false, "export the hold metric instead of contention")
	fs.Parse(args)

	p := ollock.NewProfiler(*rate)
	m := ollock.NewMetrics(ollock.MetricsProfiler(p))
	l := w.build(m, ollock.WithProfile(p.Register(*w.lock)))
	m.Start()
	stop := make(chan struct{})
	go func() {
		time.Sleep(*duration)
		close(stop)
	}()
	w.run(l, stop)
	m.Stop()

	metric := ollock.ProfileContention
	if *holds {
		metric = ollock.ProfileHold
	}
	snap := p.Profile()
	printProfileTop(snap, metric, *top)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		if err := snap.WriteProfile(f, metric); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "lockmon: wrote %s profile to %s\n", metric, *out)
	}
	if *folded != "" {
		f, err := os.Create(*folded)
		if err != nil {
			die(err)
		}
		if err := snap.WriteFolded(f, metric); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "lockmon: wrote folded stacks to %s\n", *folded)
	}
}

// printProfileTop renders the hottest call sites, one line per record,
// ordered by the chosen metric's time value.
func printProfileTop(snap *ollock.ProfileSnapshot, metric ollock.ProfileMetric, top int) {
	recs := make([]ollock.ProfileRecord, len(snap.Records))
	copy(recs, snap.Records)
	value := func(r ollock.ProfileRecord) (count, ns uint64) {
		if metric == ollock.ProfileHold {
			return r.Holds, r.HeldNs
		}
		return r.Contentions, r.DelayNs
	}
	sort.SliceStable(recs, func(i, j int) bool {
		_, a := value(recs[i])
		_, b := value(recs[j])
		return a > b
	})
	fmt.Printf("%s profile: rate=1/%d records=%d dropped=%d\n\n",
		metric, snap.Rate, len(recs), snap.Dropped)
	fmt.Printf("  %12s %14s  %s\n", "count", "time", "call site")
	n := 0
	for _, r := range recs {
		count, ns := value(r)
		if count == 0 {
			continue
		}
		site := r.Site()
		fmt.Printf("  %12d %14s  %s %s:%d (lock=%s)\n",
			count, time.Duration(ns), site.Func, filepath.Base(site.File), site.Line, r.Lock)
		n++
		if n >= top {
			break
		}
	}
	if n == 0 {
		fmt.Println("  (no samples — longer -duration, lower -rate, or more contention needed)")
	}
}

func cmdProfcheck(args []string) {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		die(err)
	}
	parsed, err := prof.Parse(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockmon: %s: %v\n", args[0], err)
		os.Exit(1)
	}
	schema := make([]string, 0, len(parsed.SampleTypes))
	for _, vt := range parsed.SampleTypes {
		schema = append(schema, vt.Type+"/"+vt.Unit)
	}
	want := strings.Join(schema, " ")
	switch want {
	case "contentions/count delay/nanoseconds", "holds/count held/nanoseconds":
	default:
		fmt.Fprintf(os.Stderr, "lockmon: %s: unexpected sample schema %q\n", args[0], want)
		os.Exit(1)
	}
	if len(parsed.Samples) == 0 {
		fmt.Fprintf(os.Stderr, "lockmon: %s: profile has no samples\n", args[0])
		os.Exit(1)
	}
	fmt.Printf("%s: valid pprof profile (%s, %d samples)\n", args[0], want, len(parsed.Samples))
}

func cmdCheckfmt(args []string) {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		die(err)
	}
	if err := metrics.ValidateExposition(data); err != nil {
		fmt.Fprintf(os.Stderr, "lockmon: %s: %v\n", args[0], err)
		os.Exit(1)
	}
	fmt.Printf("%s: valid Prometheus exposition\n", args[0])
}
