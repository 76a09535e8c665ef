// Command lockmon is the host observability tool of the lock stack: it
// runs a configurable workload against an instrumented lock and
// exposes, dumps, profiles, records or diagnoses it, and it validates
// the files it and the benchmarks write.
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
//	lockmon record  [workload flags] [-duration 1s] [-events N] [-out trace.json]
//	lockmon export  [-out trace.chrome.json] trace.json
//	lockmon top     trace.json
//	lockmon watch   [-lock goll] [-indicator sharded] [-threads 4]
//	                [-threshold 50ms] [-hold 500ms]
//	lockmon check   [-schema FILE.schema.json] FILE...
//
// Workload flags (serve, sample, doctor, profile, record):
//
//	-lock goll -indicator csnzi -bias=false -wait spin
//	-threads 8 -readpct 95 -work 0 -seed 42
//
// serve runs the workload (forever with -duration 0) and serves
// /metrics (Prometheus text, or the JSON time series on Accept:
// application/json) and /doctor; -debug adds a call-site profiler and a
// tracer behind /debug/ollock/ (pprof profiles, folded stacks, a
// Perfetto trace). sample runs the workload for -duration and writes
// the sampled series as prom, json, or text (final counters, wait
// histograms and the doctor's report). doctor diagnoses the workload,
// or replays a scripted -scenario ("list" enumerates them), and exits 1
// when findings fire. profile prints the -top hottest call sites and
// writes the pprof protobuf (-o) and folded stacks (-folded) of the
// contention metric, or of the hold metric with -holds.
//
// record flight-records the workload and writes the portable recording
// (schema: TRACE_events.schema.json); export converts one to Chrome
// trace-event JSON for https://ui.perfetto.dev, and top folds one into
// a wait-time-by-phase-by-lock table. watch wedges a lock — a writer
// holds it for -hold while -threads readers pile up — under the stall
// watchdog, which names each stuck proc's wait phase and dumps the live
// queue and the decoded indicator word.
//
// check validates each file by its first bytes: a gzip stream must be a
// pprof profile with the contention or hold sample schema and at least
// one sample; a JSON document must conform to -schema (default
// TRACE_events.schema.json; BENCH_bravo.schema.json for the benchmark
// artifact); anything else must be a valid Prometheus exposition.
//
// Exit status: 0 on success, 1 when a check fails, the doctor finds
// something or I/O fails, 2 on usage errors. METRICS.md documents every
// exported metric; ALGORITHMS.md §14 specifies the doctor's rules.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"ollock/internal/jsonschema"
	"ollock/internal/metrics"
	"ollock/internal/prof"
	"ollock/internal/trace"
	"ollock/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage: lockmon serve|sample|doctor|profile|record [workload flags] [flags]
       lockmon export|top TRACE.json
       lockmon watch [flags]
       lockmon check [-schema FILE] FILE...
run "lockmon <subcommand> -h" for the subcommand's flags`

// usageError is a bad command line (exit 2). An empty message means the
// flag set has already printed its complaint.
type usageError string

func (e usageError) Error() string { return string(e) }

// errReported is a failure whose details are already printed (exit 1).
var errReported = errors.New("failure reported")

// run is the command: arguments in, output and exit status out.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	var sub func(args []string, stdout, stderr io.Writer) error
	switch args[0] {
	case "serve":
		sub = cmdServe
	case "sample":
		sub = cmdSample
	case "doctor":
		sub = cmdDoctor
	case "profile":
		sub = cmdProfile
	case "record":
		sub = cmdRecord
	case "export":
		sub = cmdExport
	case "top":
		sub = cmdTop
	case "watch":
		sub = cmdWatch
	case "check":
		sub = cmdCheck
	default:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	err := sub(args[1:], stdout, stderr)
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintln(stderr, "lockmon:", ue)
		}
		return 2
	case !errors.Is(err, errReported):
		fmt.Fprintln(stderr, "lockmon:", err)
	}
	return 1
}

// flagSet returns a subcommand's flag set, complaining to stderr.
func flagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("lockmon "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args; a bad flag, already reported, is a usage error.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError("")
	}
	return nil
}

// workloadFlags holds the workload shape shared by serve, sample,
// doctor, profile and record.
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

// build creates the instrumented lock per the flags; extra options
// (WithMetrics, WithProfile, WithTrace) are appended. A rejected
// combination is a usage error.
func (w *workloadFlags) build(extra ...ollock.Option) (ollock.Lock, error) {
	opts := []ollock.Option{
		ollock.WithStats(*w.lock),
		ollock.WithIndicator(ollock.IndicatorKind(*w.indicator)),
		ollock.WithWait(ollock.WaitMode(*w.wait)),
	}
	if *w.bias {
		opts = append(opts, ollock.WithBias())
	}
	l, err := ollock.New(ollock.Kind(*w.lock), *w.threads, append(opts, extra...)...)
	if err != nil {
		return nil, usageError(err.Error())
	}
	return l, nil
}

// run drives the workload for d (until the process exits when d is 0)
// and returns after every goroutine exits.
func (w *workloadFlags) run(l ollock.Lock, d time.Duration) {
	stop := make(chan struct{})
	if d > 0 {
		time.AfterFunc(d, func() { close(stop) })
	}
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

// writeOut renders write into memory, then writes the bytes to the file
// at path, or to stdout for "" and "-". Rendering first means no writer
// can drop a write or close error on the way out.
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		return err
	}
	if path == "" || path == "-" {
		_, err := stdout.Write(b.Bytes())
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func cmdServe(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("serve", stderr)
	w := addWorkloadFlags(fs)
	addr := fs.String("addr", ":9090", "listen address")
	period := fs.Duration("period", time.Second, "sampling period")
	duration := fs.Duration("duration", 0, "stop the workload after this long (0 = run until killed)")
	debug := fs.Bool("debug", false, "attach a profiler and tracer and serve /debug/ollock/")
	rate := fs.Int("rate", 8, "with -debug: profile one acquisition in this many per proc")
	if err := parse(fs, args); err != nil {
		return err
	}

	var p *ollock.Profiler
	var tr *ollock.Tracer
	var extra []ollock.Option
	mopts := []ollock.MetricsOption{ollock.MetricsPeriod(*period)}
	if *debug {
		p = ollock.NewProfiler(*rate)
		tr = ollock.NewTracer(0)
		extra = append(extra,
			ollock.WithProfile(p.Register(*w.lock)),
			ollock.WithTrace(tr.Register(*w.lock)))
		mopts = append(mopts, ollock.MetricsProfiler(p))
	}
	m := ollock.NewMetrics(mopts...)
	l, err := w.build(append(extra, ollock.WithMetrics(m))...)
	if err != nil {
		return err
	}
	m.Start()
	go w.run(l, *duration)

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
	fmt.Fprintf(stderr, "lockmon: serving %s on %s (lock=%s threads=%d readpct=%g)\n",
		surfaces, *addr, *w.lock, *w.threads, *w.readPct)
	return http.ListenAndServe(*addr, mux)
}

func cmdSample(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("sample", stderr)
	w := addWorkloadFlags(fs)
	period := fs.Duration("period", 100*time.Millisecond, "sampling period")
	duration := fs.Duration("duration", 2*time.Second, "workload duration")
	format := fs.String("format", "text", "output format: prom, json or text")
	out := fs.String("o", "", "write to this file instead of stdout")
	if err := parse(fs, args); err != nil {
		return err
	}

	m := ollock.NewMetrics(ollock.MetricsPeriod(*period))
	l, err := w.build(ollock.WithMetrics(m))
	if err != nil {
		return err
	}
	var write func(io.Writer) error
	switch *format {
	case "prom":
		write = m.WritePrometheus
	case "json":
		write = func(dst io.Writer) error {
			req, _ := http.NewRequest("GET", "/metrics.json", nil)
			req.Header.Set("Accept", "application/json")
			m.Handler().ServeHTTP(bodyWriter{dst}, req)
			return nil
		}
	case "text":
		write = func(dst io.Writer) error { printSummary(dst, l, m); return nil }
	default:
		return usageError(fmt.Sprintf("unknown -format %q", *format))
	}
	m.Start()
	w.run(l, *duration)
	m.Stop()
	m.Sample() // final point so the last partial period is covered
	return writeOut(*out, stdout, write)
}

// bodyWriter is an http.ResponseWriter that keeps only the body, so the
// metrics handler's JSON view can be written without a server.
type bodyWriter struct{ io.Writer }

func (bodyWriter) Header() http.Header { return http.Header{} }
func (bodyWriter) WriteHeader(int)     {}

// printSummary renders the human view: final counters, wait histograms,
// and the doctor's opinion.
func printSummary(dst io.Writer, l ollock.Lock, m *ollock.Metrics) {
	sn, _ := ollock.SnapshotOf(l) // build always instruments
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

func cmdDoctor(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("doctor", stderr)
	w := addWorkloadFlags(fs)
	period := fs.Duration("period", 100*time.Millisecond, "sampling period")
	duration := fs.Duration("duration", 2*time.Second, "workload duration")
	scenario := fs.String("scenario", "", `evaluate a scripted scenario instead of running a workload ("list" to enumerate)`)
	if err := parse(fs, args); err != nil {
		return err
	}

	var findings []ollock.Finding
	switch *scenario {
	case "list":
		fmt.Fprintln(stdout, strings.Join(doctor.ScenarioNames(), "\n"))
		return nil
	case "":
		m := ollock.NewMetrics(ollock.MetricsPeriod(*period))
		l, err := w.build(ollock.WithMetrics(m))
		if err != nil {
			return err
		}
		m.Start()
		w.run(l, *duration)
		m.Stop()
		findings = m.Diagnose(0)
	default:
		windows, err := doctor.Scenario(*scenario)
		if err != nil {
			return usageError(err.Error())
		}
		findings = doctor.Diagnose(doctor.DefaultConfig(), windows)
	}
	fmt.Fprintln(stdout, ollock.DoctorReport(findings))
	if len(findings) > 0 {
		return errReported
	}
	return nil
}

func cmdProfile(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("profile", stderr)
	w := addWorkloadFlags(fs)
	rate := fs.Int("rate", 8, "profile one acquisition in this many per proc")
	duration := fs.Duration("duration", 2*time.Second, "workload duration")
	top := fs.Int("top", 10, "call sites to print")
	out := fs.String("o", "", "write the pprof protobuf profile to this file")
	folded := fs.String("folded", "", "write folded flamegraph stacks to this file")
	holds := fs.Bool("holds", false, "export the hold metric instead of contention")
	if err := parse(fs, args); err != nil {
		return err
	}

	p := ollock.NewProfiler(*rate)
	m := ollock.NewMetrics(ollock.MetricsProfiler(p))
	l, err := w.build(ollock.WithMetrics(m), ollock.WithProfile(p.Register(*w.lock)))
	if err != nil {
		return err
	}
	m.Start()
	w.run(l, *duration)
	m.Stop()

	metric := ollock.ProfileContention
	if *holds {
		metric = ollock.ProfileHold
	}
	snap := p.Profile()
	printProfileTop(stdout, snap, metric, *top)
	if *out != "" {
		if err := writeOut(*out, stdout, func(dst io.Writer) error { return snap.WriteProfile(dst, metric) }); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "lockmon: wrote %s profile to %s\n", metric, *out)
	}
	if *folded != "" {
		if err := writeOut(*folded, stdout, func(dst io.Writer) error { return snap.WriteFolded(dst, metric) }); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "lockmon: wrote folded stacks to %s\n", *folded)
	}
	return nil
}

// printProfileTop renders the hottest call sites, one line per record,
// ordered by the chosen metric's time value.
func printProfileTop(dst io.Writer, snap *ollock.ProfileSnapshot, metric ollock.ProfileMetric, top int) {
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
	fmt.Fprintf(dst, "%s profile: rate=1/%d records=%d dropped=%d\n\n",
		metric, snap.Rate, len(recs), snap.Dropped)
	fmt.Fprintf(dst, "  %12s %14s  %s\n", "count", "time", "call site")
	n := 0
	for _, r := range recs {
		count, ns := value(r)
		if count == 0 {
			continue
		}
		site := r.Site()
		fmt.Fprintf(dst, "  %12d %14s  %s %s:%d (lock=%s)\n",
			count, time.Duration(ns), site.Func, filepath.Base(site.File), site.Line, r.Lock)
		n++
		if n >= top {
			break
		}
	}
	if n == 0 {
		fmt.Fprintln(dst, "  (no samples — longer -duration, lower -rate, or more contention needed)")
	}
}

func cmdRecord(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("record", stderr)
	w := addWorkloadFlags(fs)
	duration := fs.Duration("duration", time.Second, "workload duration")
	events := fs.Int("events", 0, "flight-recorder ring capacity per proc (0 = default)")
	out := fs.String("out", "trace.json", "recording file (- for stdout)")
	if err := parse(fs, args); err != nil {
		return err
	}

	tracer := ollock.NewTracer(*events)
	l, err := w.build(ollock.WithTrace(tracer.Register(*w.lock)))
	if err != nil {
		return err
	}
	w.run(l, *duration)
	rec := tracer.Record()
	if err := writeOut(*out, stdout, rec.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "lockmon: recorded %d events of %s\n", len(rec.Events), *w.lock)
	return nil
}

// readRecording decodes the one recording file args names ("-" reads
// standard input).
func readRecording(args []string) ([]trace.Event, func(uint16) string, error) {
	if len(args) != 1 {
		return nil, nil, usageError("want exactly one recording file")
	}
	r := io.Reader(os.Stdin)
	if args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	rec, err := trace.ReadRecording(r)
	if err != nil {
		return nil, nil, err
	}
	return rec.Decode()
}

func cmdExport(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("export", stderr)
	out := fs.String("out", "-", "output Chrome trace file (- for stdout)")
	if err := parse(fs, args); err != nil {
		return err
	}
	evs, lockName, err := readRecording(fs.Args())
	if err != nil {
		return err
	}
	return writeOut(*out, stdout, func(dst io.Writer) error { return trace.WriteChromeTrace(dst, evs, lockName) })
}

func cmdTop(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("top", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	evs, lockName, err := readRecording(fs.Args())
	if err != nil {
		return err
	}
	trace.Fold(evs, lockName).WriteTop(stdout)
	return nil
}

func cmdWatch(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("watch", stderr)
	lock := fs.String("lock", "goll", "lock kind to wedge: "+kindList())
	indicator := fs.String("indicator", "sharded", "read indicator: csnzi, central or sharded")
	threads := fs.Int("threads", 4, "readers to pile up behind the held write lock")
	threshold := fs.Duration("threshold", 50*time.Millisecond, "stall threshold")
	hold := fs.Duration("hold", 500*time.Millisecond, "how long the writer wedges the lock")
	if err := parse(fs, args); err != nil {
		return err
	}

	tracer := ollock.NewTracer(0)
	l, err := ollock.New(ollock.Kind(*lock), *threads+1,
		ollock.WithTrace(tracer.Register(*lock)),
		ollock.WithIndicator(ollock.IndicatorKind(*indicator)))
	if err != nil {
		return usageError(err.Error())
	}
	// Wedge the lock while readers queue up; until wd.Stop only the
	// watchdog writes to stdout.
	writer := l.NewProc()
	writer.Lock()
	fmt.Fprintf(stdout, "lockmon: writer holding %s for %v; %d readers piling up\n", *lock, *hold, *threads)
	wd := ollock.NewTraceWatchdog(tracer, *threshold, stdout)
	wd.Start()
	var wg sync.WaitGroup
	for i := 0; i < *threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := l.NewProc()
			p.RLock()
			p.RUnlock()
		}()
	}
	time.Sleep(*hold)
	wd.Stop()
	stalls := wd.CheckNow() // reports a stall that crossed the threshold since the last tick
	writer.Unlock()
	wg.Wait()
	fmt.Fprintf(stdout, "lockmon: %d procs stalled when the writer released %s\n", len(stalls), *lock)
	return nil
}

func cmdCheck(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("check", stderr)
	schema := fs.String("schema", "TRACE_events.schema.json", "JSON schema the JSON files must conform to")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usageError("check: want one or more files")
	}
	var failed error
	for _, path := range fs.Args() {
		verdict, err := checkFile(path, *schema)
		if err != nil {
			fmt.Fprintf(stderr, "lockmon: %s: %v\n", path, err)
			failed = errReported
			continue
		}
		fmt.Fprintf(stdout, "%s: %s\n", path, verdict)
	}
	return failed
}

// checkFile validates one file in the format its first bytes announce.
func checkFile(path, schemaPath string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	switch {
	case bytes.HasPrefix(data, []byte{0x1f, 0x8b}): // gzip magic
		parsed, err := prof.Parse(data)
		if err != nil {
			return "", err
		}
		schema := make([]string, 0, len(parsed.SampleTypes))
		for _, vt := range parsed.SampleTypes {
			schema = append(schema, vt.Type+"/"+vt.Unit)
		}
		got := strings.Join(schema, " ")
		switch got {
		case "contentions/count delay/nanoseconds", "holds/count held/nanoseconds":
		default:
			return "", fmt.Errorf("unexpected sample schema %q", got)
		}
		if len(parsed.Samples) == 0 {
			return "", errors.New("profile has no samples")
		}
		return fmt.Sprintf("valid pprof profile (%s, %d samples)", got, len(parsed.Samples)), nil
	case bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")):
		raw, err := os.ReadFile(schemaPath)
		if err != nil {
			return "", err
		}
		var schema jsonschema.Schema
		if err := json.Unmarshal(raw, &schema); err != nil {
			return "", fmt.Errorf("%s: %w", schemaPath, err)
		}
		if err := jsonschema.ValidateBytes(&schema, data); err != nil {
			return "", err
		}
		return "conforms to " + schemaPath, nil
	default:
		if err := metrics.ValidateExposition(data); err != nil {
			return "", err
		}
		return "valid Prometheus exposition", nil
	}
}
