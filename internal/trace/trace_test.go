package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPackAcquireRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		lat   int64
		route Route
	}{
		{0, RouteNone},
		{1, RouteRoot},
		{12345, RouteTree},
		{1 << 40, RouteDirect},
		{1<<60 - 1, RouteJoin},
		{-5, RouteBravoFast}, // negative latency clamps to 0
	} {
		e := Event{Arg: PackAcquire(tc.lat, tc.route)}
		wantLat := tc.lat
		if wantLat < 0 {
			wantLat = 0
		}
		if e.Latency() != wantLat {
			t.Errorf("PackAcquire(%d, %v): Latency = %d, want %d", tc.lat, tc.route, e.Latency(), wantLat)
		}
		if e.Route() != tc.route {
			t.Errorf("PackAcquire(%d, %v): Route = %v, want %v", tc.lat, tc.route, e.Route(), tc.route)
		}
	}
}

func TestPackHandoff(t *testing.T) {
	if got := PackHandoff(3, true); got != 3<<1|1 {
		t.Errorf("PackHandoff(3, true) = %d", got)
	}
	if got := PackHandoff(7, false); got != 7<<1 {
		t.Errorf("PackHandoff(7, false) = %d", got)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(1); k < NumKinds; k++ {
		name := k.String()
		if name == "" || name == "kind?" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if _, ok := KindByName("no.such.kind"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
}

// TestNilLocalIsNoOp pins the zero-overhead-off discipline: every
// emission method on a nil Local (and nil Tracer/LockTrace upstream)
// is safe and free of allocation.
func TestNilLocalIsNoOp(t *testing.T) {
	var tr *Tracer
	lt := tr.Register("x")
	if lt != nil {
		t.Fatal("nil Tracer.Register returned non-nil handle")
	}
	l := lt.NewLocal(0)
	if l != nil {
		t.Fatal("nil LockTrace.NewLocal returned non-nil Local")
	}
	if n := testing.AllocsPerRun(100, func() {
		t0 := l.Now()
		l.Begin(PhaseQueueWait)
		l.BeginAt(t0, PhaseArrive)
		l.Emit(KindHandoff, PhaseNone, 1)
		l.EmitAt(t0, KindIndOpen, PhaseNone, 0)
		l.Acquired(KindReadAcquired, t0, RouteRoot)
		l.End(PhaseRevoke)
		l.Released(KindReadReleased)
	}); n != 0 {
		t.Fatalf("nil Local methods allocate %.1f times per run, want 0", n)
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil Tracer.Snapshot returned events")
	}
}

// TestRingWrapKeepsNewest fills a ring past capacity and checks the
// snapshot window holds exactly the newest capEvents-1 events, oldest
// first: the oldest slot of a wrapped ring is the one an in-flight put
// would be overwriting, so snapshot never reports it.
func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(4) // rounds to 4
	l := tr.Register("l").NewLocal(0)
	for i := 0; i < 11; i++ {
		l.EmitAt(int64(i), KindHandoff, PhaseNone, uint64(i))
	}
	evs := tr.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot has %d events, want 3 (ring capacity less the in-flight slot)", len(evs))
	}
	for i, e := range evs {
		if want := uint64(8 + i); e.Arg != want {
			t.Errorf("event %d: arg = %d, want %d (newest window, oldest first)", i, e.Arg, want)
		}
	}
}

// TestSnapshotMergesAndSorts interleaves two procs' rings with
// out-of-order timestamps and checks the merged snapshot is
// time-sorted with proc as tie-break.
func TestSnapshotMergesAndSorts(t *testing.T) {
	tr := New(16)
	lt := tr.Register("l")
	a, b := lt.NewLocal(0), lt.NewLocal(1)
	a.EmitAt(30, KindIndOpen, PhaseNone, 0)
	a.EmitAt(10, KindIndClose, PhaseNone, 0)
	b.EmitAt(20, KindHandoff, PhaseNone, 0)
	b.EmitAt(10, KindIndDrain, PhaseNone, 0)
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Ts < evs[i-1].Ts {
			t.Fatalf("snapshot not time-sorted: %v", evs)
		}
		if evs[i].Ts == evs[i-1].Ts && evs[i].Proc < evs[i-1].Proc {
			t.Fatalf("tie not broken by proc: %v", evs)
		}
	}
}

// TestSnapshotConcurrentWithEmitter drives one emitter goroutine while
// snapshotting repeatedly; under -race this checks the single-writer
// ring + concurrent-reader protocol is data-race-free, and every
// returned event must be well-formed (never torn: a torn slot would
// surface as an out-of-window timestamp).
func TestSnapshotConcurrentWithEmitter(t *testing.T) {
	tr := New(64)
	l := tr.Register("l").NewLocal(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.EmitAt(int64(i), KindHandoff, PhaseNone, i)
		}
	}()
	for i := 0; i < 200; i++ {
		for _, e := range tr.Snapshot() {
			if e.Kind != KindHandoff || uint64(e.Ts) != e.Arg {
				t.Errorf("torn or corrupt event: %+v", e)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestStallWordLifecycle checks Begin publishes the watchdog stall
// word and Acquired/End retract it.
func TestStallWordLifecycle(t *testing.T) {
	tr := New(16)
	l := tr.Register("l").NewLocal(3)
	if _, _, ok := l.stall(); ok {
		t.Fatal("fresh Local reports waiting")
	}
	l.BeginAt(100, PhaseQueueWait)
	ph, since, ok := l.stall()
	if !ok || ph != PhaseQueueWait || since != 100 {
		t.Fatalf("stall() = %v, %d, %v; want queue.wait, 100, true", ph, since, ok)
	}
	l.Acquired(KindReadAcquired, 100, RouteDirect)
	if _, _, ok := l.stall(); ok {
		t.Fatal("Acquired did not retract the stall word")
	}
	l.Begin(PhaseRevoke)
	l.End(PhaseRevoke)
	if _, _, ok := l.stall(); ok {
		t.Fatal("End did not retract the stall word")
	}
}

// stringDumper implements StateDumper with a fixed payload.
type stringDumper struct{ s string }

func (d stringDumper) DumpLockState(w io.Writer) { io.WriteString(w, d.s) }

// TestWatchdogReportsWedgedWaiter wedges a fake waiter (a Local whose
// Begin is backdated past the threshold) and checks CheckNow finds the
// stall, reports it once with the registered dumper's live state, and
// records a KindStall event on the watchdog's ring.
func TestWatchdogReportsWedgedWaiter(t *testing.T) {
	tr := New(64)
	lt := tr.Register("goll")
	lt.AddDumper(stringDumper{"queue: 1 waiter (wedged)\n"})
	l := lt.NewLocal(7)

	var buf bytes.Buffer
	wd := NewWatchdog(tr, 5*time.Millisecond, &buf)

	// Wedge: the wait starts at the tracer epoch and real time advances
	// past the threshold before the scan.
	l.BeginAt(1, PhaseQueueWait)
	time.Sleep(20 * time.Millisecond)

	stalls := wd.CheckNow()
	if len(stalls) != 1 {
		t.Fatalf("CheckNow found %d stalls, want 1", len(stalls))
	}
	s := stalls[0]
	if s.Lock != "goll" || s.Proc != 7 || s.Phase != PhaseQueueWait {
		t.Fatalf("stall = %+v", s)
	}
	if s.Waited < 5*time.Millisecond {
		t.Fatalf("waited = %v, want >= threshold", s.Waited)
	}
	out := buf.String()
	if !strings.Contains(out, `proc 7 of lock "goll" stuck in queue.wait`) {
		t.Fatalf("report missing stall header:\n%s", out)
	}
	if !strings.Contains(out, "queue: 1 waiter (wedged)") {
		t.Fatalf("report missing dumper output:\n%s", out)
	}

	// Same stall again: found but not re-reported.
	buf.Reset()
	if again := wd.CheckNow(); len(again) != 1 {
		t.Fatalf("second CheckNow found %d stalls, want 1", len(again))
	}
	if buf.Len() != 0 {
		t.Fatalf("duplicate stall re-reported:\n%s", buf.String())
	}

	// The stall is also an event in the recording.
	var stallEvents int
	for _, e := range tr.Snapshot() {
		if e.Kind == KindStall {
			stallEvents++
			if e.Proc != 7 || e.Phase != PhaseQueueWait {
				t.Fatalf("stall event = %+v", e)
			}
		}
	}
	if stallEvents != 1 {
		t.Fatalf("recording has %d stall events, want 1", stallEvents)
	}

	// Acquisition clears the stall; the next scan is quiet.
	l.Acquired(KindReadAcquired, 0, RouteDirect)
	if quiet := wd.CheckNow(); len(quiet) != 0 {
		t.Fatalf("stall survived acquisition: %+v", quiet)
	}
}

// TestFoldAccountingIdentity checks the profile's invariant on a
// synthetic slow acquisition: explicit spans partition the packed
// latency, the remainder lands in arrive, and coverage is exactly 1.
func TestFoldAccountingIdentity(t *testing.T) {
	evs := []Event{
		// Proc 0: acquisition with latency 100, of which 70 was an
		// explicit queue.wait span -> 30 must fall to arrive.
		{Ts: 130, Proc: 0, Kind: KindPhaseBegin, Phase: PhaseQueueWait},
		{Ts: 200, Proc: 0, Kind: KindReadAcquired, Arg: PackAcquire(100, RouteDirect)},
		// Proc 1: standalone revoke span of 40 (no acquisition).
		{Ts: 300, Proc: 1, Kind: KindPhaseBegin, Phase: PhaseRevoke},
		{Ts: 340, Proc: 1, Kind: KindPhaseEnd, Phase: PhaseRevoke},
	}
	sortEvents(evs)
	p := Fold(evs, func(uint16) string { return "goll" })
	if p.Acquires != 1 {
		t.Fatalf("acquires = %d, want 1", p.Acquires)
	}
	if p.TotalWait != 140 {
		t.Fatalf("total wait = %d, want 140", p.TotalWait)
	}
	if p.Coverage() != 1 {
		t.Fatalf("coverage = %v, want 1", p.Coverage())
	}
	byPhase := map[string]time.Duration{}
	for _, r := range p.Rows {
		byPhase[r.Phase] = r.Total
	}
	if byPhase["queue.wait"] != 70 || byPhase["arrive"] != 30 || byPhase["revoke"] != 40 {
		t.Fatalf("phase totals = %v, want queue.wait=70 arrive=30 revoke=40", byPhase)
	}
}

// TestFoldNeverOverAttributes: when clock granularity makes the spans
// sum past the packed latency, attribution clamps to the latency.
func TestFoldNeverOverAttributes(t *testing.T) {
	evs := []Event{
		{Ts: 0, Proc: 0, Kind: KindPhaseBegin, Phase: PhaseQueueWait},
		// Span covers 100ns but the packed latency says 60.
		{Ts: 100, Proc: 0, Kind: KindReadAcquired, Arg: PackAcquire(60, RouteDirect)},
	}
	p := Fold(evs, func(uint16) string { return "l" })
	if p.TotalWait != 60 || p.Attributed != 60 {
		t.Fatalf("total=%d attributed=%d, want 60/60", p.TotalWait, p.Attributed)
	}
	if c := p.Coverage(); c != 1 {
		t.Fatalf("coverage = %v, want 1 (clamped)", c)
	}
}

// TestRecordingRoundTrip serializes a live snapshot and decodes it
// back, checking events survive the JSON round trip.
func TestRecordingRoundTrip(t *testing.T) {
	tr := New(16)
	lt := tr.Register("roll")
	l := lt.NewLocal(2)
	l.BeginAt(10, PhaseQueueWait)
	l.Acquired(KindWriteAcquired, tr.Now()-1234, RouteDirect)
	l.Released(KindWriteReleased)

	rec := tr.Record()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs, lockName, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("decoded %d events, want 3", len(evs))
	}
	if lockName(evs[0].Lock) != "roll" {
		t.Fatalf("lock name = %q, want roll", lockName(evs[0].Lock))
	}
	var acq *Event
	for i := range evs {
		if evs[i].Kind == KindWriteAcquired {
			acq = &evs[i]
		}
	}
	if acq == nil {
		t.Fatal("write.acquired lost in round trip")
	}
	if acq.Route() != RouteDirect || acq.Latency() < 1234 {
		t.Fatalf("acquired arg lost: route=%v lat=%d", acq.Route(), acq.Latency())
	}
}

func TestReadRecordingRejectsBadVersion(t *testing.T) {
	_, err := ReadRecording(strings.NewReader(`{"version": 99, "locks": [], "events": []}`))
	if err == nil {
		t.Fatal("version 99 accepted")
	}
}

// TestWriteChromeTrace checks the exporter's output is valid JSON in
// the Chrome trace-event shape: process/thread metadata, an acquire
// span enclosing the phase span, a held span, and shifted pid/tid (no
// pid 0, tids clear of the proc=-1 watchdog track).
func TestWriteChromeTrace(t *testing.T) {
	evs := []Event{
		{Ts: 1000, Proc: 0, Kind: KindPhaseBegin, Phase: PhaseQueueWait},
		{Ts: 2000, Proc: 0, Kind: KindReadAcquired, Arg: PackAcquire(1500, RouteDirect)},
		{Ts: 5000, Proc: 0, Kind: KindReadReleased},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs, func(uint16) string { return "goll" }); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int64   `json:"pid"`
			Tid  int64   `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v", err)
	}
	want := map[string]bool{}
	for _, e := range out.TraceEvents {
		if e.Pid == 0 {
			t.Errorf("event %q has pid 0", e.Name)
		}
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			want["process"] = true
		case e.Ph == "M" && e.Name == "thread_name":
			want["thread"] = true
		case e.Ph == "X" && e.Name == "queue.wait":
			want["phase"] = true
			if e.Ts != 1.0 || e.Dur != 1.0 { // us
				t.Errorf("phase span ts=%v dur=%v, want 1/1", e.Ts, e.Dur)
			}
		case e.Ph == "X" && e.Name == "acquire.read":
			want["acquire"] = true
			if e.Ts != 0.5 || e.Dur != 1.5 {
				t.Errorf("acquire span ts=%v dur=%v, want 0.5/1.5", e.Ts, e.Dur)
			}
		case e.Ph == "X" && e.Name == "read.held":
			want["held"] = true
			if e.Ts != 2.0 || e.Dur != 3.0 {
				t.Errorf("held span ts=%v dur=%v, want 2/3", e.Ts, e.Dur)
			}
		}
	}
	for _, k := range []string{"process", "thread", "phase", "acquire", "held"} {
		if !want[k] {
			t.Errorf("exporter output missing %s record", k)
		}
	}
}
