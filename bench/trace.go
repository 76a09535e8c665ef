package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The traced run records spans from the benchmark's own files, keeps
// them in memory, and writes them when the run ends, as Chrome
// trace-event JSON (chrome://tracing, Perfetto). A per-call clock read
// (~20 ns) would swamp a 30 ns lock, so on the host a span is one batch
// of one ladder rung, its parent the same round's batch of the rung
// below; on the simulator a span is one acquisition with wait, hold and
// release children, stamped in simulated time.

// traceEvent is one complete ("X") event, or a process-name metadata
// ("M") event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer collects the spans of one workload; every span carries the
// workload's name as its shared identifier.
type tracer struct {
	workload string
	events   []traceEvent
	nextID   int
	begin    time.Time
	// hostIDs finds the host span of (rung, round) when a later rung of
	// the same round names it as parent.
	hostIDs map[string]int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, begin: time.Now(), hostIDs: map[string]int{}}
}

func (t *tracer) process(pid int, name string) {
	t.events = append(t.events, traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
}

// span appends one span and returns its id; parent 0 means none.
func (t *tracer) span(name string, pid, tid int, startUs, endUs float64, parent int) int {
	t.nextID++
	t.events = append(t.events, traceEvent{
		Name: name, Cat: t.workload, Ph: "X", Ts: startUs, Dur: endUs - startUs, Pid: pid, Tid: tid,
		Args: map[string]any{"id": t.nextID, "parent": parent, "workload": t.workload},
	})
	return t.nextID
}

const hostPid = 1

// hostBatch records one kept batch of a rung. Rungs are measured
// parents first within a round, so the parent's span already exists.
func (t *tracer) hostBatch(r *rung, tid, round int, start, end time.Time) {
	parent := t.hostIDs[fmt.Sprintf("%s/%d", r.parent, round)]
	us := func(at time.Time) float64 { return float64(at.Sub(t.begin).Nanoseconds()) / 1e3 }
	t.hostIDs[fmt.Sprintf("%s/%d", r.name, round)] = t.span(r.name, hostPid, tid, us(start), us(end), parent)
}

// simAcquisitions records the kept acquisitions of one simulated run,
// in simulated microseconds.
func (t *tracer) simAcquisitions(pid int, res *simResult) {
	t.process(pid, fmt.Sprintf("sim %s t%d r%d", res.Spec.label(), res.Spec.Threads, res.Spec.ReadPct))
	us := func(cycles int64) float64 { return cyclesToNs(float64(cycles)) / 1e3 }
	for _, s := range res.Spans {
		name := "write"
		if s.Read {
			name = "read"
		}
		acq := t.span(name, pid, s.Thread, us(s.Call), us(s.Freed), 0)
		t.span("wait", pid, s.Thread, us(s.Call), us(s.Own), acq)
		t.span("hold", pid, s.Thread, us(s.Own), us(s.Done), acq)
		t.span("release", pid, s.Thread, us(s.Done), us(s.Freed), acq)
	}
}

func (t *tracer) write(path string) error {
	return writeJSON(path, map[string]any{"displayTimeUnit": "ns", "traceEvents": t.events})
}

// writeJSON writes v to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
