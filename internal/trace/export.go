// Recording serialization and the Perfetto/Chrome trace-event exporter.
//
// A Recording is the portable JSON form of a snapshot (lockmon record
// writes one; lockmon export/top read it back). WriteChromeTrace turns
// a snapshot into Chrome trace-event JSON — the format Perfetto and
// chrome://tracing load — rendering each lock as a process and each
// proc as a track whose phase spans nest inside its acquisition spans.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RecordingVersion identifies the recording JSON layout.
const RecordingVersion = 1

// JSONEvent is one event in a Recording: the Event fields with enums
// spelled out so recordings are self-describing and diffable.
type JSONEvent struct {
	Ts    int64  `json:"ts"`
	Proc  int32  `json:"proc"`
	Lock  string `json:"lock"`
	Kind  string `json:"kind"`
	Phase string `json:"phase,omitempty"`
	Arg   uint64 `json:"arg,omitempty"`
	// Route and Lat decode Arg for the *.acquired kinds.
	Route string `json:"route,omitempty"`
	Lat   int64  `json:"lat,omitempty"`
}

// Recording is the portable form of a trace snapshot.
type Recording struct {
	Version int         `json:"version"`
	Locks   []string    `json:"locks"`
	Events  []JSONEvent `json:"events"`
}

// Record snapshots the tracer into a portable Recording.
func (t *Tracer) Record() Recording {
	rec := Recording{Version: RecordingVersion}
	if t == nil {
		return rec
	}
	t.mu.Lock()
	for _, le := range t.locks {
		rec.Locks = append(rec.Locks, le.name)
	}
	t.mu.Unlock()
	for _, e := range t.Snapshot() {
		je := JSONEvent{
			Ts:   e.Ts,
			Proc: e.Proc,
			Lock: t.LockName(e.Lock),
			Kind: e.Kind.String(),
		}
		if e.Phase != PhaseNone {
			je.Phase = e.Phase.String()
		}
		switch e.Kind {
		case KindReadAcquired, KindWriteAcquired:
			je.Route = e.Route().String()
			je.Lat = e.Latency()
		default:
			je.Arg = e.Arg
		}
		rec.Events = append(rec.Events, je)
	}
	return rec
}

// WriteJSON writes the recording as indented JSON.
func (rec Recording) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rec)
}

// ReadRecording parses a recording written by WriteJSON.
func ReadRecording(r io.Reader) (Recording, error) {
	var rec Recording
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return rec, err
	}
	if rec.Version != RecordingVersion {
		return rec, fmt.Errorf("trace: unsupported recording version %d", rec.Version)
	}
	return rec, nil
}

// Decode converts the recording back to binary events plus a lock-name
// resolver, so the profile and exporter run identically on live
// snapshots and on recordings read from disk.
func (rec Recording) Decode() ([]Event, func(uint16) string, error) {
	ids := map[string]uint16{}
	names := append([]string(nil), rec.Locks...)
	for i, n := range names {
		ids[n] = uint16(i)
	}
	lookup := func(id uint16) string {
		if int(id) < len(names) {
			return names[id]
		}
		return "lock?"
	}
	evs := make([]Event, 0, len(rec.Events))
	for i, je := range rec.Events {
		k, ok := KindByName(je.Kind)
		if !ok {
			return nil, nil, fmt.Errorf("trace: event %d: unknown kind %q", i, je.Kind)
		}
		id, ok := ids[je.Lock]
		if !ok {
			id = uint16(len(names))
			names = append(names, je.Lock)
			ids[je.Lock] = id
		}
		e := Event{Ts: je.Ts, Proc: je.Proc, Lock: id, Kind: k, Arg: je.Arg}
		if je.Phase != "" {
			for p := Phase(0); p < NumPhases; p++ {
				if p.String() == je.Phase {
					e.Phase = p
					break
				}
			}
		}
		if k == KindReadAcquired || k == KindWriteAcquired {
			r := RouteNone
			for cand := Route(0); cand < numRoutes; cand++ {
				if cand.String() == je.Route {
					r = cand
					break
				}
			}
			e.Arg = PackAcquire(je.Lat, r)
		}
		evs = append(evs, e)
	}
	sortEvents(evs)
	return evs, lookup, nil
}

// chromeEvent is one Chrome trace-event object. Fields follow the
// Trace Event Format spec (ph: "X" complete, "i" instant, "M"
// metadata); ts/dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func durp(ns int64) *float64 {
	if ns < 0 {
		ns = 0
	}
	d := us(ns)
	return &d
}

// WriteChromeTrace renders events (a Snapshot or a decoded Recording)
// as Chrome trace-event JSON: one process per lock, one track (thread)
// per proc. Acquisition spans ("acquire.read"/"acquire.write", built
// from the latency packed into Acquired events) enclose the explicit
// phase spans; held spans run from Acquired to the next Released;
// everything else renders as an instant.
func WriteChromeTrace(w io.Writer, evs []Event, lockName func(uint16) string) error {
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	type key struct {
		lock uint16
		proc int32
	}
	type open struct {
		phase Phase
		ts    int64
	}
	type held struct {
		kind Kind
		ts   int64
	}
	opens := map[key]open{}
	helds := map[key]held{}
	seenLock := map[uint16]bool{}
	seenTrack := map[key]bool{}
	// pid 0 confuses some consumers; shift ids by 1. Procs can be -1
	// (tracer-internal tracks), so shift tids by 2.
	pid := func(l uint16) int64 { return int64(l) + 1 }
	tid := func(p int32) int64 { return int64(p) + 2 }

	meta := func(k key) {
		if !seenLock[k.lock] {
			seenLock[k.lock] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid(k.lock), Tid: 0,
				Args: map[string]any{"name": lockName(k.lock)},
			})
		}
		if !seenTrack[k] {
			seenTrack[k] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid(k.lock), Tid: tid(k.proc),
				Args: map[string]any{"name": fmt.Sprintf("proc %d", k.proc)},
			})
		}
	}
	span := func(k key, name, cat string, from, to int64, args map[string]any) {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Ph: "X", Cat: cat, Ts: us(from), Dur: durp(to - from),
			Pid: pid(k.lock), Tid: tid(k.proc), Args: args,
		})
	}
	closeOpen := func(k key, to int64) {
		if o, ok := opens[k]; ok {
			span(k, o.phase.String(), "phase", o.ts, to, nil)
			delete(opens, k)
		}
	}

	for _, e := range evs {
		k := key{e.Lock, e.Proc}
		meta(k)
		switch e.Kind {
		case KindPhaseBegin:
			closeOpen(k, e.Ts)
			opens[k] = open{e.Phase, e.Ts}
		case KindPhaseEnd:
			closeOpen(k, e.Ts)
		case KindReadAcquired, KindWriteAcquired:
			closeOpen(k, e.Ts)
			name := "acquire.read"
			if e.Kind == KindWriteAcquired {
				name = "acquire.write"
			}
			if lat := e.Latency(); lat > 0 {
				span(k, name, "acquire", e.Ts-lat, e.Ts,
					map[string]any{"route": e.Route().String()})
			}
			helds[k] = held{e.Kind, e.Ts}
		case KindReadReleased, KindWriteReleased:
			if h, ok := helds[k]; ok {
				name := PhaseReadHeld.String()
				if h.kind == KindWriteAcquired {
					name = PhaseWriteHeld.String()
				}
				span(k, name, "held", h.ts, e.Ts, nil)
				delete(helds, k)
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Kind.String(), Ph: "i", S: "t", Ts: us(e.Ts),
				Pid: pid(k.lock), Tid: tid(k.proc),
			})
		default:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Kind.String(), Ph: "i", S: "t", Ts: us(e.Ts),
				Pid: pid(k.lock), Tid: tid(k.proc),
				Args: map[string]any{"arg": e.Arg},
			})
		}
	}
	// Deterministic output: the span/instant stream follows event order
	// already; metadata events were interleaved at first sight, which is
	// valid, but sort all metadata first for readability.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		mi, mj := out.TraceEvents[i].Ph == "M", out.TraceEvents[j].Ph == "M"
		return mi && !mj
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
