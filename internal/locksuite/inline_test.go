package locksuite

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ollock/internal/csnzi"
	"ollock/internal/foll"
	"ollock/internal/goll"
	"ollock/internal/lockcore"
	"ollock/internal/obs"
	"ollock/internal/rind"
	"ollock/internal/roll"
	"ollock/internal/trace"
)

// GOLL, FOLL and ROLL resolve their default indicator once, at
// construction, and from then on make the conflict-free read arrival
// and departure inline on the C-SNZI root word (rind.Root,
// csnzi.ArriveRoot/DepartRoot). These tests hold the inline route to
// being the same protocol as the calls through rind.Indicator it
// stands in front of.

// opaque hides an indicator's concrete type, which defeats the
// resolution: a lock over it reaches the same C-SNZI through the
// interface alone, as it did before the inline route existed.
type opaque struct{ rind.Indicator }

// routeLock is one OLL lock with stats and tracing on.
type routeLock struct {
	mk func() TryProc
	st *obs.Stats
	tr *trace.Tracer
}

// newRouteLock builds kind for maxProcs goroutines over C-SNZIs
// configured by opts — directly (the inline route) or, with hide,
// behind opaque (the interface route). The C-SNZIs count into the
// lock's own block either way: the wrapper hides them from
// rind.Instrument too.
func newRouteLock(kind string, maxProcs int, hide bool, opts ...csnzi.Option) routeLock {
	st := statsFor(kind)
	tr := trace.New(1 << 12)
	in := lockcore.Instr{Stats: st, Trace: tr.Register(kind)}
	opts = append(opts[:len(opts):len(opts)], csnzi.WithStats(st))
	f := func() rind.Indicator {
		if hide {
			return opaque{rind.NewCSNZI(opts...)}
		}
		return rind.NewCSNZI(opts...)
	}
	rl := routeLock{st: st, tr: tr}
	switch kind {
	case "goll":
		l := goll.New(goll.WithInstr(in), goll.WithIndicator(f()))
		rl.mk = func() TryProc { return l.NewProc() }
	case "foll":
		l := foll.New(maxProcs, foll.WithInstr(in), foll.WithIndicator(f))
		rl.mk = func() TryProc { return l.NewProc() }
	case "roll":
		l := roll.New(maxProcs, roll.WithInstr(in), roll.WithIndicator(f))
		rl.mk = func() TryProc { return l.NewProc() }
	default:
		panic("locksuite: no route lock for " + kind)
	}
	return rl
}

// await waits until proc's trace ring holds an event matching want.
func (rl routeLock) await(t *testing.T, proc int32, what string, want func(trace.Event) bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		for _, e := range rl.tr.Snapshot() {
			if e.Proc == proc && want(e) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for proc %d to %s", proc, what)
		}
	}
}

// background runs f on its own goroutine and returns a channel closed
// when it returns.
func background(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// runRouteScript drives one lock through every way a read acquisition
// meets the indicator. Blocking steps are sequenced on the waiter's own
// trace events, so the per-proc event order is the same on every run.
func runRouteScript(t *testing.T, rl routeLock) {
	t.Helper()
	p := []TryProc{rl.mk(), rl.mk(), rl.mk(), rl.mk()}
	// Read pairs, write pairs and successful tries on a free lock.
	for i := 0; i < 3; i++ {
		p[0].RLock()
		p[0].RUnlock()
		p[1].Lock()
		p[1].Unlock()
	}
	if !p[0].TryLock() {
		t.Fatal("TryLock failed on a free lock")
	}
	p[0].Unlock()
	if !p[0].TryRLock() {
		t.Fatal("TryRLock failed on a free lock")
	}
	p[0].RUnlock()
	// A second reader alongside the first.
	p[0].RLock()
	p[1].RLock()
	p[1].RUnlock()
	// A writer closes the indicator behind reader 0; tries now fail —
	// for GOLL on the closed word itself; reader 0 departs last, drains,
	// and hands off.
	wrote := background(p[2].Lock)
	rl.await(t, 2, "close the indicator", func(e trace.Event) bool { return e.Kind == trace.KindIndClose })
	if p[1].TryRLock() || p[1].TryLock() {
		t.Fatal("try succeeded behind a waiting writer")
	}
	p[0].RUnlock()
	<-wrote
	// A reader arrives behind the closer and waits; a second writer (no
	// history: its first queue events are these) queues behind the
	// reader, finds the group occupied — so not its to take empty — and
	// closes it under the reader, which is released, departs last, and
	// hands off.
	read := background(p[0].RLock)
	rl.await(t, 0, "wait behind the writer", func(e trace.Event) bool {
		return e.Kind == trace.KindPhaseBegin && (e.Phase == trace.PhaseQueueWait || e.Phase == trace.PhaseSpinWait)
	})
	wrote = background(p[3].Lock)
	rl.await(t, 3, "queue behind the reader", func(e trace.Event) bool { return e.Kind == trace.KindQueueEnqueue })
	p[2].Unlock()
	<-read
	rl.await(t, 3, "close the indicator", func(e trace.Event) bool { return e.Kind == trace.KindIndClose })
	p[0].RUnlock()
	<-wrote
	p[3].Unlock()
	if u, ok := p[0].(Upgrader); ok {
		p[0].RLock()
		if !u.TryUpgrade() {
			t.Fatal("TryUpgrade failed for the only reader")
		}
		u.Downgrade()
		p[0].RUnlock()
	}
	// Each proc's counter buffer flushes whole every obs.FlushEvery
	// events; these pairs push every count the script made through.
	for _, q := range p {
		for i := 0; i < obs.FlushEvery; i++ {
			q.RLock()
			q.RUnlock()
		}
	}
}

// eventShapes projects a recording onto what the protocol decides: per
// proc, each event's kind and phase, the route of an acquisition, and
// the argument of everything but acquisitions and phase spans (whose
// arguments are times).
func eventShapes(evs []trace.Event) map[int32][]string {
	out := map[int32][]string{}
	for _, e := range evs {
		s := fmt.Sprintf("%v/%v", e.Kind, e.Phase)
		switch e.Kind {
		case trace.KindReadAcquired, trace.KindWriteAcquired:
			s += "/" + e.Route().String()
		case trace.KindPhaseBegin, trace.KindPhaseEnd:
		default:
			s += fmt.Sprintf("/%d", e.Arg)
		}
		out[e.Proc] = append(out[e.Proc], s)
	}
	return out
}

// TestInlineAndInterfaceRoutesAreOneProtocol runs the same script on
// each lock built both ways and requires identical counters and
// identical per-proc event sequences: under the default arrival
// policy and on the zero-leaf central indicator, where every
// conflict-free read takes the inline route, and under
// WithDirectRetries(0), where every arrival the policy decides —
// every join — is a tree arrival the inline route must leave alone. The
// one root arrival left there is no decision: a FOLL or ROLL reader
// that enqueues a group opens it with its own arrival inside
// (OpenWithArrivals), direct by construction as GOLL's hand-off
// arrivals are, so root arrivals number exactly the enqueues.
func TestInlineAndInterfaceRoutesAreOneProtocol(t *testing.T) {
	policies := map[string][]csnzi.Option{
		"root-first": nil,
		"central":    {csnzi.WithLeaves(0)}, // rind.NewCentral: resolves, and has only the root
		"tree-only":  {csnzi.WithLeaves(4), csnzi.WithDirectRetries(0)},
	}
	for _, kind := range []string{"goll", "foll", "roll"} {
		for name, opts := range policies {
			t.Run(kind+"/"+name, func(t *testing.T) {
				t.Parallel()
				inline, iface := newRouteLock(kind, 4, false, opts...), newRouteLock(kind, 4, true, opts...)
				runRouteScript(t, inline)
				runRouteScript(t, iface)
				got, want := inline.st.Snapshot().Counters, iface.st.Snapshot().Counters
				if !reflect.DeepEqual(got, want) {
					t.Errorf("counters differ:\ninline    %v\ninterface %v", got, want)
				}
				root, tree, enqueues := got["csnzi.arrive.root"], got["csnzi.arrive.tree"], got[kind+".read.enqueue"]
				fits := root != 0 && tree == 0
				if name == "tree-only" {
					fits = root == enqueues && tree != 0
				}
				if !fits {
					t.Errorf("arrivals root=%d tree=%d (%d enqueues) do not fit the %s policy", root, tree, enqueues, name)
				}
				gotEv, wantEv := eventShapes(inline.tr.Snapshot()), eventShapes(iface.tr.Snapshot())
				for proc := range wantEv {
					if !reflect.DeepEqual(gotEv[proc], wantEv[proc]) {
						t.Errorf("proc %d event sequences differ:\ninline    %v\ninterface %v", proc, gotEv[proc], wantEv[proc])
					}
				}
				if len(gotEv) != len(wantEv) {
					t.Errorf("%d procs traced inline, %d through the interface", len(gotEv), len(wantEv))
				}
			})
		}
	}
}

// TestTryAcquisitionsAreTraced: every successful try-acquisition is an
// acquisition like any other to the flight recorder — n TryLock/Unlock
// and n TryRLock/RUnlock pairs leave n balanced acquired/released pairs
// of each class. (GOLL's tries emitted nothing, so its releases closed
// holds the recording never saw open.) Writes take a free lock — route
// root; so does every GOLL read, while a FOLL or ROLL reader enqueues a
// group on the empty queue (root) and later tries join it at rest.
func TestTryAcquisitionsAreTraced(t *testing.T) {
	const n = 5
	for _, kind := range []string{"goll", "foll", "roll"} {
		t.Run(kind, func(t *testing.T) {
			rl := newRouteLock(kind, 1, false)
			p := rl.mk()
			for i := 0; i < n; i++ {
				if !p.TryLock() {
					t.Fatal("TryLock failed on a free lock")
				}
				p.Unlock()
			}
			for i := 0; i < n; i++ {
				if !p.TryRLock() {
					t.Fatal("TryRLock failed on a free lock")
				}
				p.RUnlock()
			}
			var want []string
			for i := 0; i < n; i++ {
				want = append(want, "write.acquired/root", "write.released")
			}
			for i := 0; i < n; i++ {
				route := "root"
				if kind != "goll" && i > 0 {
					route = "join"
				}
				want = append(want, "read.acquired/"+route, "read.released")
			}
			var got []string
			for _, e := range rl.tr.Snapshot() {
				switch e.Kind {
				case trace.KindReadAcquired, trace.KindWriteAcquired:
					got = append(got, e.Kind.String()+"/"+e.Route().String())
				case trace.KindReadReleased, trace.KindWriteReleased:
					got = append(got, e.Kind.String())
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("acquire/release events\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestInlineRouteHammer races readers on the inline route — bare
// procs, and procs counting through their stats buffers — against
// writers that close the word under them, mark it, time out behind it
// (leaving the mark stale) and hand off, with tries mixed in. Run under
// -race; every acquisition checks a writer-guarded pair.
func TestInlineRouteHammer(t *testing.T) {
	type timedProc interface {
		TryProc
		LockFor(time.Duration) bool
	}
	const readers, writers, iters = 6, 2, 1500
	for _, kind := range []string{"goll", "foll", "roll"} {
		for _, stats := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stats=%v", kind, stats), func(t *testing.T) {
				t.Parallel()
				var mk func() TryProc
				if stats {
					mk = newRouteLock(kind, readers+writers, false).mk
				} else {
					plain := ByName(kind).New(readers + writers)
					mk = func() TryProc { return plain().(TryProc) }
				}
				var a, b int64 // writers keep a == b; readers verify
				var violations atomic.Int32
				var wg sync.WaitGroup
				for g := 0; g < readers+writers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						p := mk().(timedProc)
						for i := 0; i < iters; i++ {
							if g < readers {
								if i%7 != 0 {
									p.RLock()
								} else if !p.TryRLock() {
									continue
								}
								if a != b {
									violations.Add(1)
								}
								p.RUnlock()
								continue
							}
							if i%5 != 0 {
								p.Lock()
							} else if !p.LockFor(time.Microsecond) {
								continue
							}
							a++
							if a != b+1 {
								violations.Add(1)
							}
							b++
							p.Unlock()
						}
					}(g)
				}
				wg.Wait()
				if v := violations.Load(); v != 0 || a != b {
					t.Fatalf("%d invariant violations, final a=%d b=%d", v, a, b)
				}
			})
		}
	}
}
