package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilStatsIsNoOp(t *testing.T) {
	var s *Stats
	// None of these may panic or allocate.
	s.Inc(CSNZIArriveRoot, 3)
	s.Add(GOLLHandoff, 1, 5)
	s.Observe(BravoDrainWait, 0, 123)
	if s.Enabled() {
		t.Fatal("nil Stats reports Enabled")
	}
	if s.Count(CSNZIArriveRoot) != 0 {
		t.Fatal("nil Stats has a count")
	}
	if n := s.Name(); n != "" {
		t.Fatalf("nil Stats name %q", n)
	}
	sn := s.Snapshot()
	if len(sn.Counters) != 0 || len(sn.Hists) != 0 {
		t.Fatalf("nil Stats snapshot not empty: %+v", sn)
	}
}

func TestNilStatsZeroAllocs(t *testing.T) {
	var s *Stats
	if n := testing.AllocsPerRun(100, func() {
		s.Inc(CSNZIArriveRoot, 1)
		s.Add(CSNZICASRetry, 1, 2)
		s.Observe(BravoDrainWait, 1, 42)
	}); n != 0 {
		t.Fatalf("nil Stats path allocates %.1f/op, want 0", n)
	}
}

func TestEnabledStatsZeroAllocs(t *testing.T) {
	s := New()
	if n := testing.AllocsPerRun(100, func() {
		s.Inc(CSNZIArriveRoot, 1)
		s.Add(CSNZICASRetry, 1, 2)
		s.Observe(BravoDrainWait, 1, 42)
	}); n != 0 {
		t.Fatalf("enabled Stats path allocates %.1f/op, want 0", n)
	}
}

func TestStripedCountsMerge(t *testing.T) {
	s := New(WithStripes(8))
	const procs, per = 16, 1000
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Inc(FOLLReadJoin, id)
			}
		}(id)
	}
	wg.Wait()
	if got := s.Count(FOLLReadJoin); got != procs*per {
		t.Fatalf("merged count = %d, want %d", got, procs*per)
	}
	if got := s.Snapshot().Counter("foll.read.join"); got != procs*per {
		t.Fatalf("snapshot count = %d, want %d", got, procs*per)
	}
}

func TestSnapshotScopeFilter(t *testing.T) {
	s := New(WithName("x"), WithScopes("csnzi", "roll"))
	s.Inc(CSNZIArriveRoot, 0)
	s.Inc(BravoRevoke, 0) // out of scope: counted but not reported
	sn := s.Snapshot()
	for name := range sn.Counters {
		if !strings.HasPrefix(name, "csnzi.") && !strings.HasPrefix(name, "roll.") {
			t.Fatalf("out-of-scope counter %q in snapshot", name)
		}
	}
	if sn.Counter("csnzi.arrive.root") != 1 {
		t.Fatalf("csnzi.arrive.root = %d, want 1", sn.Counter("csnzi.arrive.root"))
	}
	if _, ok := sn.Counters["bravo.revoke"]; ok {
		t.Fatal("bravo.revoke reported despite scope filter")
	}
	// The name set is the scope contract: zero counters still appear.
	if _, ok := sn.Counters["roll.overtake"]; !ok {
		t.Fatal("in-scope zero counter roll.overtake missing")
	}
	// Out-of-scope histogram suppressed.
	if _, ok := sn.Hists["bravo.drain.wait"]; ok {
		t.Fatal("out-of-scope histogram reported")
	}
}

func TestEventNamesUniqueAndScoped(t *testing.T) {
	seen := map[string]bool{}
	for e := Event(0); e < NumEvents; e++ {
		name := e.String()
		if name == "" || strings.HasPrefix(name, "obs.Event") {
			t.Fatalf("event %d has no name", e)
		}
		if seen[name] {
			t.Fatalf("duplicate event name %q", name)
		}
		seen[name] = true
		if e.Scope() == name {
			t.Fatalf("event %q has no scope segment", name)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	// 100 samples of 100ns, 10 of ~10000ns: p50 in the 100 bucket,
	// p99 in the 10000 bucket.
	for i := 0; i < 100; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(10_000)
	}
	p50 := h.Quantile(0.50)
	if p50 < 64 || p50 > 127 {
		t.Fatalf("p50 = %d, want within bucket [64,127]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 8192 || p99 > 16383 {
		t.Fatalf("p99 = %d, want within bucket [8192,16383]", p99)
	}
	if h.Max() != 10_000 {
		t.Fatalf("max = %d, want exact 10000", h.Max())
	}
	if h.Count() != 110 {
		t.Fatalf("count = %d, want 110", h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	b.Record(1000)
	b.Record(2000)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", a.Count())
	}
	if a.Max() != 2000 {
		t.Fatalf("merged max = %d, want 2000", a.Max())
	}
	if a.Sum() != 3010 {
		t.Fatalf("merged sum = %d, want 3010", a.Sum())
	}
}

func TestStatsHistObserve(t *testing.T) {
	s := New(WithStripes(4))
	for id := 0; id < 8; id++ {
		s.Observe(BravoDrainWait, id, int64(1000*(id+1)))
	}
	m := s.Hist(BravoDrainWait)
	if m.Count() != 8 {
		t.Fatalf("hist count = %d, want 8", m.Count())
	}
	if m.Max() != 8000 {
		t.Fatalf("hist max = %d, want 8000", m.Max())
	}
	sn := s.Snapshot()
	hs, ok := sn.Hists["bravo.drain.wait"]
	if !ok {
		t.Fatal("snapshot missing bravo.drain.wait")
	}
	if hs.Count != 8 || hs.Max != 8000 {
		t.Fatalf("snapshot hist = %+v", hs)
	}
}

func TestAllEventNamesSortedUnique(t *testing.T) {
	names := AllEventNames()
	if len(names) != int(NumEvents) {
		t.Fatalf("%d names for %d events", len(names), NumEvents)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not sorted/unique at %d: %q <= %q", i, names[i], names[i-1])
		}
	}
}
