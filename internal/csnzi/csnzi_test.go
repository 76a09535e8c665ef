package csnzi

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"ollock/internal/obs"
	"ollock/internal/xrand"
)

// specModel is the sequential C-SNZI specification of Figure 1, used as
// the reference for property tests.
type specModel struct {
	surplus int
	open    bool
}

func newSpecModel() *specModel { return &specModel{open: true} }

func (m *specModel) Arrive() bool {
	if m.open {
		m.surplus++
		return true
	}
	return false
}

func (m *specModel) Depart() bool {
	if m.surplus <= 0 {
		panic("spec: Depart with no surplus")
	}
	m.surplus--
	return !(m.surplus == 0 && !m.open)
}

func (m *specModel) Close() bool {
	if m.open {
		m.open = false
		return m.surplus == 0
	}
	return false
}

func (m *specModel) CloseIfEmpty() bool {
	if m.open && m.surplus == 0 {
		m.open = false
		return true
	}
	return false
}

func (m *specModel) Open() {
	if m.open || m.surplus != 0 {
		panic("spec: Open precondition violated")
	}
	m.open = true
}

func (m *specModel) OpenWithArrivals(cnt int, close bool) {
	if m.open || m.surplus != 0 {
		panic("spec: OpenWithArrivals precondition violated")
	}
	m.surplus = cnt
	m.open = !close
}

func (m *specModel) Query() (bool, bool) { return m.surplus > 0, m.open }

// TestMatchesSpecModel drives random operation sequences through both
// the implementation and the Figure 1 reference model and requires
// identical observable behaviour at every step. This is the main
// functional-correctness property test for the C-SNZI.
func TestMatchesSpecModel(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"flat", []Option{WithLeaves(4), WithDirectRetries(0)}},
		{"deep", []Option{WithLeaves(8), WithFanout(2), WithDirectRetries(0)}},
		{"rootOnly", []Option{WithLeaves(0)}},
		{"default", nil},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			if err := quick.Check(func(seed uint64) bool {
				return runSpecComparison(t, seed, cfg.opts)
			}, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

func runSpecComparison(t *testing.T, seed uint64, opts []Option) bool {
	r := xrand.New(seed)
	c := New(opts...)
	m := newSpecModel()
	var tickets []Ticket // successful, not-yet-departed arrivals
	// directOwed tracks arrivals granted via OpenWithArrivals; they
	// depart with DirectTicket.
	directOwed := 0
	for op := 0; op < 500; op++ {
		switch r.Intn(6) {
		case 0, 1: // Arrive
			tk := c.Arrive(r.Intn(16))
			want := m.Arrive()
			if tk.Arrived() != want {
				t.Logf("seed %d op %d: Arrive = %v, spec %v", seed, op, tk.Arrived(), want)
				return false
			}
			if !want && m.surplus > 0 {
				// Spec bookkeeping: failed model arrivals roll back.
			}
			if tk.Arrived() {
				tickets = append(tickets, tk)
			} else {
				// model.Arrive already returned false without counting
			}
		case 2: // Depart
			if len(tickets)+directOwed == 0 {
				continue
			}
			var got bool
			if directOwed > 0 && (len(tickets) == 0 || r.Bool(0.5)) {
				got = c.Depart(c.DirectTicket())
				directOwed--
			} else {
				i := r.Intn(len(tickets))
				got = c.Depart(tickets[i])
				tickets[i] = tickets[len(tickets)-1]
				tickets = tickets[:len(tickets)-1]
			}
			want := m.Depart()
			if got != want {
				t.Logf("seed %d op %d: Depart = %v, spec %v", seed, op, got, want)
				return false
			}
		case 3: // Close or CloseIfEmpty
			if r.Bool(0.5) {
				if got, want := c.Close(), m.Close(); got != want {
					t.Logf("seed %d op %d: Close = %v, spec %v", seed, op, got, want)
					return false
				}
			} else {
				if got, want := c.CloseIfEmpty(), m.CloseIfEmpty(); got != want {
					t.Logf("seed %d op %d: CloseIfEmpty = %v, spec %v", seed, op, got, want)
					return false
				}
			}
		case 4: // Open / OpenWithArrivals when precondition holds
			if m.open || m.surplus != 0 {
				continue
			}
			if r.Bool(0.5) {
				c.Open()
				m.Open()
			} else {
				n := r.Intn(5)
				cl := r.Bool(0.5)
				c.OpenWithArrivals(n, cl)
				m.OpenWithArrivals(n, cl)
				directOwed += n
			}
		case 5: // Query
			gotNZ, gotOpen := c.Query()
			wantNZ, wantOpen := m.Query()
			if gotNZ != wantNZ || gotOpen != wantOpen {
				t.Logf("seed %d op %d: Query = (%v,%v), spec (%v,%v)", seed, op, gotNZ, gotOpen, wantNZ, wantOpen)
				return false
			}
		}
	}
	return true
}

func TestLifecycleAsLockState(t *testing.T) {
	// Walk the exact state transitions the GOLL lock performs.
	c := New()

	// Writer acquires free lock.
	if !c.CloseIfEmpty() {
		t.Fatal("CloseIfEmpty on free C-SNZI failed")
	}
	// Reader attempt fails while write-locked.
	if c.Arrive(1).Arrived() {
		t.Fatal("Arrive succeeded on closed C-SNZI")
	}
	// Second writer attempt fails.
	if c.CloseIfEmpty() {
		t.Fatal("CloseIfEmpty succeeded on closed C-SNZI")
	}
	if c.Close() {
		t.Fatal("Close on closed C-SNZI returned true")
	}
	// Writer hands over to 3 readers with another writer waiting: open
	// with arrivals, immediately re-closed.
	c.OpenWithArrivals(3, true)
	nz, open := c.Query()
	if !nz || open {
		t.Fatalf("Query = (%v,%v), want (true,false)", nz, open)
	}
	// New readers cannot join (writer waiting).
	if c.Arrive(2).Arrived() {
		t.Fatal("Arrive succeeded while closed with surplus")
	}
	// The three readers depart; the last one must see false (handoff).
	if !c.Depart(c.DirectTicket()) || !c.Depart(c.DirectTicket()) {
		t.Fatal("non-last Depart returned false")
	}
	if c.Depart(c.DirectTicket()) {
		t.Fatal("last Depart from closed C-SNZI returned true")
	}
	// Lock is now write-acquired by the waiting writer; it releases.
	c.Open()
	if !c.Arrive(3).Arrived() {
		t.Fatal("Arrive failed on reopened C-SNZI")
	}
}

func TestCloseWithSurplusThenDrain(t *testing.T) {
	c := New(WithLeaves(4), WithDirectRetries(0))
	t1 := c.Arrive(0)
	t2 := c.Arrive(1)
	if c.Close() {
		t.Fatal("Close with surplus returned true")
	}
	if c.Depart(t1) != true {
		t.Fatal("first Depart (surplus 2->1) returned false")
	}
	if c.Depart(t2) != false {
		t.Fatal("last Depart from closed C-SNZI returned true")
	}
	// Now closed with zero surplus: arrivals keep failing.
	if c.Arrive(2).Arrived() {
		t.Fatal("Arrive succeeded on drained closed C-SNZI")
	}
}

func TestOpenPanicsWhenOpen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Open on open C-SNZI did not panic")
		}
	}()
	New().Open()
}

func TestOpenPanicsWithSurplus(t *testing.T) {
	c := New()
	tk := c.Arrive(0)
	c.Close()
	_ = tk
	defer func() {
		if recover() == nil {
			t.Fatal("Open with surplus did not panic")
		}
	}()
	c.Open()
}

func TestOpenWithArrivalsRangeCheck(t *testing.T) {
	c := New()
	c.CloseIfEmpty()
	defer func() {
		if recover() == nil {
			t.Fatal("OpenWithArrivals(-1) did not panic")
		}
	}()
	c.OpenWithArrivals(-1, false)
}

func TestDepartFailedTicketPanics(t *testing.T) {
	c := New()
	c.CloseIfEmpty()
	bad := c.Arrive(0) // fails
	defer func() {
		if recover() == nil {
			t.Fatal("Depart(failed ticket) did not panic")
		}
	}()
	c.Depart(bad)
}

// TestForeignTicketPanicsByName: a tree ticket handed to a C-SNZI that
// cannot have issued it — one that never built a tree (every zero-leaf
// "central" indicator), or one with fewer leaves — gets the op-named
// misuse panic, not a nil dereference or an index fault.
func TestForeignTicketPanicsByName(t *testing.T) {
	wide := New(WithLeaves(8), WithDirectRetries(0))
	tk := wide.Arrive(7)
	if !tk.Tree() {
		t.Fatalf("tree-first arrival returned ticket %d", tk)
	}
	narrow := New(WithLeaves(2), WithDirectRetries(0))
	narrow.Depart(narrow.Arrive(0)) // builds its two-leaf tree
	for _, tc := range []struct {
		name string
		op   func()
		want string
	}{
		{"Depart, no tree", func() { New(WithLeaves(0)).Depart(tk) }, "csnzi: Depart with foreign ticket"},
		{"TradeToRoot, no tree", func() { New(WithLeaves(0)).TradeToRoot(tk) }, "csnzi: TradeToRoot with foreign ticket"},
		{"Depart, out of range", func() { narrow.Depart(tk) }, "csnzi: Depart with foreign ticket"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
				}
			}()
			tc.op()
		}()
	}
}

func TestLazyTreeAllocation(t *testing.T) {
	c := New()
	tk := c.Arrive(0)
	c.Depart(tk)
	if c.TreeAllocated() {
		t.Fatal("tree allocated on uncontended direct path")
	}
	// Force tree usage.
	c2 := New(WithDirectRetries(0), WithLeaves(2))
	tk2 := c2.Arrive(0)
	if !c2.TreeAllocated() {
		t.Fatal("tree not allocated with DirectRetries=0")
	}
	c2.Depart(tk2)
}

func TestTreeCountAttractsArrivals(t *testing.T) {
	// Once one thread arrives via the tree, subsequent arrivals must
	// also use the tree (tree count > 0 policy) rather than the root.
	c := New(WithLeaves(4), WithDirectRetries(0))
	t1 := c.Arrive(0)
	d0, tr0, _ := c.Snapshot()
	if d0 != 0 || tr0 != 1 {
		t.Fatalf("after tree arrival Snapshot = (%d,%d), want (0,1)", d0, tr0)
	}
	// Same leaf again: tree count at root stays 1 (no propagation).
	t2 := c.Arrive(0)
	d1, tr1, _ := c.Snapshot()
	if d1 != 0 || tr1 != 1 {
		t.Fatalf("second arrival at same leaf Snapshot = (%d,%d), want (0,1)", d1, tr1)
	}
	c.Depart(t2)
	c.Depart(t1)
	if nz, _ := c.Query(); nz {
		t.Fatal("surplus left")
	}
}

// TestLeafForExtremeIDs pins the unsigned leaf reduction: negating
// math.MinInt overflows and stays negative, so the old `-id % n`
// computation produced a negative index and panicked for every leaf
// count that does not divide 2^63 (the default 32 hid it). The leaf
// index is the ticket, so the round trip through Depart is checked too.
func TestLeafForExtremeIDs(t *testing.T) {
	for _, leaves := range []int{1, 3, 32} {
		c := New(WithLeaves(leaves), WithDirectRetries(0))
		for _, id := range []int{0, 1, -1, -7, math.MinInt, math.MaxInt} {
			i, _ := c.leafFor(id)
			if i < 0 || i >= leaves {
				t.Fatalf("leaves=%d: leafFor(%d) = %d, out of range", leaves, id, i)
			}
			tk := c.Arrive(id)
			if !tk.Tree() || tk.Index() != i {
				t.Fatalf("leaves=%d: Arrive(%d) = ticket %d, want the tree ticket of leaf %d", leaves, id, tk, i)
			}
			if !c.Depart(tk) {
				t.Fatal("Depart reported a drain on an open C-SNZI")
			}
		}
		if d, tr, open := c.Snapshot(); d != 0 || tr != 0 || !open {
			t.Fatalf("leaves=%d: Snapshot = (%d,%d,%v), want (0,0,true)", leaves, d, tr, open)
		}
	}
}

// TestArriveRootContract: the inline arrival succeeds exactly on an
// open root word with no tree arrivals, changes nothing otherwise, and
// its ticket departs like any direct one.
func TestArriveRootContract(t *testing.T) {
	var none *CSNZI
	if none.ArriveRoot().Arrived() {
		t.Fatal("ArriveRoot on an unresolved (nil) C-SNZI arrived")
	}
	c := New(WithLeaves(4))
	t1, t2 := c.ArriveRoot(), c.ArriveRoot()
	if t1 != Direct || t2 != Direct {
		t.Fatalf("ArriveRoot on an open word = %d, %d, want Direct", t1, t2)
	}
	if c.Close() {
		t.Fatal("Close acquired with surplus 2")
	}
	if c.ArriveRoot().Arrived() {
		t.Fatal("ArriveRoot arrived at a closed word")
	}
	if !c.DepartRoot() || c.Depart(t2) {
		t.Fatal("drain not reported by exactly the last departer")
	}
	c.MarkWaiters()
	if c.ArriveRoot().Arrived() {
		t.Fatal("ArriveRoot arrived at a write-acquired, marked word")
	}
	c.Open()
	// With the tree in use the root is ArriveLocal's to decide about.
	tree := New(WithLeaves(4), WithDirectRetries(0))
	if tree.RootFirst(nil) {
		t.Fatal("RootFirst true for a policy that never tries the root")
	}
	tk := c.treeTicket(t)
	if c.ArriveRoot().Arrived() {
		t.Fatal("ArriveRoot arrived past a tree arrival")
	}
	if d, tr, _ := c.Snapshot(); d != 0 || tr != 1 {
		t.Fatalf("Snapshot = (%d,%d), want (0,1)", d, tr)
	}
	c.Depart(tk)
	if !c.RootFirst(nil) || c.RootFirst(obs.New()) {
		t.Fatal("RootFirst must hold for the default policy, and only for the C-SNZI's own stats block")
	}
}

// treeTicket makes one tree arrival on c regardless of its policy.
func (c *CSNZI) treeTicket(t *testing.T) Ticket {
	t.Helper()
	i, leaf := c.leafFor(0)
	if !leaf.treeArrive() {
		t.Fatal("tree arrival failed on an open C-SNZI")
	}
	return TicketAt(i)
}

// TestTicketIsOnePointerFreeWord pins move (1): a ticket store is one
// MOV with no write barrier, on 32-bit targets too.
func TestTicketIsOnePointerFreeWord(t *testing.T) {
	var tk Ticket
	if unsafe.Sizeof(tk) > 8 {
		t.Fatalf("Ticket is %d bytes, want <= 8", unsafe.Sizeof(tk))
	}
	if k := reflect.TypeOf(tk).Kind(); k < reflect.Int || k > reflect.Uint64 {
		t.Fatalf("Ticket kind %v is not a plain integer: it carries (or may carry) a pointer", k)
	}
	if tk.Arrived() || !Direct.Arrived() || !Direct.Direct() || Direct.Tree() || TicketAt(0) != 2 || TicketAt(7).Index() != 7 {
		t.Fatal("ticket encoding is not 0 failed, 1 direct, 2+i arrival point i")
	}
}

func TestTradeToRootAndSoleDirect(t *testing.T) {
	c := New(WithLeaves(4), WithDirectRetries(0))
	tk := c.Arrive(5) // tree arrival
	if tk.Direct() {
		t.Fatal("expected tree ticket with DirectRetries=0")
	}
	if c.SoleDirect() {
		t.Fatal("SoleDirect true with a tree arrival outstanding")
	}
	tk = c.TradeToRoot(tk)
	if !tk.Direct() {
		t.Fatal("TradeToRoot did not return a direct ticket")
	}
	if !c.SoleDirect() {
		t.Fatal("SoleDirect false after trading the only arrival to the root")
	}
	d, tr, open := c.Snapshot()
	if d != 1 || tr != 0 || !open {
		t.Fatalf("Snapshot = (%d,%d,%v), want (1,0,true)", d, tr, open)
	}
	c.Depart(tk)
}

func TestTradeToRootIdempotentOnDirect(t *testing.T) {
	c := New()
	tk := c.Arrive(0) // direct
	tk2 := c.TradeToRoot(tk)
	if !tk2.Direct() {
		t.Fatal("direct ticket lost direct-ness")
	}
	d, _, _ := c.Snapshot()
	if d != 1 {
		t.Fatalf("direct count = %d after no-op trade, want 1", d)
	}
	c.Depart(tk2)
}

func TestTryUpgrade(t *testing.T) {
	c := New()
	tk := c.Arrive(0)
	_ = tk
	if !c.TryUpgrade() {
		t.Fatal("TryUpgrade failed as the sole reader")
	}
	d, tr, open := c.Snapshot()
	if d != 0 || tr != 0 || open {
		t.Fatalf("after upgrade Snapshot = (%d,%d,%v), want (0,0,false)", d, tr, open)
	}
	// The upgraded holder is now a writer; release.
	c.Open()
}

func TestTryUpgradeFailsWithOtherReaders(t *testing.T) {
	c := New()
	t1 := c.Arrive(0)
	t2 := c.Arrive(1)
	if c.TryUpgrade() {
		t.Fatal("TryUpgrade succeeded with two readers")
	}
	c.Depart(t1)
	c.Depart(t2)
}

func TestTryUpgradeWhileClosed(t *testing.T) {
	// A writer is waiting (C-SNZI closed with our surplus); upgrade must
	// still succeed for the sole reader, leaving the lock write-acquired.
	c := New()
	tk := c.Arrive(0)
	_ = tk
	if c.Close() {
		t.Fatal("Close returned true with a reader present")
	}
	if !c.TryUpgrade() {
		t.Fatal("TryUpgrade failed for sole reader under closed C-SNZI")
	}
	d, tr, open := c.Snapshot()
	if d != 0 || tr != 0 || open {
		t.Fatalf("Snapshot = (%d,%d,%v), want (0,0,false)", d, tr, open)
	}
}

func TestConcurrentReadersNoWriters(t *testing.T) {
	c := New(WithLeaves(8))
	const goroutines, iters = 8, 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tk := c.Arrive(id)
				if !tk.Arrived() {
					t.Error("Arrive failed on an open C-SNZI")
					return
				}
				if nz, _ := c.Query(); !nz {
					t.Error("Query reported no surplus while holding arrival")
					return
				}
				c.Depart(tk)
			}
		}(g)
	}
	wg.Wait()
	if nz, open := c.Query(); nz || !open {
		t.Fatalf("final Query = (%v,%v), want (false,true)", nz, open)
	}
}

func TestConcurrentReadersAndClosers(t *testing.T) {
	// Readers arrive/depart while a closer repeatedly closes and, once
	// drained, reopens. Invariant: a "last depart" (Depart==false) or a
	// "Close returned true" gives the closer exclusive ownership; both
	// must never be outstanding at once, and every close is eventually
	// reopened.
	c := New(WithLeaves(8))
	var exclusiveOwners atomic.Int32
	var stop atomic.Bool
	var wg sync.WaitGroup

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !stop.Load() {
				tk := c.Arrive(id)
				if !tk.Arrived() {
					continue // closed; retry
				}
				if !c.Depart(tk) {
					// We were the last departer from a closed C-SNZI: we
					// own the handoff and must reopen on the closer's
					// behalf.
					if n := exclusiveOwners.Add(1); n != 1 {
						t.Errorf("%d simultaneous exclusive owners", n)
					}
					exclusiveOwners.Add(-1)
					c.Open()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if c.Close() {
				// Acquired exclusively with zero surplus.
				if n := exclusiveOwners.Add(1); n != 1 {
					t.Errorf("%d simultaneous exclusive owners", n)
				}
				exclusiveOwners.Add(-1)
				c.Open()
			}
			// If Close returned false either it was already closed or
			// surplus existed; the last departer reopens.
		}
		stop.Store(true)
	}()
	wg.Wait()
}

func TestSnapshotConsistency(t *testing.T) {
	c := New(WithLeaves(0))
	tks := make([]Ticket, 5)
	for i := range tks {
		tks[i] = c.Arrive(i)
	}
	d, tr, open := c.Snapshot()
	if d != 5 || tr != 0 || !open {
		t.Fatalf("Snapshot = (%d,%d,%v), want (5,0,true)", d, tr, open)
	}
	for _, tk := range tks {
		c.Depart(tk)
	}
}

func BenchmarkArriveDepartUncontendedDirect(b *testing.B) {
	c := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Depart(c.Arrive(0))
	}
}

func BenchmarkArriveDepartTreePath(b *testing.B) {
	c := New(WithLeaves(8), WithDirectRetries(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Depart(c.Arrive(0))
	}
}

func BenchmarkArriveDepartParallel(b *testing.B) {
	c := New(WithLeaves(64))
	var id atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		me := int(id.Add(1))
		for pb.Next() {
			c.Depart(c.Arrive(me))
		}
	})
}

// Ablation: tree width sweep for the contended arrival path.
func BenchmarkTreeWidth(b *testing.B) {
	for _, leaves := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		b.Run(benchName("leaves", leaves), func(b *testing.B) {
			c := New(WithLeaves(leaves), WithDirectRetries(0))
			var id atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				me := int(id.Add(1))
				for pb.Next() {
					c.Depart(c.Arrive(me))
				}
			})
		})
	}
}

// Ablation: direct-retry threshold for the adaptive arrival policy.
func BenchmarkDirectRetries(b *testing.B) {
	for _, retries := range []int{0, 1, 2, 4, 8} {
		b.Run(benchName("retries", retries), func(b *testing.B) {
			c := New(WithLeaves(32), WithDirectRetries(retries))
			var id atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				me := int(id.Add(1))
				for pb.Next() {
					c.Depart(c.Arrive(me))
				}
			})
		})
	}
}

func benchName(k string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return k + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return k + "=" + string(buf[i:])
}
