package atomicx

import (
	"sync"
	"testing"
	"unsafe"
)

func TestPaddedUint64Size(t *testing.T) {
	var p PaddedUint64
	if got := unsafe.Sizeof(p); got < 2*CacheLineSize {
		t.Errorf("PaddedUint64 size = %d, want >= %d (word must not share a line with neighbours)", got, 2*CacheLineSize)
	}
}

func TestPaddedUint64SliceNoSharing(t *testing.T) {
	s := make([]PaddedUint64, 4)
	for i := 0; i < len(s)-1; i++ {
		a := uintptr(unsafe.Pointer(&s[i].v))
		b := uintptr(unsafe.Pointer(&s[i+1].v))
		if b-a < CacheLineSize {
			t.Errorf("words %d and %d are %d bytes apart, want >= %d", i, i+1, b-a, CacheLineSize)
		}
	}
}

func TestPaddedUint64Ops(t *testing.T) {
	var p PaddedUint64
	if p.Load() != 0 {
		t.Fatal("zero value must load 0")
	}
	p.Store(42)
	if p.Load() != 42 {
		t.Fatalf("Load = %d, want 42", p.Load())
	}
	if !p.CompareAndSwap(42, 43) {
		t.Fatal("CAS(42,43) should succeed")
	}
	if p.CompareAndSwap(42, 44) {
		t.Fatal("CAS(42,44) should fail: value is 43")
	}
	if got := p.Add(7); got != 50 {
		t.Fatalf("Add returned %d, want 50", got)
	}
}

func TestPaddedUint32Ops(t *testing.T) {
	var p PaddedUint32
	p.Store(5)
	if !p.CompareAndSwap(5, 6) || p.Load() != 6 {
		t.Fatal("CAS/Load mismatch")
	}
	if got := p.Add(4); got != 10 {
		t.Fatalf("Add returned %d, want 10", got)
	}
}

func TestPaddedBool(t *testing.T) {
	var b PaddedBool
	if b.Load() {
		t.Fatal("zero value must be false")
	}
	b.Store(true)
	if !b.Load() {
		t.Fatal("Store(true) not visible")
	}
	b.Store(false)
	if b.Load() {
		t.Fatal("Store(false) not visible")
	}
}

func TestPaddedPointer(t *testing.T) {
	var p PaddedPointer[int]
	x, y := new(int), new(int)
	if p.Load() != nil {
		t.Fatal("zero value must be nil")
	}
	p.Store(x)
	if p.Load() != x {
		t.Fatal("Store/Load mismatch")
	}
	if !p.CompareAndSwap(x, y) || p.Load() != y {
		t.Fatal("CAS failed")
	}
	if got := p.Swap(x); got != y {
		t.Fatalf("Swap returned %p, want %p", got, y)
	}
	if p.Load() != x {
		t.Fatal("Swap did not store")
	}
}

func TestPaddedPointerConcurrentSwap(t *testing.T) {
	// Every stored pointer must be returned by exactly one Swap (chain
	// property of FetchAndStore: the returned values plus the final value
	// form a permutation of all stored values plus the initial nil).
	const n = 64
	var p PaddedPointer[int]
	vals := make([]*int, n)
	for i := range vals {
		vals[i] = new(int)
	}
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = p.Swap(vals[i])
		}(i)
	}
	wg.Wait()
	seen := map[*int]int{}
	for _, g := range got {
		seen[g]++
	}
	seen[p.Load()]++
	if seen[nil] != 1 {
		t.Fatalf("initial nil seen %d times, want 1", seen[nil])
	}
	for i, v := range vals {
		if seen[v] != 1 {
			t.Fatalf("value %d seen %d times, want exactly 1", i, seen[v])
		}
	}
}

func TestBackoffGrowsAndSaturates(t *testing.T) {
	b := Backoff{Min: 2, Max: 8}
	b.Pause()
	if b.cur != 4 {
		t.Fatalf("after first pause cur = %d, want 4", b.cur)
	}
	b.Pause()
	if b.cur != 8 {
		t.Fatalf("after second pause cur = %d, want 8", b.cur)
	}
	b.Pause() // saturated; must not exceed Max
	if b.cur != 8 {
		t.Fatalf("after saturation cur = %d, want 8", b.cur)
	}
	b.Reset()
	if b.cur != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	b.Pause() // must not panic or spin forever
	if b.cur != 2*DefaultBackoffMin {
		t.Fatalf("cur = %d, want %d", b.cur, 2*DefaultBackoffMin)
	}
}

func TestBackoffClampsNonPositiveBounds(t *testing.T) {
	// Min <= 0 falls back to DefaultBackoffMin, Max <= 0 to
	// DefaultBackoffMax; negative values must behave like the zero value,
	// not spin backwards or cap growth at nothing.
	b := Backoff{Min: -5, Max: -5}
	b.Pause()
	if b.cur != 2*DefaultBackoffMin {
		t.Fatalf("after first pause cur = %d, want %d", b.cur, 2*DefaultBackoffMin)
	}
	for i := 0; i < 20; i++ {
		b.Pause()
	}
	if b.cur != DefaultBackoffMax {
		t.Fatalf("saturated cur = %d, want default max %d", b.cur, DefaultBackoffMax)
	}
}

func TestSpinUntilImmediate(t *testing.T) {
	calls := 0
	SpinUntil(func() bool { calls++; return true })
	if calls != 1 {
		t.Fatalf("cond called %d times, want 1", calls)
	}
}

func TestSpinUntilCrossGoroutine(t *testing.T) {
	var flag PaddedBool
	done := make(chan struct{})
	go func() {
		SpinUntil(flag.Load)
		close(done)
	}()
	flag.Store(true)
	<-done
}
