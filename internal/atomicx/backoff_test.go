package atomicx

import "testing"

// TestBackoffGrowthCapped pins the explicit growth ceiling: no matter
// how large a Max the caller configures, the per-Pause spin count never
// exceeds MaxBackoffSpins = 2^MaxBackoffExponent.
func TestBackoffGrowthCapped(t *testing.T) {
	b := Backoff{Min: 1, Max: 1 << 30}
	for i := 0; i < MaxBackoffExponent+8; i++ {
		b.Pause()
		if b.Spins() > MaxBackoffSpins {
			t.Fatalf("pause %d: spin count %d exceeds cap %d", i, b.Spins(), MaxBackoffSpins)
		}
	}
	if b.Spins() != MaxBackoffSpins {
		t.Fatalf("saturated spin count = %d, want the cap %d", b.Spins(), MaxBackoffSpins)
	}
}

// TestBackoffMaxExponent pins the exponent itself: from Min=1 the
// backoff performs exactly MaxBackoffExponent doublings before
// saturating, i.e. the pause sequence is 1, 2, 4, ..., 2^16.
func TestBackoffMaxExponent(t *testing.T) {
	b := Backoff{Min: 1, Max: MaxBackoffSpins}
	doublings := 0
	prev := 1 // the first Pause spins Min=1 times, then doubles
	for i := 0; i < MaxBackoffExponent+8; i++ {
		b.Pause()
		if cur := b.Spins(); cur > prev {
			if cur != 2*prev {
				t.Fatalf("growth step %d -> %d is not a doubling", prev, cur)
			}
			doublings++
			prev = cur
		}
	}
	if doublings != MaxBackoffExponent {
		t.Fatalf("backoff performed %d doublings, want exactly %d", doublings, MaxBackoffExponent)
	}
}

// TestBackoffDefaultsUnchanged pins the library defaults (Min 4, Max
// 1024): the tuning the existing locks were measured with must not
// drift when the cap machinery changes. The exported names are also the
// pause bounds of the simulated queue mutex (internal/sim/simlock).
func TestBackoffDefaultsUnchanged(t *testing.T) {
	if lo, hi := DefaultBackoffMin, DefaultBackoffMax; lo != 4 || hi != 1024 {
		t.Fatalf("defaults are (%d, %d), want (4, 1024)", lo, hi)
	}
	var b Backoff
	b.Pause()
	if b.Spins() != 2*DefaultBackoffMin {
		t.Fatalf("first default pause left spin count %d, want %d", b.Spins(), 2*DefaultBackoffMin)
	}
	for i := 0; i < 20; i++ {
		b.Pause()
	}
	if b.Spins() != DefaultBackoffMax {
		t.Fatalf("saturated default spin count = %d, want %d", b.Spins(), DefaultBackoffMax)
	}
	b.Reset()
	if b.Spins() != 0 {
		t.Fatal("Reset did not clear the spin count")
	}
}
