package goll

import (
	"testing"
	"unsafe"

	"ollock/internal/atomicx"
	"ollock/internal/lockcore"
	"ollock/internal/obs"
	"ollock/internal/rind"
)

// opaque hides an indicator's concrete type, which defeats the
// construction-time resolution (rind.Root): the lock then reaches the
// same C-SNZI through the interface alone.
type opaque struct{ rind.Indicator }

// TestProcLayout pins what the read fast path's memory footprint rests
// on: a Proc is one cache line (the 64-byte size class is also
// line-aligned), everything RLock/RUnlock touch in it sits in that
// line (the ticket's own shape — one pointer-free word — is csnzi's
// TestTicketIsOnePointerFreeWord), and the lock's resolved root word
// pointer shares a line with the interface it was resolved from.
func TestProcLayout(t *testing.T) {
	var p Proc
	if s := unsafe.Sizeof(p); s > atomicx.CacheLineSize {
		t.Errorf("Proc is %d bytes, want <= %d (80 before the one-word ticket)", s, atomicx.CacheLineSize)
	}
	for name, end := range map[string]uintptr{
		"l":      unsafe.Offsetof(p.l) + unsafe.Sizeof(p.l),
		"ticket": unsafe.Offsetof(p.ticket) + unsafe.Sizeof(p.ticket),
		"bare":   unsafe.Offsetof(p.bare) + unsafe.Sizeof(p.bare),
	} {
		if end > atomicx.CacheLineSize {
			t.Errorf("Proc.%s ends at byte %d, outside the first cache line", name, end)
		}
	}
	var l RWLock
	if end := unsafe.Offsetof(l.root) + unsafe.Sizeof(l.root); unsafe.Offsetof(l.cs) != 0 || end > atomicx.CacheLineSize {
		t.Errorf("RWLock.cs at %d, root ending at %d: want both in the first cache line", unsafe.Offsetof(l.cs), end)
	}
}

// TestRootResolution: the default indicator resolves, and so does the
// central one — the same C-SNZI without its tree — and with either an
// uninstrumented proc is bare; anything the lock cannot see through, or
// must not bypass, does not.
func TestRootResolution(t *testing.T) {
	if l := New(); l.root == nil || !l.NewProc().bare {
		t.Error("default lock: indicator not resolved, or uninstrumented proc not bare")
	}
	if l := New(WithInstr(lockcore.Instr{Stats: obs.New()})); l.root == nil || l.NewProc().bare {
		t.Error("instrumented lock: indicator not resolved, or a proc with probes to feed is bare")
	}
	if l := New(WithIndicator(opaque{rind.NewCSNZI()})); l.root != nil || l.NewProc().bare {
		t.Error("wrapped C-SNZI resolved: the wrapper's methods would be bypassed")
	}
	if l := New(WithIndicator(rind.NewCentral())); l.root == nil || !l.NewProc().bare {
		t.Error("central indicator: not resolved, or uninstrumented proc not bare")
	}
	if l := New(WithIndicator(rind.NewCentral()), WithInstr(lockcore.Instr{Stats: obs.New()})); l.root == nil || l.NewProc().bare {
		t.Error("instrumented central indicator: not resolved, or a proc with probes to feed is bare")
	}
	if l := New(WithIndicator(rind.NewSharded(4))); l.root != nil {
		t.Error("sharded indicator resolved to a C-SNZI root")
	}
}
