package chaos

import "testing"

func TestNilIsNoOp(t *testing.T) {
	var in *Injector
	if in.Seed() != 0 || in.Count() != 0 {
		t.Fatal("nil Injector reports a seed or a count")
	}
	p := in.NewProc(3)
	if p != nil {
		t.Fatal("nil Injector minted a Proc")
	}
	p.Perturb() // must not panic
}

// countAfter runs n decisions on proc id of a fresh injector and
// returns how many of them perturbed.
func countAfter(seed uint64, id, n int) uint64 {
	in := New(seed)
	p := in.NewProc(id)
	for i := 0; i < n; i++ {
		p.Perturb()
	}
	return in.Count()
}

// TestSameSeedSameDecisions: the decision sequence is a pure function
// of (seed, id) — compared at several prefix lengths, so two streams
// that merely perturb equally often overall would not pass.
func TestSameSeedSameDecisions(t *testing.T) {
	for _, n := range []int{1, 7, 64, 500} {
		a, b := countAfter(42, 5, n), countAfter(42, 5, n)
		if a != b {
			t.Fatalf("after %d draws: %d vs %d perturbations from the same (seed, id)", n, a, b)
		}
	}
	if New(42).Seed() != 42 {
		t.Fatal("Seed does not report the seed")
	}
}

// TestIDsAndSeedsGiveDistinctStreams: procs of one injector, and the
// same proc under different seeds, start from different generator
// states and diverge immediately.
func TestIDsAndSeedsGiveDistinctStreams(t *testing.T) {
	in := New(42)
	seen := map[uint64]int{}
	for id := -1; id < 64; id++ {
		p := in.NewProc(id)
		if prev, dup := seen[p.rng]; dup {
			t.Fatalf("procs %d and %d share a starting state", prev, id)
		}
		seen[p.rng] = id
	}
	a, b := in.NewProc(0), New(43).NewProc(0)
	if a.rng == b.rng {
		t.Fatal("different seeds gave proc 0 the same stream")
	}
	a.Perturb()
	b.Perturb()
	if a.rng == b.rng {
		t.Fatal("streams converged after one draw")
	}
}

// TestStateNeverSticksAtZero: zero is xorshift's fixed point — a stream
// that reached it would never perturb again. NewProc must not start
// there, whatever (seed, id) mixes to, and no draw may land there.
func TestStateNeverSticksAtZero(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for id := -2; id < 6; id++ {
			if New(seed).NewProc(id).rng == 0 {
				t.Fatalf("seed %d proc %d starts at zero", seed, id)
			}
		}
	}
	in := New(0)
	p := in.NewProc(0)
	for i := 0; i < 20000; i++ {
		p.Perturb()
		if p.rng == 0 {
			t.Fatalf("state reached zero after %d draws", i+1)
		}
	}
	// One draw in four perturbs; a stuck stream would stop counting.
	if c := in.Count(); c < 4000 || c > 6000 {
		t.Fatalf("%d perturbations in 20000 draws, want about 5000", c)
	}
}

// TestStepperCallsBackWithProcID: a stepper injector draws nothing and
// calls back at every perturbation point, with the id of the proc that
// reached it.
func TestStepperCallsBackWithProcID(t *testing.T) {
	var got []int
	in := NewStepper(func(id int) { got = append(got, id) })
	a, b := in.NewProc(3), in.NewProc(7)
	a.Perturb()
	b.Perturb()
	a.Perturb()
	if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 3 {
		t.Fatalf("step calls = %v, want [3 7 3]", got)
	}
	if in.Count() != 3 {
		t.Fatalf("Count = %d, want 3", in.Count())
	}
}
