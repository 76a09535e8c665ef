package harness

import (
	"testing"

	"ollock/internal/locksuite"
)

func implByName(t *testing.T, name string) locksuite.Impl {
	impl := locksuite.ByName(name)
	if impl == nil {
		t.Fatalf("no lock named %q", name)
	}
	return *impl
}

func TestRunCompletesAllKinds(t *testing.T) {
	for _, impl := range locksuite.Locks {
		impl := impl
		t.Run(impl.Name, func(t *testing.T) {
			t.Parallel()
			res := Run(Config{
				Impl:         impl,
				Threads:      4,
				ReadFraction: 0.9,
				OpsPerThread: 300,
				Runs:         2,
				Seed:         42,
			})
			if res.Throughput <= 0 {
				t.Fatalf("throughput = %v, want > 0", res.Throughput)
			}
			if len(res.PerRun) != 2 {
				t.Fatalf("PerRun has %d entries, want 2", len(res.PerRun))
			}
		})
	}
}

func TestRunReadOnlyAndWriteOnly(t *testing.T) {
	impl := implByName(t, "goll")
	for _, frac := range []float64{0.0, 1.0} {
		res := Run(Config{Impl: impl, Threads: 3, ReadFraction: frac, OpsPerThread: 200, Runs: 1})
		if res.Throughput <= 0 {
			t.Fatalf("frac %v: throughput %v", frac, res.Throughput)
		}
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Threads=0")
		}
	}()
	Run(Config{Impl: locksuite.Locks[0], Threads: 0, OpsPerThread: 1})
}

func TestDeterministicOpCount(t *testing.T) {
	// The harness must execute exactly Threads*OpsPerThread operations;
	// we verify via a counting lock wrapper.
	var ops counterImpl
	impl := locksuite.Impl{Name: "counter", New: ops.factory()}
	Run(Config{Impl: impl, Threads: 3, ReadFraction: 0.5, OpsPerThread: 100, Runs: 2})
	if got := ops.count.Load(); got != 2*3*100 {
		t.Fatalf("op count = %d, want 600", got)
	}
}

func TestRunLatencySanity(t *testing.T) {
	impl := implByName(t, "foll")
	res := RunLatency(Config{
		Impl:         impl,
		Threads:      4,
		ReadFraction: 0.8,
		OpsPerThread: 500,
		Seed:         11,
	})
	if res.Read.Count+res.Write.Count != 4*500 {
		t.Fatalf("latency counts %d+%d, want %d", res.Read.Count, res.Write.Count, 4*500)
	}
	if res.Read.Count == 0 || res.Write.Count == 0 {
		t.Fatal("one kind never sampled at 80% reads")
	}
	if res.Read.Mean <= 0 || res.Write.Mean <= 0 {
		t.Fatal("non-positive mean latency")
	}
	if res.Read.Max < res.Read.Mean || res.Write.Max < res.Write.Mean {
		t.Fatal("max below mean")
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunLatencyReadOnlyHasNoWrites(t *testing.T) {
	impl := implByName(t, "goll")
	res := RunLatency(Config{Impl: impl, Threads: 2, ReadFraction: 1.0, OpsPerThread: 200, Seed: 5})
	if res.Write.Count != 0 {
		t.Fatalf("write count = %d at 100%% reads", res.Write.Count)
	}
	if res.Write.Mean != 0 || res.Write.Max != 0 {
		t.Fatal("write stats nonzero with no writes")
	}
}
