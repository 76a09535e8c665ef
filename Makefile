# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build build-386 test race registry-check bench bench-e2e bench-compare bench-json bench-json-check fig5 fig5-plot fairness stress clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# 32-bit build smoke (64-bit atomics must stay alignment-safe).
build-386:
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The kind-registry guards: capability matrix and host ↔ locksuite ↔
# sim sync tests under the race detector, the import-layering boundary,
# and a short New fuzz over arbitrary option combinations.
registry-check:
	$(GO) test -race -run 'TestCapabilityMatrix|TestKindsMatchRegistry|TestLocksuiteMatchesRegistry|TestSimlockMatchesRegistry|TestBoundedProcsValidated|TestAlgorithmPackageLayering' .
	$(GO) test -run FuzzNew -fuzz FuzzNew -fuzztime 20s .
	$(GO) test ./internal/lockcore/

# The full benchmark sweep (real-goroutine + simulated Figure 5 panels,
# micro-benchmarks, ablations). Real-goroutine Figure 5 on a big host:
# $(GO) test -run XXX -bench '^BenchmarkFig5$' -cpu 16,64 .
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark (BENCHMARK.json; see bench/README.md): all
# three workloads, end-to-end metrics, records appended to BENCH_OUT.
BENCH_OUT ?= .bench_build/e2e.jsonl
bench-e2e:
	bash bench/run.sh -seed 1 -out $(BENCH_OUT)

# Compare two -out files under the benchmark's own bounds, one row per
# metric x workload: make bench-compare OLD=parent.jsonl NEW=change.jsonl
bench-compare:
	bash bench/run.sh -compare $(OLD) $(NEW)

# Machine-readable BRAVO read-ratio sweep on the simulated T5440
# (biased vs unbiased, mean of 3 seeded runs; deterministic). The
# output is validated against the checked-in schema.
bench-json:
	$(GO) run ./cmd/benchbravo -runs 3 -out BENCH_bravo.json
	$(GO) run ./cmd/lockmon check -schema BENCH_bravo.schema.json BENCH_bravo.json

# Validate the checked-in benchmark artifact without regenerating it.
bench-json-check:
	$(GO) run ./cmd/lockmon check -schema BENCH_bravo.schema.json BENCH_bravo.json

# Regenerate the paper's Figure 5 on the simulated T5440.
fig5:
	$(GO) run ./cmd/simfig5 -runs 2 -ops 200

fig5-plot:
	$(GO) run ./cmd/simfig5 -plot

fairness:
	$(GO) run ./cmd/simfair

stress:
	$(GO) run ./cmd/locktest -threads 32 -ops 100000 -upgrade

clean:
	$(GO) clean ./...
