package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ollock"
	"ollock/internal/jsonschema"
)

func loadSchema(t *testing.T) *jsonschema.Schema {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_bravo.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var schema jsonschema.Schema
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatal(err)
	}
	return &schema
}

// TestCheckedInJSONMatchesSchema pins the checked-in BENCH_bravo.json
// to the checked-in schema, so regenerating the artifact with a changed
// field set (or editing the schema without regenerating) fails
// `go test ./...` — the same check CI applies to a freshly generated
// file via lockmon check.
func TestCheckedInJSONMatchesSchema(t *testing.T) {
	schema := loadSchema(t)
	doc, err := os.ReadFile("../../BENCH_bravo.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonschema.ValidateBytes(schema, doc); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesMarshalMatchesSchema validates a Series marshalled from the
// Go struct itself, catching a schema/struct drift even when
// BENCH_bravo.json is stale.
func TestSeriesMarshalMatchesSchema(t *testing.T) {
	schema := loadSchema(t)
	doc := Output{
		Tool: "benchbravo", Machine: "sim-T5440", Ops: 1, Seed: 1,
		Series: []Series{{
			Env: "sim", Lock: "bravo-goll", Base: "goll",
			Indicator: "csnzi", WaitPolicy: "spin",
			Threads: 1, ReadFraction: 1, Runs: 1,
			Counters: map[string]uint64{"csnzi.arrive.root": 1},
		}, {
			Env: "host", Lock: "goll", Base: "goll",
			Indicator: "csnzi", WaitPolicy: "adaptive", Oversub: 16,
			Threads: 16, ReadFraction: 0.5, Runs: 3,
			P99ReadNs: 1, P99WriteNs: 1,
			Counters: map[string]uint64{},
		}},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonschema.ValidateBytes(schema, raw); err != nil {
		t.Fatal(err)
	}
}

// TestWaitPolicyEnumMatchesWaitModes is the doc-sync check on the wait
// axis: the schema's wait_policy enum is exactly ollock.WaitModes(), in
// order, and every checked-in series names one of them — so a mode
// cannot be added or deleted without the artifact and its schema
// following.
func TestWaitPolicyEnumMatchesWaitModes(t *testing.T) {
	var want []any
	modes := map[string]bool{}
	for _, m := range ollock.WaitModes() {
		want = append(want, string(m))
		modes[string(m)] = true
	}
	got := loadSchema(t).Properties["series"].Items.Properties["wait_policy"].Enum
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schema wait_policy enum = %v, ollock.WaitModes() = %v", got, want)
	}
	raw, err := os.ReadFile("../../BENCH_bravo.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc Output
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for i, s := range doc.Series {
		if !modes[s.WaitPolicy] {
			t.Errorf("series[%d] (%s %s): wait_policy %q is not a wait mode", i, s.Env, s.Lock, s.WaitPolicy)
		}
	}
}

// TestSweepOutputMatchesSchema runs the command itself at token size —
// both sections, one run — and validates what it prints against the
// schema: the host section must carry one row per wait mode at every
// (lock, multiplier, mix) point.
func TestSweepOutputMatchesSchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-threads", "8", "-ops", "10", "-runs", "1", "-oversub", "1", "-oversubops", "200"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if err := jsonschema.ValidateBytes(loadSchema(t), stdout.Bytes()); err != nil {
		t.Fatal(err)
	}
	var doc Output
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	perMode := map[string]int{}
	for _, s := range doc.Series {
		if s.Env == "host" {
			perMode[s.WaitPolicy]++
		}
	}
	points := len(biasBaseKinds()) * len(oversubFractions)
	for _, m := range ollock.WaitModes() {
		if perMode[string(m)] != points {
			t.Errorf("host rows for wait mode %s = %d, want %d", m, perMode[string(m)], points)
		}
	}
	if len(perMode) != len(ollock.WaitModes()) {
		t.Errorf("host rows by wait policy: %v, want exactly %v", perMode, ollock.WaitModes())
	}
}
