package main

import (
	"bytes"
	"strings"
	"testing"

	"ollock/internal/sim/simlock"
)

// TestTraceDeterministic traces a small ROLL scenario twice: the
// simulator is deterministic, so the dumps must be byte-identical.
func TestTraceDeterministic(t *testing.T) {
	args := []string{"-lock", "roll", "-threads", "3", "-ops", "2"}
	var outs [2]bytes.Buffer
	for i := range outs {
		var stderr bytes.Buffer
		if code := run(args, &outs[i], &stderr); code != 0 {
			t.Fatalf("run %d: exit status %d, stderr %q", i, code, stderr.String())
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", &outs[0], &outs[1])
	}
	if !strings.Contains(outs[0].String(), "\ndone: roll, 3 threads x 2 ops") {
		t.Errorf("no done: line:\n%s", &outs[0])
	}
}

// TestUnknownLockListsRegistry pins the -lock vocabulary to the
// simulator's registry: an unknown name exits 2 and the message names
// every registered lock.
func TestUnknownLockListsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-lock", "nosuch"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("exit status %d, stdout %q; want 2 and nothing", code, stdout.String())
	}
	for _, f := range simlock.Locks {
		if !strings.Contains(stderr.String(), f.Name) {
			t.Errorf("unknown-lock message omits %s: %q", f.Name, stderr.String())
		}
	}
}
