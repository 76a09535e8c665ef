package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestStressPrintsSeed runs two locks at token size: each gets one ok
// line, and every line carries the seed a failure would replay with.
func TestStressPrintsSeed(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-lock", "goll,roll", "-threads", "4", "-ops", "200", "-seed", "7"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one line per lock (2), got:\n%s", &stdout)
	}
	for i, lock := range []string{"goll", "roll"} {
		if !strings.HasPrefix(lines[i], lock+" ") || !strings.Contains(lines[i], " ok ") || !strings.Contains(lines[i], "seed=7") {
			t.Errorf("line %d = %q; want %s ... seed=7 ... ok", i, lines[i], lock)
		}
	}
}

// TestChaosMatrix runs the whole torture matrix at token size: every
// cell must report ok.
func TestChaosMatrix(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chaos", "-threads", "2", "-ops", "20", "-seed", "42"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q\n%s", code, stderr.String(), &stdout)
	}
	ok := regexp.MustCompile(`(?m)^chaos \S+ +seed=\d+ +ok$`).FindAllString(stdout.String(), -1)
	if len(ok) != 32 || len(ok) != len(chaosMatrix()) {
		t.Errorf("%d ok cells of %d, want 32:\n%s", len(ok), len(chaosMatrix()), &stdout)
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-lock", "nosuch"},
		{"-nosuchflag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit status %d, stderr %q, stdout %q; want 2, a message, nothing", args, code, stderr.String(), stdout.String())
		}
	}
}
