package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestPanelCSVSmoke runs a small panel (c) twice: the output must be
// byte-identical (the simulator is deterministic), cover every one of
// the paper's five locks at every thread count, and hold no zero
// throughput.
func TestPanelCSVSmoke(t *testing.T) {
	args := []string{"-panel", "c", "-threads", "1,64,128", "-ops", "20", "-csv"}
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
	lines := strings.Split(strings.TrimSpace(outs[0].String()), "\n")
	if lines[0] != "panel,read_pct,lock,threads,throughput_acq_per_s,read_mean_cycles,read_p99_cycles,write_mean_cycles,write_p99_cycles" {
		t.Fatalf("header = %q", lines[0])
	}
	rows := map[string]int{}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 9 || f[0] != "c" || f[1] != "95" {
			t.Fatalf("bad row %q", line)
		}
		if v, err := strconv.ParseFloat(f[4], 64); err != nil || v <= 0 {
			t.Errorf("row %q: throughput %q, want a positive number", line, f[4])
		}
		rows[f[2]]++
	}
	for _, lock := range []string{"goll", "foll", "roll", "ksuh", "solaris"} {
		if rows[lock] != 3 {
			t.Errorf("lock %s has %d rows, want one per thread count (3); rows by lock: %v", lock, rows[lock], rows)
		}
	}
	if len(rows) != 5 {
		t.Errorf("locks in output: %v, want the paper's five", rows)
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-panel", "z"},
		{"-threads", "1,x"},
		{"-threads", "257"},
		{"-locks", "nosuch"},
		{"-nosuchflag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit status %d, stderr %q, stdout %q; want 2, a message, nothing", args, code, stderr.String(), stdout.String())
		}
	}
}
