package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTableSmoke runs a small table twice: the output must be
// byte-identical (the simulator is deterministic) and hold one row for
// each of the paper's five locks under every requested thread count.
func TestTableSmoke(t *testing.T) {
	args := []string{"-threads", "4,32", "-ops", "20", "-readpct", "95"}
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
	blocks := strings.Split(strings.TrimSpace(outs[0].String()), "\n\n")
	if len(blocks) != 3 || !strings.Contains(blocks[0], "95% reads") {
		t.Fatalf("want a title and one block per thread count (2), got %d blocks:\n%s", len(blocks), &outs[0])
	}
	for i, want := range []string{"threads = 4", "threads = 32"} {
		lines := strings.Split(blocks[i+1], "\n")
		if lines[0] != want {
			t.Fatalf("block %d starts %q, want %q", i, lines[0], want)
		}
		var locks []string
		for _, line := range lines[2:] { // lines[1] is the column header
			f := strings.Fields(line)
			if len(f) != 8 {
				t.Fatalf("bad row %q", line)
			}
			if f[7] == "0.000e+00" {
				t.Errorf("row %q: zero throughput", line)
			}
			locks = append(locks, f[0])
		}
		if got := strings.Join(locks, ","); got != "goll,foll,roll,ksuh,solaris" {
			t.Errorf("%s: locks %s, want the paper's five", want, got)
		}
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-threads", "1,x"},
		{"-threads", "257"},
		{"-nosuchflag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit status %d, stderr %q, stdout %q; want 2, a message, nothing", args, code, stderr.String(), stdout.String())
		}
	}
}
