package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lockmon runs the command in-process and returns its exit status and
// output.
func lockmon(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := lockmon(t, args...)
	if code != 0 {
		t.Fatalf("lockmon %s: exit status %d, stderr %q", strings.Join(args, " "), code, errOut)
	}
	return out
}

// corrupt writes a damaged copy of src and returns its path.
func corrupt(t *testing.T, src string, damage func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := src + ".bad"
	if err := os.WriteFile(dst, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestSmoke drives every subcommand end to end at token size: each file
// a subcommand writes must pass check, and a damaged copy of it fail.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }

	prom := at("m.prom")
	mustRun(t, "sample", "-lock", "roll", "-threads", "4", "-duration", "200ms", "-format", "prom", "-o", prom)
	if out := mustRun(t, "check", prom); !strings.Contains(out, "valid Prometheus exposition") {
		t.Errorf("check %s: %q", prom, out)
	}
	if out := mustRun(t, "sample", "-threads", "2", "-duration", "50ms"); !strings.Contains(out, "counters:") || !strings.Contains(out, "histograms:") {
		t.Errorf("sample -format text printed no counter/histogram table:\n%s", out)
	}

	pb, folded := at("f.pb.gz"), at("f.txt")
	mustRun(t, "profile", "-threads", "8", "-readpct", "50", "-rate", "1", "-duration", "300ms", "-o", pb, "-folded", folded)
	if out := mustRun(t, "check", pb); !strings.Contains(out, "valid pprof profile (contentions/count delay/nanoseconds") {
		t.Errorf("check %s: %q", pb, out)
	}
	if fi, err := os.Stat(folded); err != nil || fi.Size() == 0 {
		t.Errorf("folded stacks %s missing or empty (%v)", folded, err)
	}

	rec := at("t.json")
	mustRun(t, "record", "-lock", "foll", "-threads", "4", "-duration", "200ms", "-out", rec)
	if out := mustRun(t, "check", "-schema", "../../TRACE_events.schema.json", rec); !strings.Contains(out, "conforms to") {
		t.Errorf("check %s: %q", rec, out)
	}
	if out := mustRun(t, "top", rec); !strings.Contains(out, "foll") {
		t.Errorf("top names no foll phase:\n%s", out)
	}
	chrome := at("t.chrome.json")
	mustRun(t, "export", "-out", chrome, rec)
	if data, err := os.ReadFile(chrome); err != nil || !bytes.Contains(data, []byte(`"traceEvents"`)) {
		t.Errorf("export wrote no Chrome trace (%v)", err)
	}

	out := mustRun(t, "watch", "-threshold", "20ms", "-hold", "100ms")
	stalled := -1
	if m := regexp.MustCompile(`lockmon: (\d+) procs stalled`).FindStringSubmatch(out); m != nil {
		stalled, _ = strconv.Atoi(m[1])
	}
	if stalled < 1 || !strings.Contains(out, "stuck in") {
		t.Errorf("watch reported no stall:\n%s", out)
	}

	if code, _, _ := lockmon(t, "doctor", "-scenario", "healthy"); code != 0 {
		t.Errorf("doctor -scenario healthy: exit status %d, want 0", code)
	}
	if code, out, _ := lockmon(t, "doctor", "-scenario", "writer-starvation"); code != 1 || !strings.Contains(out, "writer-starvation") {
		t.Errorf("doctor -scenario writer-starvation: exit status %d, want 1 and the finding:\n%s", code, out)
	}

	for _, bad := range []string{
		corrupt(t, prom, func(b []byte) []byte { return append(b, "bad metric{\n"...) }),
		corrupt(t, pb, func(b []byte) []byte { return b[:len(b)/2] }),
		corrupt(t, rec, func(b []byte) []byte { return bytes.Replace(b, []byte(`"events"`), []byte(`"evts"`), 1) }),
	} {
		if code, _, errOut := lockmon(t, "check", "-schema", "../../TRACE_events.schema.json", bad); code != 1 || !strings.Contains(errOut, bad) {
			t.Errorf("check %s: exit status %d, stderr %q; want 1 naming the file", bad, code, errOut)
		}
	}
}

// TestWriteErrorsExitOne pins that a failed output write is reported
// and exits 1, not lost and not the usage status.
func TestWriteErrorsExitOne(t *testing.T) {
	targets := []string{filepath.Join(t.TempDir(), "missing", "m.prom")}
	if _, err := os.Stat("/dev/full"); err == nil {
		targets = append(targets, "/dev/full") // every write fails with ENOSPC
	}
	for _, target := range targets {
		code, _, errOut := lockmon(t, "sample", "-threads", "2", "-duration", "20ms", "-format", "prom", "-o", target)
		if code != 1 || !strings.Contains(errOut, "lockmon:") {
			t.Errorf("sample -o %s: exit status %d, stderr %q; want 1 and a message", target, code, errOut)
		}
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nosuch"},
		{"sample", "-nosuchflag"},
		{"sample", "-format", "xml"},
		{"sample", "-lock", "nosuch"},
		{"record", "-lock", "nosuch"},
		{"watch", "-lock", "nosuch"},
		{"doctor", "-scenario", "nosuch"},
		{"top"},
		{"export", "a.json", "b.json"},
		{"check"},
	} {
		code, out, errOut := lockmon(t, args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want 2, nothing, a message", args, code, out, errOut)
		}
	}
}
