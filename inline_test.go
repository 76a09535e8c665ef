package ollock_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// inlineBudget is the checked-in list of fast-path calls that must
// compile to no call at all: the nil-guarded instrumentation helpers,
// the ticket and grant-flag probes, the deadline's no-bound check, and
// the conflict-free read pair and the take-it-empty close on a resolved
// C-SNZI root word.
// Each entry pairs the source spelling of a call with the callee name
// the compiler prints for it; every occurrence in the algorithm
// packages must show up in the compiler's inlining report at its own
// line — across a package boundary too: foll and roll reach the
// per-proc instrumentation and the node flags through fields qnode
// exports (PI, Flag), hence the case-blind spellings. Several sit
// within a node or two of the inliner's budget (and the park ones
// inline only because lockcore carries their bodies across the alias
// hop), so an innocent edit can push one out of line — a
// per-acquisition call the benchmark would see as a nanosecond or two
// with no diff to blame.
var inlineBudget = []struct {
	src    *regexp.Regexp
	callee string
}{
	{regexp.MustCompile(`(?i)\bpi\.Inc\(`), "lockcore.ProcInstr.Inc"},
	{regexp.MustCompile(`(?i)\bpi\.Now\(\)`), "lockcore.ProcInstr.Now"},
	{regexp.MustCompile(`(?i)\bpi\.ProfTick\(\)`), "lockcore.ProcInstr.ProfTick"},
	{regexp.MustCompile(`(?i)\bpi\.Acquired\(`), "lockcore.ProcInstr.Acquired"},
	{regexp.MustCompile(`(?i)\bpi\.Released\(`), "lockcore.ProcInstr.Released"},
	{regexp.MustCompile(`(?i)\bflag\.Blocked\(\)`), "park.(*Flag).Blocked"},
	{regexp.MustCompile(`\.Arrived\(\)`), "csnzi.Ticket.Arrived"},
	{regexp.MustCompile(`\bdl\.Expired\(\)`), "park.Deadline.Expired"},
	{arriveRootRE, "csnzi.(*CSNZI).ArriveRoot"},
	{departRootRE, "csnzi.(*CSNZI).DepartRoot"},
	{closeRootRE, "csnzi.(*CSNZI).CloseIfEmpty"},
}

var (
	arriveRootRE = regexp.MustCompile(`\.ArriveRoot\(\)`)
	departRootRE = regexp.MustCompile(`\.DepartRoot\(\)`)
	// closeRootRE: a writer taking a resting reader group empty, on the
	// resolved root (r := oldTail.Root); every other CloseIfEmpty in the
	// algorithm packages is a call through rind.Indicator.
	closeRootRE = regexp.MustCompile(`\br\.CloseIfEmpty\(\)`)
)

// inlineRootSites are the sites that must reach the root word inline —
// the reads, and the write that takes a resting group empty: each named
// function must hold at least one call matching src (which the budget
// above then requires to be inlined). A site that quietly went back to
// rind.Indicator.ArriveLocal/Depart/CloseIfEmpty would cost two or
// three calls and pass every other check.
var inlineRootSites = []struct {
	file, fn string
	src      *regexp.Regexp
}{
	{"internal/goll/goll.go", "(p *Proc) RLock", arriveRootRE},
	{"internal/goll/goll.go", "(p *Proc) tryArrive", arriveRootRE}, // rlock's loop and TryRLock
	{"internal/goll/goll.go", "(p *Proc) RUnlock", departRootRE},
	{"internal/qnode/qnode.go", "(p *Proc) RUnlock", departRootRE},
	{"internal/qnode/cancel.go", "(p *Proc) TryRLock", arriveRootRE},
	{"internal/foll/foll.go", "(p *Proc) rlock", arriveRootRE},
	{"internal/roll/roll.go", "(p *Proc) rlock", arriveRootRE},
	{"internal/roll/roll.go", "(p *Proc) tryJoinWaiting", arriveRootRE},
	{"internal/foll/foll.go", "(p *Proc) lock", closeRootRE},
	{"internal/roll/roll.go", "(p *Proc) lock", closeRootRE},
	// foll and roll name no csnzi import: the two sites above inline
	// only while qnode inlines the same call and so exports its body.
	{"internal/qnode/cancel.go", "(p *Proc) TryLock", closeRootRE},
}

// inlineWrappers are the untimed entry points through which a caller
// holding a concrete *Proc must reach the acquisition in at most one
// call, and in none on the uninstrumented fast path. For all but one
// that means the wrapper is itself inlinable, leaving the call to the
// acquisition core. GOLL's RLock is the exception: it makes the root
// arrival in its own body before the core's frame and probes
// (inlineRootSites holds it to that), and that arrival plus the call to
// the core is past the inliner's budget — the wrapper is the one call,
// and the fast path makes none from it.
var inlineWrappers = []struct{ pkg, fn string }{
	{"goll", "(*Proc).Lock"},
	{"foll", "(*Proc).RLock"}, {"foll", "(*Proc).Lock"},
	{"roll", "(*Proc).RLock"}, {"roll", "(*Proc).Lock"},
}

// TestInliningBudget compiles the internal packages with the inlining
// report on and fails if any call site on the budget list, or any
// wrapper, stopped inlining.
func TestInliningBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler; skipped with -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-m", "./internal/...")
	var report bytes.Buffer
	cmd.Stderr = &report
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, report.String())
	}
	inlined := map[string]bool{}   // "file:line callee"
	inlinable := map[string]bool{} // "dir func"
	callRE := regexp.MustCompile(`^(\S+?):(\d+):\d+: inlining call to (.+)$`)
	canRE := regexp.MustCompile(`^(\S+?)/[^/]+\.go:\d+:\d+: can inline (\S+)`)
	sc := bufio.NewScanner(&report)
	sc.Buffer(nil, 1<<20) // generic instantiations print very long lines
	for sc.Scan() {
		if m := callRE.FindStringSubmatch(sc.Text()); m != nil {
			inlined[m[1]+":"+m[2]+" "+m[3]] = true
		} else if m := canRE.FindStringSubmatch(sc.Text()); m != nil {
			inlinable[m[1]+" "+m[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading the inlining report: %v", err)
	}

	// checkSites reports every line of path matching src whose call to
	// callee the compiler did not inline, and returns the match count.
	sources := map[string][]string{} // path -> lines, read once
	checkSites := func(path string, src *regexp.Regexp, callee string) int {
		lines, ok := sources[path]
		if !ok {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines = strings.Split(string(text), "\n")
			sources[path] = lines
		}
		n := 0
		for i, line := range lines {
			code, _, _ := strings.Cut(line, "//")
			if !src.MatchString(code) {
				continue
			}
			n++
			key := filepath.ToSlash(path) + ":" + strconv.Itoa(i+1) + " " + callee
			if !inlined[key] {
				t.Errorf("%s:%d: call to %s is no longer inlined: %s", path, i+1, callee, strings.TrimSpace(code))
			}
		}
		return n
	}

	sites := 0
	for _, pkg := range []string{"goll", "foll", "roll", "qnode", "bravo", "central"} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, b := range inlineBudget {
				sites += checkSites(path, b.src, b.callee)
			}
		}
	}
	// 131 sites: 138 with the root pair inline at every read site, less
	// the three fresh-node arrivals (ArriveRoot, its two Arrived tests
	// and its count, each) that OpenArrived replaced with one shared
	// site, plus the two resolved-root CloseIfEmpty sites and the
	// Blocked tests beside them; 134 with qnode.TryLock's resolved-root
	// close and, in central since it spins on a C-SNZI, one Arrived test
	// and one DepartRoot. Every package but central holds at least 15 of
	// them, so a spelling that stops matching in any one of them lands
	// below 134 - 15 + 1 = 120.
	t.Logf("%d budgeted call sites", sites)
	if sites < 120 {
		t.Errorf("matched only %d budgeted call sites — did the source spellings change?", sites)
	}
	for _, rs := range inlineRootSites {
		if !funcMatches(sources[rs.file], rs.fn, rs.src) {
			t.Errorf("%s: func %s no longer calls %s", rs.file, rs.fn, rs.src)
		}
	}
	for _, w := range inlineWrappers {
		if !inlinable["internal/"+w.pkg+" "+w.fn] {
			t.Errorf("internal/%s: %s is no longer inlinable", w.pkg, w.fn)
		}
	}
}

// funcMatches reports whether the body of the top-level func whose
// declaration starts "func <fn>(" holds a line of code matching src.
func funcMatches(lines []string, fn string, src *regexp.Regexp) bool {
	in := false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "func "+fn+"("):
			in = true
		case line == "}":
			in = false
		case in:
			if code, _, _ := strings.Cut(line, "//"); src.MatchString(code) {
				return true
			}
		}
	}
	return false
}
