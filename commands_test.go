package ollock_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// commandDocs are the files that tell a reader which command to run.
var commandDocs = []string{
	"README.md", "DESIGN.md", "ALGORITHMS.md", "METRICS.md", "EXPERIMENTS.md",
	"Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
}

// lockmonSubcommands reads the subcommand names off the case labels of
// cmd/lockmon's run function.
func lockmonSubcommands(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("cmd/lockmon/main.go")
	if err != nil {
		t.Fatal(err)
	}
	body := string(src)
	start := strings.Index(body, "\nfunc run(")
	if start < 0 {
		t.Fatal("cmd/lockmon/main.go has no run function")
	}
	body = body[start:]
	body = body[:strings.Index(body, "\n}\n")]
	subs := map[string]bool{}
	for _, m := range regexp.MustCompile(`case "([a-z]+)":`).FindAllStringSubmatch(body, -1) {
		subs[m[1]] = true
	}
	if len(subs) == 0 {
		t.Fatal("no subcommand cases in lockmon's run")
	}
	return subs
}

// TestDocsNameExistingCommands is the doc-sync guard for the command
// line: every cmd/<name> the docs, the Makefile and CI mention must be a
// directory under cmd/ (cmd/<prefix>* a prefix of one), and every word
// after "lockmon " a case of lockmon's run switch. A deleted or renamed
// command cannot leave a stale invocation behind.
func TestDocsNameExistingCommands(t *testing.T) {
	subs := lockmonSubcommands(t)
	// Not preceded by a path element, so ".../tools/cmd/staticcheck"
	// (a module path) does not count.
	cmdRe := regexp.MustCompile(`(?:^|[^\w/.]|\./)cmd/([a-z0-9]+)(\*?)`)
	subRe := regexp.MustCompile(`\blockmon ([a-z]+)\b`)
	for _, doc := range commandDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range cmdRe.FindAllStringSubmatch(line, -1) {
				pattern := filepath.Join("cmd", m[1]) + m[2]
				if dirs, _ := filepath.Glob(pattern); len(dirs) == 0 {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, pattern)
				}
			}
			for _, m := range subRe.FindAllStringSubmatch(line, -1) {
				if !subs[m[1]] {
					t.Errorf("%s:%d names lockmon subcommand %q, which lockmon's run does not have", doc, i+1, m[1])
				}
			}
		}
	}
}
