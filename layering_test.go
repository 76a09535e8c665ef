package ollock_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAlgorithmPackageLayering pins the lockcore layering rule: the
// lock algorithm packages reach the instrumentation substrate (obs
// counters, the trace flight recorder, the park wait policies) only
// through internal/lockcore. A direct import from an algorithm package
// means a second copy of the nil-guard idiom is growing back — the
// exact duplication the lockcore extraction removed.
func TestAlgorithmPackageLayering(t *testing.T) {
	algorithmPkgs := []string{"goll", "foll", "roll", "qnode", "bravo", "central"}
	forbidden := map[string]bool{
		"ollock/internal/obs":   true,
		"ollock/internal/trace": true,
		"ollock/internal/park":  true,
		"ollock/internal/prof":  true,
	}
	fset := token.NewFileSet()
	for _, pkg := range algorithmPkgs {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		sawLockcore := false
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: bad import literal %s", path, imp.Path.Value)
				}
				if forbidden[ipath] {
					t.Errorf("%s imports %s directly; algorithm packages must go through internal/lockcore", path, ipath)
				}
				if ipath == "ollock/internal/lockcore" {
					sawLockcore = true
				}
			}
		}
		if !sawLockcore {
			t.Errorf("package internal/%s does not import internal/lockcore — did the instrumentation layer move?", pkg)
		}
	}
}
