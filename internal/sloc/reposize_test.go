package sloc

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRepoSize measures this module with the package's own analyzer: under
// -v it logs non-test LOC (code lines, SLOCCount style) and the maximum
// cyclomatic complexity of every package outside benchmark/, the table a
// PR pastes into CHANGES.md before and after so "least code" is a
// trajectory:
//
//	go test -v -run TestRepoSize ./internal/sloc/
func TestRepoSize(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := AnalyzeDir(root)
	if err != nil {
		t.Fatal(err)
	}
	byPkg := map[string][]*FileMetrics{}
	var measured []*FileMetrics
	for _, f := range files {
		rel, _ := filepath.Rel(root, f.Path)
		// Not the harness, and nothing a build leaves in a dot directory.
		if strings.HasPrefix(rel, "benchmark"+string(filepath.Separator)) || strings.HasPrefix(rel, ".") {
			continue
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		byPkg[pkg] = append(byPkg[pkg], f)
		measured = append(measured, f)
	}
	if len(byPkg["internal/sloc"]) == 0 {
		t.Fatalf("the walk from %s did not find this package: %d packages", root, len(byPkg))
	}
	pkgs := make([]string, 0, len(byPkg))
	for pkg := range byPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %5s %4s\n", "package", "LOC", "files", "MCC")
	for _, pkg := range pkgs {
		loc, mcc := Totals(byPkg[pkg])
		fmt.Fprintf(&b, "%-24s %6d %5d %4d\n", pkg, loc, len(byPkg[pkg]), mcc)
	}
	loc, mcc := Totals(measured)
	fmt.Fprintf(&b, "%-24s %6d %5d %4d\n", "total", loc, len(measured), mcc)
	t.Logf("non-test Go outside benchmark/:\n%s", b.String())
}
