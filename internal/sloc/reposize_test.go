package sloc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRepoSize measures this module with the package's own analyzer: under
// -v it logs non-test LOC (code lines, SLOCCount style) and the maximum
// cyclomatic complexity of every package outside benchmark/, the table a
// PR pastes into CHANGES.md before and after so "least code" is a
// trajectory. It also logs the surface: the commands under cmd/, the flags
// they define, the make targets, the CI jobs and the executor options:
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
	t.Logf("surface: %s", surface(t, root))
}

// flagDefiners are the flag and flag.FlagSet methods that define a flag:
// their argument count and the position of the flag's name among them.
var flagDefiners = map[string][2]int{
	"Bool": {3, 0}, "Int": {3, 0}, "Int64": {3, 0}, "Uint": {3, 0}, "Uint64": {3, 0},
	"String": {3, 0}, "Float64": {3, 0}, "Duration": {3, 0}, "Func": {3, 0}, "BoolFunc": {3, 0},
	"BoolVar": {4, 1}, "IntVar": {4, 1}, "Int64Var": {4, 1}, "UintVar": {4, 1}, "Uint64Var": {4, 1},
	"StringVar": {4, 1}, "Float64Var": {4, 1}, "DurationVar": {4, 1}, "TextVar": {4, 1}, "Var": {3, 1},
}

// parseNonTest parses the non-test Go files of dir.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// surface counts what a user of the repository meets besides the library:
// the main packages under cmd/ and the flags they define, the .PHONY
// targets of the Makefile, the jobs of the CI workflow and the exported
// executor options (functions returning executor.Option).
func surface(t *testing.T, root string) string {
	commands, flags := 0, 0
	dirs, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files := parseNonTest(t, dir)
		if len(files) == 0 || files[0].Name.Name != "main" {
			continue
		}
		commands++
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if def, ok := flagDefiners[sel.Sel.Name]; ok && len(call.Args) == def[0] {
						if lit, ok := call.Args[def[1]].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							flags++
						}
					}
				}
				return true
			})
		}
	}

	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindAllSubmatch(mk, -1)
	targets := 0
	for _, m := range phony {
		targets += len(strings.Fields(string(m[1])))
	}

	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	if _, after, ok := strings.Cut(string(ci), "\njobs:\n"); ok {
		jobs = len(regexp.MustCompile(`(?m)^  [\w-]+:\s*$`).FindAllString(after, -1))
	}

	options := 0
	for _, f := range parseNonTest(t, filepath.Join(root, "internal", "executor")) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
				options++
			}
		}
	}
	if commands == 0 || targets == 0 || jobs == 0 || options == 0 {
		t.Fatalf("surface scan found nothing: %d commands, %d make targets, %d CI jobs, %d executor options", commands, targets, jobs, options)
	}
	return fmt.Sprintf("%d commands, %d flags, %d make targets, %d CI jobs, %d executor options",
		commands, flags, targets, jobs, options)
}
