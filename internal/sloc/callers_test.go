package sloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability gate: every exported name of an internal/ package is
// referenced from non-test code of another package of the module (cmd/,
// examples/, benchmark/ or another internal/ package), or it sits on the
// callerless allowlist below with its reason. The scan matches names, not
// types, so it can only err toward "used":
//
//   - a package-level name counts when another package names it through
//     its import (core.Run);
//   - a method counts when any other package selects a member of that
//     name, or when some interface (of the module, or one the standard
//     library calls through: fmt.Stringer, error, http.Handler, ...) has a
//     method of that name;
//   - a name the declaration of a counted name mentions counts too (the
//     type of a parameter, result or field), as does every constant of a
//     counted named type;
//   - an Err* variable counts: it is the named failure callers match with
//     errors.Is;
//   - for a test instrument (testutil, sim, chaos) a reference from any
//     test counts, because tests are its callers by design.
//
//	go test -v -run TestExportedHaveCallers ./internal/sloc/

// testInstruments are the internal packages only tests import.
var testInstruments = map[string]bool{
	"internal/testutil": true,
	"internal/sim":      true,
	"internal/chaos":    true,
}

// stdIfaceMethods are method names the standard library calls through an
// interface (fmt, errors, net/http, sort, container/heap, io).
var stdIfaceMethods = []string{"String", "Error", "Unwrap", "Is", "ServeHTTP",
	"Write", "Read", "Close", "Len", "Less", "Swap", "Push", "Pop"}

// Reasons shared by several allowlist entries.
const (
	paperAPI = "Cpp-Taskflow's own API; no driver happens to call it, tests pin it"
	testOnly = "only tests call it"
)

// callerless is the allowlist: "<package dir> <Name or Type.Method>" ->
// why it stays without a caller. It may only shrink. An entry whose name
// gained a caller or was deleted fails the test until it is removed.
var callerless = map[string]string{
	"internal/circuit Gate.IsStart":                  "the pair of IsEnd; " + testOnly,
	"internal/core Future.Cancel":                    "cooperative cancellation (DESIGN.md, Failure model); " + testOnly,
	"internal/core NewSemaphore":                     "tf::Semaphore (DESIGN.md, Semaphores); " + testOnly,
	"internal/core ParallelFor":                      paperAPI + " (parallel_for)",
	"internal/core ParallelForPtr":                   "ParallelFor with in-place element access; " + testOnly,
	"internal/core Subflow.Detach":                   paperAPI + " (detach)",
	"internal/core Subflow.IsDetached":               paperAPI + " (detached)",
	"internal/core Task.Acquire":                     "tf::Semaphore (DESIGN.md, Semaphores); " + testOnly,
	"internal/core Task.IsEmpty":                     paperAPI + " (empty)",
	"internal/core Task.IsPlaceholder":               "a placeholder's has-no-work query; " + testOnly,
	"internal/core Task.NameOf":                      paperAPI + " (name)",
	"internal/core Task.NumDependents":               paperAPI + " (num_dependents)",
	"internal/core Task.NumSuccessors":               paperAPI + " (num_successors)",
	"internal/core Task.Retry":                       "retry policy (DESIGN.md, Failure model); " + testOnly,
	"internal/core Task.Work":                        paperAPI + " (work on a placeholder)",
	"internal/core Task.WorkCondition":               "Work for a condition task; " + testOnly,
	"internal/core Taskflow.DispatchContext":         "context-bound Dispatch (README); " + testOnly,
	"internal/core Taskflow.DumpTopologiesAnnotated": "annotated DumpTopologies; the DOT golden test only",
	"internal/core Taskflow.NumTopologies":           paperAPI + " (num_topologies)",
	"internal/core Taskflow.RunContext":              "context-bound Run (README); " + testOnly,
	"internal/core Taskflow.SilentDispatch":          paperAPI + " (silent_dispatch)",
	"internal/core Taskflow.Validate":                "the cycle check without a launch; " + testOnly,
	"internal/dnn MLP.Equal":                         "the cross-backend weight check of the dnn and root integration tests",
	"internal/executor Executor.ArmedTimers":         "the timer-leak check of the executor and core retry tests",
	"internal/executor Executor.PanicError":          "the contained-panic log; " + testOnly,
	"internal/executor Watchdog.Firings":             "the watchdog (DESIGN.md, Observability); " + testOnly,
	"internal/executor Watchdog.LastReport":          "the watchdog (DESIGN.md, Observability); " + testOnly,
	"internal/executor WithPanicHandler":             "the panic-containment hook; " + testOnly,
	"internal/levelize Levels":                       "LevelOf's bucket form, the reference four packages' tests check levels against",
	"internal/metrics Publish":                       "the expvar export; no driver serves /debug/vars, " + testOnly,
	"internal/mnist ReadIDXImages":                   "the real MNIST file codec; no driver reads real files, " + testOnly,
	"internal/mnist ReadIDXLabels":                   "the real MNIST file codec; no driver reads real files, " + testOnly,
	"internal/mnist WriteIDXImages":                  "the real MNIST file codec; no driver reads real files, " + testOnly,
	"internal/mnist WriteIDXLabels":                  "the real MNIST file codec; no driver reads real files, " + testOnly,
	"internal/sta Timing.WorstHoldSlack":             "the hold-slack report; " + testOnly,
	"internal/wavefront TaskflowLevelized":           "the levelized wavefront per partitioner; TestLevelizedAgrees only",
}

func TestExportedHaveCallers(t *testing.T) {
	root := filepath.Join("..", "..")
	m, err := scanModule(root, modulePath(t, root))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, e := range m.names {
		declared[e.key()] = true
	}
	unreached := map[string]bool{}
	for _, k := range m.unreached() {
		unreached[k] = true
		if callerless[k] == "" {
			t.Errorf("%s has no caller outside its package: delete it, unexport it, or give it a caller", k)
		}
	}
	for k := range callerless {
		switch {
		case !declared[k]:
			t.Errorf("allowlisted %s is not declared any more: remove its entry", k)
		case !unreached[k]:
			t.Errorf("allowlisted %s has a caller now: remove its entry", k)
		}
	}
	t.Logf("%d exported names in internal/, %d allowlisted without a caller", len(m.names), len(callerless))
}

// TestUnreachedRules runs the scan on a two-package module written for it.
func TestUnreachedRules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/lib/lib.go": `package lib

var ErrGone = error(nil)

type Kind int

const (
	KindA Kind = iota
	KindB
)

type Opts struct{ K Kind }
type Unused struct{}

func Called(o Opts) {}
func Dead()         {}

type T struct{}

func (T) Picked()    {}
func (T) String() string { return "" }
func (T) Orphan()    {}
func Inner()         { Dead() }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestX(t *testing.T) { Dead(); T{}.Orphan() }
`,
		"cmd/use/main.go": `package main

import l "m/internal/lib"

func main() { l.Called(l.Opts{}); var t struct{ l.T }; t.Picked() }
`,
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := scanModule(root, "m")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(m.unreached(), ", ")
	want := "internal/lib Dead, internal/lib Inner, internal/lib T.Orphan, internal/lib Unused"
	if got != want {
		t.Fatalf("unreached = %s\nwant       %s", got, want)
	}
}

// modulePath reads the module path from go.mod under root.
func modulePath(t *testing.T, root string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// exportedName is one exported package-level name or method of an
// internal/ package, with the identifiers its declaration mentions.
type exportedName struct {
	pkg, name, sel string // sel is the name a caller writes
	method         bool
	enum           string // the named type of a constant
	sentinel       bool   // an Err* variable
	mentions       map[string]bool
}

func (e *exportedName) key() string { return e.pkg + " " + e.name }

// moduleRefs is what the module's sources declare and reference.
type moduleRefs struct {
	names []*exportedName
	// refs maps "internal/core.Run" (a name through its import) or "Run"
	// (any other selector) to the package dirs whose non-test code uses it.
	refs         map[string]map[string]bool
	testRefs     map[string]bool // the same keys, used by any test
	ifaceMethods map[string]bool
}

// scanModule parses every Go file under root, the directory of module.
func scanModule(root, module string) (*moduleRefs, error) {
	m := &moduleRefs{refs: map[string]map[string]bool{}, testRefs: map[string]bool{}, ifaceMethods: map[string]bool{}}
	for _, name := range stdIfaceMethods {
		m.ifaceMethods[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		isTest := strings.HasSuffix(p, "_test.go")
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			dir, ok := strings.CutPrefix(ip, module+"/")
			if !ok {
				continue
			}
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				key := n.Sel.Name
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					key = imports[x.Name] + "." + key
				}
				switch {
				case isTest:
					m.testRefs[key] = true
				case m.refs[key] == nil:
					m.refs[key] = map[string]bool{pkg: true}
				default:
					m.refs[key][pkg] = true
				}
			case *ast.InterfaceType:
				for _, fld := range n.Methods.List {
					for _, id := range fld.Names {
						m.ifaceMethods[id.Name] = true
					}
				}
			}
			return true
		})
		if !isTest && strings.HasPrefix(pkg, "internal/") {
			m.declare(pkg, f)
		}
		return nil
	})
	return m, err
}

// declare records the exported names file f of pkg declares.
func (m *moduleRefs) declare(pkg string, f *ast.File) {
	add := func(name, sel string, nodes ...ast.Node) *exportedName {
		e := &exportedName{pkg: pkg, name: name, sel: sel, mentions: map[string]bool{}}
		for _, n := range nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					e.mentions[id.Name] = true
				}
				return true
			})
		}
		m.names = append(m.names, e)
		return e
	}
	for _, dl := range f.Decls {
		switch dl := dl.(type) {
		case *ast.FuncDecl:
			switch {
			case !dl.Name.IsExported():
			case dl.Recv == nil:
				add(dl.Name.Name, dl.Name.Name, dl.Type)
			default:
				add(recvTypeName(dl.Recv.List[0].Type)+"."+dl.Name.Name, dl.Name.Name, dl.Type, dl.Recv).method = true
			}
		case *ast.GenDecl:
			enum := "" // the type of an iota run of constants
			for _, sp := range dl.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						add(sp.Name.Name, sp.Name.Name, sp.Type)
					}
				case *ast.ValueSpec:
					if id, ok := sp.Type.(*ast.Ident); ok && dl.Tok == token.CONST {
						enum = id.Name
					} else if sp.Type != nil || len(sp.Values) > 0 {
						enum = ""
					}
					var nodes []ast.Node
					if sp.Type != nil {
						nodes = append(nodes, sp.Type)
					}
					for _, v := range sp.Values {
						nodes = append(nodes, v)
					}
					for _, id := range sp.Names {
						if id.IsExported() {
							e := add(id.Name, id.Name, nodes...)
							e.enum = enum
							e.sentinel = dl.Tok == token.VAR && strings.HasPrefix(id.Name, "Err")
						}
					}
				}
			}
		}
	}
}

// calledFromOutside reports whether another package's non-test code (or,
// for a test instrument, any test) references e.
func (m *moduleRefs) calledFromOutside(e *exportedName) bool {
	key := e.pkg + "." + e.sel
	if e.method {
		if m.ifaceMethods[e.sel] {
			return true
		}
		key = e.sel
	}
	if testInstruments[e.pkg] && m.testRefs[key] {
		return true
	}
	for pkg := range m.refs[key] {
		if pkg != e.pkg {
			return true
		}
	}
	return false
}

// unreached returns, sorted, the keys of the exported names that are
// neither sentinels nor called from outside, nor mentioned by the
// declaration of a name that is, nor constants of a reached type.
func (m *moduleRefs) unreached() []string {
	byKey := map[string]*exportedName{}
	members := map[string][]*exportedName{}
	for _, e := range m.names {
		byKey[e.key()] = e
		if e.enum != "" {
			members[e.pkg+" "+e.enum] = append(members[e.pkg+" "+e.enum], e)
		}
	}
	reached := map[*exportedName]bool{}
	var work []*exportedName
	for _, e := range m.names {
		if e.sentinel || m.calledFromOutside(e) {
			reached[e] = true
			work = append(work, e)
		}
	}
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		next := members[e.key()]
		for id := range e.mentions {
			if r := byKey[e.pkg+" "+id]; r != nil {
				next = append(next, r)
			}
		}
		for _, r := range next {
			if !reached[r] {
				reached[r] = true
				work = append(work, r)
			}
		}
	}
	var out []string
	for _, e := range m.names {
		if !reached[e] {
			out = append(out, e.key())
		}
	}
	sort.Strings(out)
	return out
}
