package sloc

import (
	"fmt"
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

// The two-sides gate: an exported interface of an internal/ package is
// implemented by at least two named types of the module, or it sits on the
// allowlist below with its reason. An interface with one implementation is
// an indirection its callers pay for (a type assertion, an itab call)
// without a second side to choose; they should call the type instead. The
// scan matches method names, as the callers gate does:
//
//   - a type implements an interface when it has a method of every name
//     the interface lists (its own, or those of interfaces it embeds);
//   - a type's methods are those declared on it and those promoted from
//     the concrete types it embeds (Subflow gets the builder's);
//   - a type that embeds an interface gets none of that interface's
//     methods: it delegates to some other implementation and is no side
//     of its own;
//   - types of test files count, so a fake counts.
//
//	go test -v -run TestInterfacesHaveTwoSides ./internal/sloc/

// oneSided is the allowlist: "<package dir> <Interface>" -> why it stays
// with fewer than two implementations. An entry whose interface gained a
// second implementation or was deleted fails the test until it is removed.
var oneSided = map[string]string{}

func TestInterfacesHaveTwoSides(t *testing.T) {
	root := filepath.Join("..", "..")
	m, err := scanTypes(root, modulePath(t, root))
	if err != nil {
		t.Fatal(err)
	}
	impls, err := m.implementations()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range impls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if n := len(impls[k]); n < 2 && oneSided[k] == "" {
			t.Errorf("%s has %d implementation(s) %v: call the type behind it directly, or give it a second side", k, n, impls[k])
		}
	}
	for k := range oneSided {
		switch got, ok := impls[k]; {
		case !ok:
			t.Errorf("allowlisted %s is not an exported interface any more: remove its entry", k)
		case len(got) >= 2:
			t.Errorf("allowlisted %s has two sides now %v: remove its entry", k, got)
		}
	}
	t.Logf("%d exported interfaces in internal/, %d allowlisted with one side", len(impls), len(oneSided))
}

// TestTwoSidesRules runs the scan on a two-package module written for it.
func TestTwoSidesRules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/lib/lib.go": `package lib

type Two interface{ Run(); Describe() string }
type One interface{ Run() }
type Both interface {
	One
	Stop()
}

type base struct{}

func (base) Run() {}

type A struct{ base }

func (*A) Describe() string { return "" }
func (A) Stop()             {}
`,
		"internal/lib/fake_test.go": `package lib

type fake struct{ A }

type wrap struct{ Both }

func (wrap) Describe() string { return "" }
`,
		"cmd/use/main.go": `package main

import "m/internal/lib"

type local struct{ *lib.A }

func main() {}
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
	m, err := scanTypes(root, "m")
	if err != nil {
		t.Fatal(err)
	}
	impls, err := m.implementations()
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(impls)
	want := "map[internal/lib Both:[cmd/use local internal/lib A internal/lib fake] " +
		"internal/lib One:[cmd/use local internal/lib A internal/lib base internal/lib fake] " +
		"internal/lib Two:[cmd/use local internal/lib A internal/lib fake]]"
	if got != want {
		t.Fatalf("implementations = %s\nwant              %s", got, want)
	}
}

// typeDecl is one named type of the module: whether it is an interface,
// the names of its methods (an interface's: those it lists) and the keys
// of the types it embeds.
type typeDecl struct {
	iface   bool
	methods map[string]bool
	embeds  []string
}

// typeScan is every named type the module's sources declare, by
// "<package dir> <Name>" (dir + "_test" for an external test package).
type typeScan struct {
	types    map[string]*typeDecl
	exported []string // keys of the exported interfaces of internal/ packages
}

// scanTypes parses every Go file under root, the directory of module.
func scanTypes(root, module string) (*typeScan, error) {
	s := &typeScan{types: map[string]*typeDecl{}}
	decl := func(key string) *typeDecl {
		if s.types[key] == nil {
			s.types[key] = &typeDecl{methods: map[string]bool{}}
		}
		return s.types[key]
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
		if strings.HasSuffix(f.Name.Name, "_test") {
			pkg += "_test"
		}
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if dir, ok := strings.CutPrefix(ip, module+"/"); ok {
				local := path.Base(ip)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = dir
			}
		}
		// keyOf names the module type expr refers to, "" for any other.
		keyOf := func(expr ast.Expr) string {
			for {
				switch x := expr.(type) {
				case *ast.StarExpr:
					expr = x.X
				case *ast.IndexExpr:
					expr = x.X
				case *ast.IndexListExpr:
					expr = x.X
				case *ast.Ident:
					return pkg + " " + x.Name
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						return imports[id.Name] + " " + x.Sel.Name
					}
					return ""
				default:
					return ""
				}
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv != nil {
					decl(keyOf(dl.Recv.List[0].Type)).methods[dl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, sp := range dl.Specs {
					ts, ok := sp.(*ast.TypeSpec)
					if !ok || ts.Assign.IsValid() {
						continue // an alias is no type of its own
					}
					td := decl(pkg + " " + ts.Name.Name)
					var fields *ast.FieldList
					switch x := ts.Type.(type) {
					case *ast.InterfaceType:
						td.iface, fields = true, x.Methods
						if ts.Name.IsExported() && strings.HasPrefix(pkg, "internal/") && !strings.HasSuffix(p, "_test.go") {
							s.exported = append(s.exported, pkg+" "+ts.Name.Name)
						}
					case *ast.StructType:
						fields = x.Fields
					default:
						continue
					}
					for _, fld := range fields.List {
						switch {
						case len(fld.Names) > 0 && td.iface:
							for _, id := range fld.Names {
								td.methods[id.Name] = true
							}
						case len(fld.Names) == 0:
							td.embeds = append(td.embeds, keyOf(fld.Type))
						}
					}
				}
			}
		}
		return nil
	})
	return s, err
}

// methodsOf returns the method names of the type key, with those promoted
// from what it embeds: for an interface, every embedded interface's; for
// another type, every embedded concrete type's.
func (s *typeScan) methodsOf(key string, seen map[string]bool) (map[string]bool, error) {
	td := s.types[key]
	out := map[string]bool{}
	if td == nil || seen[key] {
		return out, nil
	}
	seen[key] = true
	for name := range td.methods {
		out[name] = true
	}
	for _, e := range td.embeds {
		et := s.types[e]
		switch {
		case td.iface && et == nil:
			return nil, fmt.Errorf("%s embeds %q, which is no interface of the module", key, e)
		case et == nil || et.iface != td.iface:
			continue
		}
		promoted, err := s.methodsOf(e, seen)
		if err != nil {
			return nil, err
		}
		for name := range promoted {
			out[name] = true
		}
	}
	return out, nil
}

// implementations maps each exported interface of an internal/ package to
// the sorted keys of the non-interface types that implement it.
func (s *typeScan) implementations() (map[string][]string, error) {
	sets := map[string]map[string]bool{}
	for key, td := range s.types {
		if !td.iface {
			ms, err := s.methodsOf(key, map[string]bool{})
			if err != nil {
				return nil, err
			}
			sets[key] = ms
		}
	}
	out := map[string][]string{}
	for _, k := range s.exported {
		want, err := s.methodsOf(k, map[string]bool{})
		if err != nil {
			return nil, err
		}
		impls := []string{}
	types:
		for key, have := range sets {
			for name := range want {
				if !have[name] {
					continue types
				}
			}
			impls = append(impls, key)
		}
		sort.Strings(impls)
		out[k] = impls
	}
	return out, nil
}
