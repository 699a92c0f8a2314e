// Package sloc measures software costs the way the Cpp-Taskflow paper
// does (Tables I, II and III): physical source lines of code in the style
// of SLOCCount, cyclomatic complexity per function in the style of Lizard,
// a raw token counter for the listing comparisons, and the COCOMO organic
// model SLOCCount uses for effort/schedule/cost estimates.
//
// The analyzer is built on go/parser and go/scanner from the standard
// library and operates on Go sources — the implementations whose costs the
// reproduced tables compare.
package sloc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FuncMetrics carries the per-function measurements.
type FuncMetrics struct {
	Name string
	LOC  int // physical source lines spanned that contain code
	CC   int // cyclomatic complexity
}

// FileMetrics aggregates one source file.
type FileMetrics struct {
	Path  string
	LOC   int // code lines in the whole file
	Funcs []FuncMetrics
}

// maxCC returns the maximum cyclomatic complexity over the file's
// functions (the paper's MCC column), or 0 for a function-free file.
func (f *FileMetrics) maxCC() int {
	m := 0
	for _, fn := range f.Funcs {
		if fn.CC > m {
			m = fn.CC
		}
	}
	return m
}

// AnalyzeSource measures a Go source buffer.
func AnalyzeSource(filename string, src []byte) (*FileMetrics, error) {
	fset := token.NewFileSet()
	astFile, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("sloc: parse %s: %w", filename, err)
	}
	codeLines := codeLineSet(fset, filename, src)
	fm := &FileMetrics{Path: filename, LOC: len(codeLines)}

	ast.Inspect(astFile, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		start := fset.Position(fd.Pos()).Line
		end := fset.Position(fd.End()).Line
		loc := 0
		for line := start; line <= end; line++ {
			if codeLines[line] {
				loc++
			}
		}
		fm.Funcs = append(fm.Funcs, FuncMetrics{
			Name: funcName(fd),
			LOC:  loc,
			CC:   complexity(fd.Body),
		})
		return true
	})
	return fm, nil
}

// AnalyzeFile measures a Go source file on disk.
func AnalyzeFile(path string) (*FileMetrics, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return AnalyzeSource(path, src)
}

// AnalyzeDir measures every non-test Go file under dir (recursively) and
// returns the files sorted by path.
func AnalyzeDir(dir string) ([]*FileMetrics, error) {
	var out []*FileMetrics
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fm, err := AnalyzeFile(path)
		if err != nil {
			return err
		}
		out = append(out, fm)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Totals sums LOC and computes the max per-function CC across files.
func Totals(files []*FileMetrics) (loc, maxCC int) {
	for _, f := range files {
		loc += f.LOC
		if m := f.maxCC(); m > maxCC {
			maxCC = m
		}
	}
	return loc, maxCC
}

// codeLineSet returns the set of 1-based line numbers holding at least one
// non-comment token — the SLOCCount notion of a physical source line.
func codeLineSet(fset *token.FileSet, filename string, src []byte) map[int]bool {
	var s scanner.Scanner
	file := fset.AddFile(filename+"#scan", fset.Base(), len(src))
	s.Init(file, src, nil, 0) // comments skipped by default
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // implicit semicolon, not source text
		}
		p := fset.Position(pos)
		lines[p.Line] = true
		// Multi-line strings contribute every spanned line: mark the line
		// following each embedded newline.
		if tok == token.STRING {
			for i, c := range lit {
				if c == '\n' && i+1 < len(lit) {
					lines[fset.Position(pos+token.Pos(i+1)).Line] = true
				}
			}
		}
	}
	return lines
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// complexity computes Lizard-style cyclomatic complexity: 1 + one for each
// decision point (if, for/range, case/comm clause, && and ||).
func complexity(body *ast.BlockStmt) int {
	cc := 1
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.CaseClause, *ast.CommClause:
			cc++
		case *ast.BinaryExpr:
			if x.Op == token.LAND || x.Op == token.LOR {
				cc++
			}
		case *ast.FuncLit:
			// Nested function literals count toward the enclosing
			// function, as Lizard attributes lambdas to their definition
			// site in the C++ sources the paper measures.
		}
		return true
	})
	return cc
}

// CountTokens returns the number of lexical tokens in a Go source buffer,
// the metric the paper quotes alongside LOC for Listings 3-5 and 7-8.
func CountTokens(src []byte) int {
	var s scanner.Scanner
	fset := token.NewFileSet()
	file := fset.AddFile("tokens", fset.Base(), len(src))
	s.Init(file, src, nil, 0)
	n := 0
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue
		}
		n++
	}
	return n
}

// Cocomo holds the SLOCCount-style COCOMO organic-mode estimate the
// paper's Table II reports.
type Cocomo struct {
	PersonMonths   float64 // basic COCOMO effort
	PersonYears    float64 // Effort column
	ScheduleMonths float64
	Developers     float64 // Dev column: effort / schedule
	Cost           float64 // Dev Cost column, USD
}

// DefaultSalary is SLOCCount's default annual salary; the paper quotes it
// explicitly ($56,286/year).
const DefaultSalary = 56286.0

// overheadFactor is SLOCCount's default overhead multiplier.
const overheadFactor = 2.4

// EstimateCocomo applies basic COCOMO (organic mode: a=2.4, b=1.05,
// c=2.5, d=0.38) to a line count, reproducing SLOCCount's Effort, Dev and
// Cost numbers.
func EstimateCocomo(loc int, salary float64) Cocomo {
	kloc := float64(loc) / 1000
	var e Cocomo
	if kloc <= 0 {
		return e
	}
	e.PersonMonths = 2.4 * math.Pow(kloc, 1.05)
	e.PersonYears = e.PersonMonths / 12
	e.ScheduleMonths = 2.5 * math.Pow(e.PersonMonths, 0.38)
	e.Developers = e.PersonMonths / e.ScheduleMonths
	e.Cost = e.PersonYears * salary * overheadFactor
	return e
}
