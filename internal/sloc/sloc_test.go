package sloc

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

const sample = `package demo

// a comment-only line
func Simple() int {
	return 1
}

// Branchy has several decision points.
func Branchy(x int, ok bool) int {
	if x > 0 && ok { // +2 (if, &&)
		x++
	}
	for i := 0; i < x; i++ { // +1
		switch i {
		case 0: // +1
			x--
		case 1: // +1
			x++
		default: // +1
		}
	}
	return x
}

type T struct{}

func (t *T) Method(vals []int) int {
	s := 0
	for _, v := range vals { // +1
		if v > 0 || v < -10 { // +2
			s += v
		}
	}
	return s
}
`

func TestAnalyzeSource(t *testing.T) {
	fm, err := AnalyzeSource("sample.go", []byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Funcs) != 3 {
		t.Fatalf("found %d funcs, want 3", len(fm.Funcs))
	}
	byName := map[string]FuncMetrics{}
	for _, f := range fm.Funcs {
		byName[f.Name] = f
	}
	if got := byName["Simple"].CC; got != 1 {
		t.Fatalf("Simple CC = %d, want 1", got)
	}
	if got := byName["Branchy"].CC; got != 7 {
		t.Fatalf("Branchy CC = %d, want 7", got)
	}
	if got := byName["T.Method"].CC; got != 4 {
		t.Fatalf("T.Method CC = %d, want 4", got)
	}
	if fm.maxCC() != 7 {
		t.Fatalf("maxCC = %d, want 7", fm.maxCC())
	}
	if byName["Simple"].LOC != 3 {
		t.Fatalf("Simple LOC = %d, want 3", byName["Simple"].LOC)
	}
	// Whole file: comment-only and blank lines must not count.
	if fm.LOC < 25 || fm.LOC > 35 {
		t.Fatalf("file LOC = %d, outside sane range", fm.LOC)
	}
}

func TestCommentsAndBlanksExcluded(t *testing.T) {
	src := "package p\n\n// only a comment\n\n/* block\ncomment\n*/\n\nvar X = 1\n"
	fm, err := AnalyzeSource("c.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if fm.LOC != 2 { // "package p" and "var X = 1"
		t.Fatalf("LOC = %d, want 2", fm.LOC)
	}
}

func TestMultilineString(t *testing.T) {
	src := "package p\n\nvar S = `line1\nline2\nline3`\n"
	fm, err := AnalyzeSource("m.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if fm.LOC != 4 { // package + 3 string lines
		t.Fatalf("LOC = %d, want 4", fm.LOC)
	}
}

func TestParseError(t *testing.T) {
	if _, err := AnalyzeSource("bad.go", []byte("not go code")); err == nil {
		t.Fatal("parse error not reported")
	}
}

func TestAnalyzeDirSkipsTests(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.go"), []byte("package p\nfunc A() {}\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "a_test.go"), []byte("package p\nfunc TestA() {}\n"), 0o644)
	sub := filepath.Join(dir, "sub")
	os.Mkdir(sub, 0o755)
	os.WriteFile(filepath.Join(sub, "b.go"), []byte("package q\nfunc B() { if true {} }\n"), 0o644)
	files, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("analyzed %d files, want 2 (tests skipped)", len(files))
	}
	loc, maxCC := Totals(files)
	if loc != 4 {
		t.Fatalf("total LOC = %d, want 4", loc)
	}
	if maxCC != 2 {
		t.Fatalf("maxCC = %d, want 2", maxCC)
	}
}

func TestCountTokens(t *testing.T) {
	n := CountTokens([]byte("package p\nfunc f() { x := 1 + 2 }\n"))
	// package p func f ( ) { x := 1 + 2 ; } -> but implicit newline
	// semicolons are excluded; the explicit count:
	// package, p, func, f, (, ), {, x, :=, 1, +, 2, ; (before }), }
	if n < 12 || n > 15 {
		t.Fatalf("CountTokens = %d, outside expected range", n)
	}
	if CountTokens([]byte("")) != 0 {
		t.Fatal("empty source has tokens")
	}
}

// TestCocomoReproducesPaperTable2 checks the model against the paper's own
// numbers: OpenTimer v1 (9,123 LOC) -> 2.04 person-years, 2.90 developers,
// $275,287 at $56,286/year; v2 (4,482 LOC) -> 0.97 py, 1.83 dev, $130,523.
func TestCocomoReproducesPaperTable2(t *testing.T) {
	v1 := EstimateCocomo(9123, DefaultSalary)
	if math.Abs(v1.PersonYears-2.04) > 0.01 {
		t.Fatalf("v1 effort = %.3f py, paper says 2.04", v1.PersonYears)
	}
	if math.Abs(v1.Developers-2.90) > 0.02 {
		t.Fatalf("v1 devs = %.3f, paper says 2.90", v1.Developers)
	}
	if math.Abs(v1.Cost-275287) > 3000 {
		t.Fatalf("v1 cost = %.0f, paper says 275287", v1.Cost)
	}
	v2 := EstimateCocomo(4482, DefaultSalary)
	if math.Abs(v2.PersonYears-0.97) > 0.01 {
		t.Fatalf("v2 effort = %.3f py, paper says 0.97", v2.PersonYears)
	}
	if math.Abs(v2.Developers-1.83) > 0.02 {
		t.Fatalf("v2 devs = %.3f, paper says 1.83", v2.Developers)
	}
	if math.Abs(v2.Cost-130523) > 2000 {
		t.Fatalf("v2 cost = %.0f, paper says 130523", v2.Cost)
	}
}

func TestCocomoZero(t *testing.T) {
	z := EstimateCocomo(0, DefaultSalary)
	if z.PersonMonths != 0 || z.Cost != 0 {
		t.Fatal("zero LOC should estimate zero effort")
	}
}

func TestGenericReceiver(t *testing.T) {
	src := "package p\ntype G[T any] struct{}\nfunc (g *G[T]) M() {}\n"
	fm, err := AnalyzeSource("g.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Funcs) != 1 || fm.Funcs[0].Name != "G.M" {
		t.Fatalf("funcs = %+v", fm.Funcs)
	}
}
