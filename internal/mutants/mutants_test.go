// Package mutants is the mutation kill table: every mutant the scheduler's
// tests are known to kill — and every known survivor, with the reason it
// survives — as one row, run against a copy of the module.
//
// A row names one exact source substitution, which must match exactly once
// (a mutant whose code moved fails loudly instead of silently testing
// nothing), the packages to test it with, each with a -run pattern and a
// timeout, and its verdict: killed by the named tests, whose failure output
// must match the row's patterns, or a survivor with the reason why.
//
// Tier-1 runs only the cheap checks: TestKillTableRowsApply (every
// substitution matches once in the tree, and every test a row names exists
// in its packages and is selected by the row's -run pattern) and
// TestCheckVerdicts (how an outcome is read against a row). The table
// itself runs under the test binary's -mutants flag, each row a subtest:
//
//	go test -count=1 -v -run '^TestKillTable$' ./internal/mutants/ -args -mutants
//
// It copies the module into a temporary directory, applies one mutant at a
// time, runs `go test -json` on the row's packages and fails on a kill that
// stopped, a survivor that started being killed, or a substitution that no
// longer matches. `make chaos` runs the whole table and prints it with its
// wall time.
package mutants

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var runMutants = flag.Bool("mutants", false, "run the kill table: apply each mutant to a copy of the module and check its verdict")

// mutant is one row of the kill table.
type mutant struct {
	name string
	// file is module-relative; old must occur in it exactly once and is
	// replaced by new.
	file, old, new string
	runs           []pkgRun
	// killers are the tests (top-level names) that must fail; empty for a
	// survivor. must are patterns the runs' output must match; the first
	// match of each is printed in the table.
	killers []string
	must    []string
	// survives is why the mutant is not killed; set exactly when killers
	// is empty.
	survives string
}

// pkgRun is one `go test` invocation of a row.
type pkgRun struct {
	pkg     string // module-relative, "." for the root package
	run     string // -run pattern
	skip    string // -skip pattern, optional
	timeout time.Duration
}

// moduleRoot is the directory holding go.mod, two levels up from this
// package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	return root
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testsOf lists the test and fuzz functions of the package in dir.
func testsOf(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			out[string(m[1])] = true
		}
	}
	return out
}

// TestKillTableRowsApply is the tier-1 check of the table: names are unique,
// each substitution matches exactly once, each verdict is well formed, and
// each named killer exists in a package of its row whose -run pattern
// selects it and whose -skip pattern does not.
func TestKillTableRowsApply(t *testing.T) {
	root := moduleRoot(t)
	seen := map[string]bool{}
	for _, m := range killTable {
		if seen[m.name] {
			t.Errorf("%s: duplicate row name", m.name)
		}
		seen[m.name] = true
		if err := m.apply(root, false); err != nil {
			t.Errorf("%s: %v", m.name, err)
		}
		if len(m.runs) == 0 {
			t.Errorf("%s: no package to run", m.name)
		}
		if (len(m.killers) == 0) == (m.survives == "") {
			t.Errorf("%s: a row names its killers or says why the mutant survives, not both", m.name)
		}
		if len(m.killers) == 0 && len(m.must) > 0 {
			t.Errorf("%s: a survivor has no failure output to match", m.name)
		}
		for _, p := range m.must {
			if _, err := regexp.Compile(p); err != nil {
				t.Errorf("%s: %v", m.name, err)
			}
		}
		for _, k := range m.killers {
			if !m.selects(t, root, k) {
				t.Errorf("%s: no package of the row runs %s", m.name, k)
			}
		}
	}
}

// TestCheckVerdicts pins how an outcome is read against a row: a kill that
// stopped, a survivor that started being killed, missing failure output and
// a package that ran nothing each break the row.
func TestCheckVerdicts(t *testing.T) {
	kill := mutant{killers: []string{"TestA"}, must: []string{`gap \d+`}}
	survivor := mutant{survives: "reason"}
	result := func(log string, ran int, broken []string, failed ...string) *outcome {
		o := &outcome{failed: map[string]bool{}, ran: ran, broken: broken}
		for _, f := range failed {
			o.failed[f] = true
		}
		o.log.WriteString(log)
		return o
	}
	for _, c := range []struct {
		name string
		m    mutant
		o    *outcome
		ok   bool
	}{
		{"killed", kill, result("gap 7", 3, nil, "TestA", "TestB"), true},
		{"kill lost", kill, result("gap 7", 3, nil, "TestB"), false},
		{"output unmatched", kill, result("no gap", 3, nil, "TestA"), false},
		{"survives", survivor, result("", 3, nil), true},
		{"survivor killed", survivor, result("", 3, nil, "TestA"), false},
		{"nothing ran", survivor, result("", 0, []string{"internal/x"}), false},
	} {
		if note, ok := c.m.check(c.o); ok != c.ok {
			t.Errorf("%s: ok = %v (%s), want %v", c.name, ok, note, c.ok)
		}
	}
}

// selects reports whether some package of the row defines test and runs it.
func (m *mutant) selects(t *testing.T, root, test string) bool {
	for _, r := range m.runs {
		if !testsOf(t, filepath.Join(root, r.pkg))[test] {
			continue
		}
		run, err := regexp.Compile(r.run)
		if err != nil {
			t.Errorf("%s: -run %v", m.name, err)
			return false
		}
		if !run.MatchString(test) {
			continue
		}
		if r.skip != "" && regexp.MustCompile(r.skip).MatchString(test) {
			continue
		}
		return true
	}
	return false
}

// apply checks that the substitution matches exactly once in the tree at
// root and, when write is set, writes the mutated file.
func (m *mutant) apply(root string, write bool) error {
	path := filepath.Join(root, m.file)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if m.old == m.new {
		return fmt.Errorf("%s: the substitution changes nothing", m.file)
	}
	if n := bytes.Count(src, []byte(m.old)); n != 1 {
		return fmt.Errorf("%s: the substitution matches %d times, want exactly 1", m.file, n)
	}
	if !write {
		return nil
	}
	return os.WriteFile(path, bytes.Replace(src, []byte(m.old), []byte(m.new), 1), 0o644)
}

// outcome is what one row's runs produced.
type outcome struct {
	failed map[string]bool // failing top-level tests
	ran    int             // tests that passed or failed
	broken []string        // packages that did not build or ran nothing
	log    strings.Builder // everything the runs printed
}

// testEvent is one line of `go test -json`.
type testEvent struct {
	Action, Test, Output string
}

// timedOut names the tests a `-timeout` panic lists as running.
var timedOut = regexp.MustCompile(`^\s+((?:Test|Fuzz)\w*)\S* \(`)

// runPkg runs one package of a row in the mutated tree and folds the result
// into o.
func runPkg(dir string, r pkgRun, o *outcome) {
	args := []string{"test", "-json", "-count=1", "-run", r.run, "-timeout", r.timeout.String()}
	if r.skip != "" {
		args = append(args, "-skip", r.skip)
	}
	args = append(args, "./"+r.pkg)
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout+3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	fmt.Fprintf(&o.log, "$ go %s\n", strings.Join(args, " "))
	ran, inTimeout := 0, false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			o.log.WriteString(sc.Text() + "\n") // build output
			continue
		}
		top, _, _ := strings.Cut(ev.Test, "/")
		switch {
		case ev.Action == "output":
			o.log.WriteString(ev.Output)
			if strings.HasPrefix(ev.Output, "panic: test timed out") {
				inTimeout = true
			} else if m := timedOut.FindStringSubmatch(ev.Output); inTimeout && m != nil {
				o.failed[m[1]] = true
			}
		case top == "":
		case ev.Action == "fail":
			o.failed[top] = true
			ran++
		case ev.Action == "pass":
			ran++
		}
	}
	if ran == 0 && len(o.failed) == 0 {
		o.broken = append(o.broken, fmt.Sprintf("%s (%v)", r.pkg, err))
	}
	o.ran += ran
}

// check compares an outcome with the row. ok says whether the row holds;
// note says why not, or what the table prints beside the verdict.
func (m *mutant) check(o *outcome) (note string, ok bool) {
	if len(o.broken) > 0 {
		return "no test ran in " + strings.Join(o.broken, ", "), false
	}
	var failed []string
	for k := range o.failed {
		failed = append(failed, k)
	}
	sort.Strings(failed)
	if len(m.killers) == 0 {
		if len(failed) > 0 {
			return "the survivor is now killed by " + strings.Join(failed, ", ") + ": make it a kill", false
		}
		return fmt.Sprintf("%d tests pass", o.ran), true
	}
	var lost []string
	for _, k := range m.killers {
		if !o.failed[k] {
			lost = append(lost, k)
		}
	}
	if len(lost) > 0 {
		return fmt.Sprintf("kill lost: %s passed (failing: %s)", strings.Join(lost, ", "), strings.Join(failed, ", ")), false
	}
	var notes []string
	for _, p := range m.must {
		hit := regexp.MustCompile(p).FindString(o.log.String())
		if hit == "" {
			return fmt.Sprintf("the failure output does not match %q", p), false
		}
		notes = append(notes, hit)
	}
	if len(notes) == 0 {
		notes = append(notes, "by "+strings.Join(m.killers, ", "))
		if more := len(failed) - len(m.killers); more > 0 {
			notes[0] += fmt.Sprintf(" and %d more", more)
		}
	}
	return strings.Join(notes, "; "), true
}

// copyModule copies the module at root into dst, leaving out dot
// directories (.git and build outputs).
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), src, 0o644)
	})
}

// TestKillTable runs every row as a subtest, one mutant at a time, on a
// copy of the module, and prints the table with its wall time. -run
// 'TestKillTable/<row>' runs one row.
func TestKillTable(t *testing.T) {
	if !*runMutants {
		t.Skip("the kill table runs under -mutants (make chaos)")
	}
	root, dir := moduleRoot(t), t.TempDir()
	if err := copyModule(root, dir); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	var table strings.Builder
	rows, bad := 0, 0
	for i := range killTable {
		m := &killTable[i]
		t.Run(m.name, func(t *testing.T) {
			rows++
			start := time.Now()
			note, log, ok := m.run(dir)
			verdict := "killed"
			switch {
			case !ok:
				verdict = "BROKEN"
				bad++
				t.Errorf("%s\n%s", note, tail(log, 40))
			case len(m.killers) == 0:
				verdict = "survives"
			}
			fmt.Fprintf(&table, "%-34s %-8s %5.1fs  %s\n", m.name, verdict, time.Since(start).Seconds(), note)
		})
	}
	t.Logf("kill table: %d rows, %d broken, wall time %.1fs\n%s", rows, bad, time.Since(begin).Seconds(), table.String())
}

// run applies the row to the tree at dir, tests it, restores the file and
// checks the outcome; log is what the runs printed.
func (m *mutant) run(dir string) (note, log string, ok bool) {
	path := filepath.Join(dir, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		return err.Error(), "", false
	}
	defer os.WriteFile(path, orig, 0o644)
	if err := m.apply(dir, true); err != nil {
		return err.Error(), "", false
	}
	o := &outcome{failed: map[string]bool{}}
	for _, r := range m.runs {
		runPkg(dir, r, o)
	}
	note, ok = m.check(o)
	return note, o.log.String(), ok
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.SplitAfter(s, "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "")
}
