package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gotaskflow/internal/testutil"
)

// headers returns the section titles out printed, in order.
func headers(out string) []string {
	var hs []string
	for _, m := range regexp.MustCompile(`(?m)^===== (.*) =====$`).FindAllStringSubmatch(out, -1) {
		hs = append(hs, m[1])
	}
	return hs
}

func runRepro(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var o, e bytes.Buffer
	err = run(args, &o, &e)
	return o.String(), e.String(), err
}

func TestSectionsPrintInPaperOrder(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-quick", "table1", "listings"}, []string{
			"Listings 3-5 / 7-8 (programmability)",
			"Table I (micro-benchmark software costs)",
		}},
		{[]string{"-quick"}, []string{
			"Listings 3-5 / 7-8 (programmability)",
			"Table I (micro-benchmark software costs)",
			"Figure 7 top (runtime vs problem size)",
			"Figure 7 bottom (runtime vs workers)",
			"Table II (OpenTimer software costs + COCOMO)",
			"Figure 9 (incremental timing, tv80)",
			"Figure 9 (incremental timing, vga_lcd)",
			"Figure 10 left (full-timing scalability)",
			"Figure 10 right (CPU utilization)",
			"Table III (machine-learning software costs)",
			"Figure 12 top (DNN runtime vs epochs)",
			"Figure 12 bottom (DNN runtime vs workers)",
		}},
	} {
		stdout, _, err := runRepro(t, tc.args...)
		if err != nil {
			t.Fatalf("repro %v: %v", tc.args, err)
		}
		if got := headers(stdout); !slices.Equal(got, tc.want) {
			t.Fatalf("repro %v printed sections %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestFlagsThatCannotApplyFail: every combination that cannot apply fails
// before anything runs, naming what is wrong, and writes nothing.
func TestFlagsThatCannotApplyFail(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-trace", trace}, "-trace applies only with -observe"},
		{[]string{"-quick", "-debug", "localhost:0", "table1"}, "-debug applies only with -observe"},
		{[]string{"-quick", "-prom"}, "-prom applies only with -observe"},
		{[]string{"-quick", "-dot", "g.dot"}, "-dot applies only with -observe"},
		{[]string{"-quick", "-observe", "wavefront", "fig7"}, "-observe runs no sections, got fig7"},
		{[]string{"-quick", "-observe", "dnn", "-prom"}, "-prom and -dot do not apply to -observe dnn"},
		{[]string{"-quick", "-observe", "dnn", "-dot", "g.dot"}, "-prom and -dot do not apply to -observe dnn"},
		{[]string{"-quick", "-observe", "fig7"}, `unknown -observe "fig7" (want wavefront, traversal or dnn)`},
		{[]string{"-quick", "table1", "fig8"}, `unknown section "fig8" (want listings table1 fig7 table2 fig9 fig10 table3 fig12)`},
		{[]string{"-quick", "-observe", "wavefront", "-dot", filepath.Join(t.TempDir(), "no", "x.dot")}, "no such file or directory"},
	} {
		stdout, stderr, err := runRepro(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("repro %v = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if stdout != "" || stderr != "" {
			t.Fatalf("repro %v printed before failing:\nstdout: %s\nstderr: %s", tc.args, stdout, stderr)
		}
	}
	if _, err := os.Stat(trace); err == nil {
		t.Fatal("repro -trace without -observe wrote a trace")
	}
}

// TestObserveWritesEveryArtifact: -observe on the micro workloads writes a
// valid trace capture and DOT graph, serves the debug endpoint, puts the
// run summary on stderr and the Prometheus text on stdout.
func TestObserveWritesEveryArtifact(t *testing.T) {
	testutil.NoLeaks(t)
	for _, target := range []string{"wavefront", "traversal"} {
		dir := t.TempDir()
		trace, dot := filepath.Join(dir, "t.json"), filepath.Join(dir, "g.dot")
		stdout, stderr, err := runRepro(t, "-quick", "-observe", target,
			"-trace", trace, "-dot", dot, "-prom", "-debug", "localhost:0")
		if err != nil {
			t.Fatalf("%s: %v\n%s", target, err, stderr)
		}
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := testutil.ParseTrace(raw)
		if err == nil {
			err = doc.Capture()
		}
		if err != nil {
			t.Fatalf("%s: trace: %v", target, err)
		}
		if g, err := os.ReadFile(dot); err != nil || !strings.HasPrefix(string(g), "digraph") {
			t.Fatalf("%s: -dot file: %v\n%.200s", target, err, g)
		}
		if !strings.HasPrefix(stdout, "# HELP gotaskflow_") {
			t.Fatalf("%s: stdout is not the Prometheus text:\n%.200s", target, stdout)
		}
		for _, want := range []string{"debug endpoints on http://", target + " ", "checksum", "run:   tasks="} {
			if !strings.Contains(stderr, want) {
				t.Fatalf("%s: stderr lacks %q:\n%s", target, want, stderr)
			}
		}
	}
}

func TestObserveDNNPrintsLossAndAccuracy(t *testing.T) {
	testutil.NoLeaks(t)
	trace := filepath.Join(t.TempDir(), "train.json")
	stdout, stderr, err := runRepro(t, "-quick", "-observe", "dnn", "-trace", trace)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^3-layer DNN: 1 epochs, 500 images, \d+ tasks/epoch$`),
		regexp.MustCompile(`(?m)^loss: first \d+\.\d{4}, last \d+\.\d{4}$`),
		regexp.MustCompile(`(?m)^train accuracy \d\.\d{3}, test accuracy \d\.\d{3}$`),
	} {
		if !want.MatchString(stdout) {
			t.Fatalf("stdout lacks %s:\n%s", want, stdout)
		}
	}
	if raw, err := os.ReadFile(trace); err != nil {
		t.Fatal(err)
	} else if _, err := testutil.ParseTrace(raw); err != nil {
		t.Fatalf("trace: %v", err)
	}
}
