package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/testutil"
	"gotaskflow/internal/traversal"
	"gotaskflow/internal/wavefront"
)

// observed builds what a micro driver's -metrics pass builds: a traced,
// counted executor and a named taskflow collecting timed run statistics.
func observed(t *testing.T, name string) (Observed, *bytes.Buffer, *bytes.Buffer) {
	e := executor.New(4, executor.WithMetrics(), executor.WithTracing(0))
	t.Cleanup(e.Shutdown)
	var stdout, stderr bytes.Buffer
	return Observed{
		Executor: e, Taskflow: core.NewShared(e).SetName(name).CollectRunStats(true), Name: name,
		Stdout: &stdout, Stderr: &stderr,
	}, &stdout, &stderr
}

// TestObservedRunWritesValidTraces drives Observed.Run the way `wavefront
// -metrics -size 64 -workers 4 -trace f` and `traversal -metrics -size 5000
// -workers 4 -trace f` do and holds each trace file to the structural
// promises of a capture, then the report to the drivers' output order.
func TestObservedRunWritesValidTraces(t *testing.T) {
	testutil.NoLeaks(t)
	dir := t.TempDir()
	builds := map[string]func(tf *core.Taskflow) int{
		"wavefront_64x64": func(tf *core.Taskflow) int {
			wavefront.Build(tf, 64, wavefront.Spin)
			return 64 * 64
		},
		"traversal_5000": func(tf *core.Taskflow) int {
			traversal.Build(tf, graphgen.Random(5000, graphgen.Config{Seed: 1}), traversal.Spin)
			return 5000
		},
	}
	for name, build := range builds {
		o, stdout, stderr := observed(t, name)
		tasks := build(o.Taskflow)
		o.TracePath = filepath.Join(dir, name+".json")
		o.DotPath = filepath.Join(dir, name+".dot")
		o.DebugAddr = "localhost:0"
		o.Prom = true
		o.Headline = func() string { return name + ": checksum" }
		if err := o.Run(o.Taskflow.Run); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Executor.TraceActive() {
			t.Fatalf("%s: capture still active after Run", name)
		}

		raw, err := os.ReadFile(o.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := testutil.ParseTrace(raw)
		if err == nil {
			err = doc.Capture()
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dropped := doc.OtherData["droppedEvents"]; doc.Spans != tasks && dropped == 0.0 {
			t.Fatalf("%s: %d task spans with nothing dropped, want %d", name, doc.Spans, tasks)
		}

		// stderr, in the drivers' order; Prometheus text alone on stdout.
		at := -1
		for _, want := range []string{
			"debug endpoints on http://127.0.0.1:",
			fmt.Sprintf("wrote %v trace events to %s", doc.OtherData["totalEvents"], o.TracePath),
			name + ": checksum\n",
			fmt.Sprintf("run:   tasks=%d ", tasks),
			fmt.Sprintf("sched: executed=%d ", tasks),
			"hot:   1.",
		} {
			i := strings.Index(stderr.String(), want)
			if i <= at {
				t.Fatalf("%s: stderr lacks %q after offset %d:\n%s", name, want, at, stderr)
			}
			at = i
		}
		if !strings.HasPrefix(stdout.String(), "# HELP gotaskflow_") {
			t.Fatalf("%s: stdout is not the Prometheus text:\n%.200s", name, stdout)
		}
		if dot, err := os.ReadFile(o.DotPath); err != nil || !strings.HasPrefix(string(dot), "digraph") {
			t.Fatalf("%s: -dot file: %v\n%.200s", name, err, dot)
		}
	}
}

// TestObservedRunFailsBeforeTheRun: a -trace path that cannot be created
// and a -debug address that cannot be listened on are reported before the
// experiment runs, not after it, and leave no capture behind.
func TestObservedRunFailsBeforeTheRun(t *testing.T) {
	testutil.NoLeaks(t)
	for _, bad := range []Observed{
		{TracePath: filepath.Join(t.TempDir(), "no", "such", "dir", "x.json")},
		{TracePath: filepath.Join(t.TempDir(), "x.json"), DebugAddr: "not-an-address"},
	} {
		o, _, _ := observed(t, "unrun")
		o.TracePath, o.DebugAddr = bad.TracePath, bad.DebugAddr
		ran := false
		err := o.Run(func() error { ran = true; return nil })
		if err == nil || ran {
			t.Fatalf("Run(%+v) = %v, run callback invoked: %v; want an error and no run", bad, err, ran)
		}
		if _, statErr := os.Stat(bad.TracePath); o.Executor.TraceActive() || statErr == nil {
			t.Fatalf("Run(%+v) left a capture active (%v) or a trace file behind (stat: %v)", bad, o.Executor.TraceActive(), statErr)
		}
	}
}

// TestObservedRunKeepsTheTraceOfAFailedRun: the run's error is returned,
// the capture is stopped and the file holds the trace up to the failure.
func TestObservedRunKeepsTheTraceOfAFailedRun(t *testing.T) {
	o, _, _ := observed(t, "failing")
	o.Taskflow.Emplace1(func() {}).Name("only")
	o.TracePath = filepath.Join(t.TempDir(), "failed.json")
	boom := fmt.Errorf("boom")
	err := o.Run(func() error {
		if err := o.Taskflow.Run(); err != nil {
			return err
		}
		return boom
	})
	if err != boom || o.Executor.TraceActive() {
		t.Fatalf("Run = %v, capture active %v; want boom and no capture", err, o.Executor.TraceActive())
	}
	raw, _ := os.ReadFile(o.TracePath)
	if doc, err := testutil.ParseTrace(raw); err != nil || doc.Spans != 1 {
		t.Fatalf("trace of the failed run: %v, %+v", err, doc)
	}
}
