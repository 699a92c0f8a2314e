package cli

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/testutil"
	"gotaskflow/internal/traversal"
	"gotaskflow/internal/wavefront"
)

// observed builds what `repro -observe` builds: a traced, counted executor
// and a named taskflow collecting timed run statistics.
func observed(t *testing.T, name string) (Observed, *bytes.Buffer, *bytes.Buffer) {
	e := executor.New(4, executor.WithMetrics(), executor.WithTracing(0))
	t.Cleanup(e.Shutdown)
	var stdout, stderr bytes.Buffer
	return Observed{
		Executor: e, Taskflow: core.NewShared(e).SetName(name).CollectRunStats(true), Name: name,
		Stdout: &stdout, Stderr: &stderr,
	}, &stdout, &stderr
}

// TestObservedRunWritesValidTraces drives Observed.Run the way `repro
// -observe wavefront -trace f` and `repro -observe traversal -trace f` do,
// on a 64x64 wavefront and a 5000-node traversal with 4 workers, and holds
// each trace file to the structural promises of a capture, then the report
// to the driver's output order.
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

		// stderr, in the driver's order; Prometheus text alone on stdout.
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

// TestObservedRunFailsBeforeTheRun: a -trace or -dot path that cannot be
// created and a -debug address that cannot be listened on are reported
// before the experiment runs, not after it, and leave no capture and no
// file behind.
func TestObservedRunFailsBeforeTheRun(t *testing.T) {
	testutil.NoLeaks(t)
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, bad := range []Observed{
		{TracePath: filepath.Join(missing, "x.json")},
		{DotPath: filepath.Join(missing, "x.dot")},
		{TracePath: filepath.Join(missing, "x.json"), DotPath: filepath.Join(t.TempDir(), "x.dot")},
		{TracePath: filepath.Join(t.TempDir(), "x.json"), DebugAddr: "not-an-address"},
	} {
		o, _, _ := observed(t, "unrun")
		o.TracePath, o.DotPath, o.DebugAddr = bad.TracePath, bad.DotPath, bad.DebugAddr
		ran := false
		err := o.Run(func() error { ran = true; return nil })
		if err == nil || ran {
			t.Fatalf("Run(%+v) = %v, run callback invoked: %v; want an error and no run", bad, err, ran)
		}
		if bad.DebugAddr == "" && !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Run(%+v) = %v, want the open error", bad, err)
		}
		if o.Executor.TraceActive() {
			t.Fatalf("Run(%+v) left a capture active", bad)
		}
		for _, path := range []string{bad.TracePath, bad.DotPath} {
			if _, statErr := os.Stat(path); path != "" && statErr == nil {
				t.Fatalf("Run(%+v) left %s behind", bad, path)
			}
		}
	}
}

// chanWriter hands each write to a channel, so a test can wait for a line
// the watchdog goroutine prints.
type chanWriter chan string

func (w chanWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

// TestObservedRunReportsAStall: while run is stuck — the one worker blocked
// inside a task with more work queued behind it — the watchdog prints the
// stall's reason and detail to Stderr, and it is stopped when Run returns.
func TestObservedRunReportsAStall(t *testing.T) {
	testutil.NoLeaks(t)
	e := executor.New(1, executor.WithMetrics(), executor.WithTracing(0))
	defer e.Shutdown()
	lines := make(chanWriter, 16) // room for every report, so a firing never blocks wd.Stop
	o := Observed{Executor: e, Stderr: lines}
	var report string
	err := o.Run(func() error {
		release, done := make(chan struct{}), make(chan struct{}, 2)
		for _, body := range []func(){func() { <-release }, func() {}} {
			if err := e.Submit(executor.NewTask(func(executor.Context) { body(); done <- struct{}{} })); err != nil {
				return err
			}
		}
		select {
		case report = <-lines:
		case <-time.After(10 * time.Second):
		}
		close(release)
		<-done
		<-done
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(report, executor.ReasonNoProgress+": ") {
		t.Fatalf("stderr during the stall: %q, want a %q report", report, executor.ReasonNoProgress)
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
