// Package cli holds the one observed run behind the cmd/ binaries' -trace,
// -debug, -prom and -dot flags.
package cli

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"

	"gotaskflow/internal/core"
	"gotaskflow/internal/debughttp"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/metrics"
	"gotaskflow/internal/tracing"
)

// Observed is one driver run with the observability flags attached. The
// executor must have been built with executor.WithMetrics and
// executor.WithTracing.
type Observed struct {
	Executor  *executor.Executor
	Taskflow  *core.Taskflow // what runs; registered on the debug server as Name
	Name      string
	TracePath string // -trace: write the run's Chrome trace-event JSON here
	DebugAddr string // -debug: serve /debug/taskflow/ here while it runs

	// The instrumented report, switched on by Headline: after the run its
	// line and the run summary (Taskflow must CollectRunStats) go to
	// Stderr, then the Prometheus text to Stdout (-prom) and the annotated
	// task graph to DotPath (-dot).
	Headline func() string
	Prom     bool
	DotPath  string

	Stdout, Stderr io.Writer // nil: os.Stdout, os.Stderr
}

// Run executes run observed: the debug server is listening and the DOT and
// trace files exist before run is called — a bad address or path fails
// here, not after the experiment — and the capture brackets run alone. A
// stall watchdog is armed while run executes and prints "reason: detail"
// to Stderr when the executor stops making progress. The trace (load it in
// https://ui.perfetto.dev or chrome://tracing) is written even when run
// fails; run's error is the one returned. The DOT file is kept only when
// the graph was written to it.
func (o Observed) Run(run func() error) (err error) {
	o.Stdout = cmp.Or(o.Stdout, io.Writer(os.Stdout))
	o.Stderr = cmp.Or(o.Stderr, io.Writer(os.Stderr))
	if o.DebugAddr != "" {
		addr, stop, err := debughttp.New(o.Executor).Register(o.Name, o.Taskflow).ListenAndServe(o.DebugAddr)
		if err != nil {
			return err
		}
		defer stop() //nolint:errcheck
		fmt.Fprintf(o.Stderr, "debug endpoints on http://%s%s\n", addr, debughttp.Prefix)
	}
	var dot *os.File
	if o.DotPath != "" {
		if dot, err = os.Create(o.DotPath); err != nil {
			return err
		}
		defer func() {
			if err = errors.Join(err, dot.Close()); err != nil {
				os.Remove(o.DotPath)
			}
		}()
	}
	wd, err := o.Executor.StartWatchdog(executor.WatchdogConfig{OnStall: func(r *executor.StallReport) {
		fmt.Fprintf(o.Stderr, "%s: %s\n", r.Reason, r.Detail)
	}})
	if err != nil {
		return err
	}
	err = o.traced(run)
	wd.Stop()
	if err != nil || o.Headline == nil {
		return err
	}

	rs, _ := o.Taskflow.LastRunStats()
	snap, _ := o.Executor.MetricsSnapshot()
	fmt.Fprintln(o.Stderr, o.Headline())
	if err := metrics.WriteRunSummary(o.Stderr, rs, snap); err != nil {
		return err
	}
	if o.Prom {
		if err := metrics.WritePrometheus(o.Stdout, metrics.Static(snap)); err != nil {
			return err
		}
	}
	if dot != nil {
		return o.Taskflow.DumpAnnotated(dot)
	}
	return nil
}

// traced calls run inside an event-trace capture written to TracePath, or
// just calls it when there is no -trace.
func (o Observed) traced(run func() error) error {
	if o.TracePath == "" {
		return run()
	}
	f, err := os.Create(o.TracePath)
	if err != nil {
		return err
	}
	if !o.Executor.StartTrace() {
		f.Close()
		os.Remove(o.TracePath)
		return fmt.Errorf("cli: trace capture could not start (executor built without tracing, or a capture is already active)")
	}
	runErr := run()
	tr, _ := o.Executor.StopTrace()
	err = errors.Join(tracing.WriteTrace(f, tr), f.Close())
	if err == nil {
		msg := fmt.Sprintf("wrote %d trace events to %s", len(tr.Events), o.TracePath)
		if tr.Dropped > 0 {
			msg += fmt.Sprintf(" (%d dropped; raise the ring capacity)", tr.Dropped)
		}
		fmt.Fprintln(o.Stderr, msg)
	}
	return cmp.Or(runErr, err)
}
