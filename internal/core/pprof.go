package core

// runtime/pprof label propagation: with EnablePprofLabels, every task body
// runs under pprof labels ("taskflow", "task"), so a standard CPU profile
// (go tool pprof, -tagfocus/-tagshow) attributes samples to named tasks
// instead of anonymous worker goroutines — the profile-side counterpart of
// the trace timeline.

import (
	"context"
	"runtime/pprof"
)

// EnablePprofLabels makes task bodies of subsequently dispatched (or
// prepared Run) topologies execute under runtime/pprof labels: "taskflow"
// is the flow's display name, "task" the task's name (or its positional
// p<hex> fallback, matching DOT dumps and trace spans). Off by default:
// label propagation costs one goroutine label swap and a small allocation
// per task body, which would break the scheduler's zero-allocation
// steady state. Enable it for profiling sessions only. Returns tf for
// chaining.
func (tf *Taskflow) EnablePprofLabels(enable bool) *Taskflow {
	tf.pprofLabels = enable
	tf.runTopo = nil // the cached run state predates the setting
	return tf
}

// labeled runs fn, wrapped in the topology's pprof labels when enabled.
func (t *topology) labeled(n *node, fn func()) {
	if !t.pprofLabels {
		fn()
		return
	}
	flow := t.flowName
	if flow == "" {
		flow = "taskflow"
	}
	pprof.Do(context.Background(),
		pprof.Labels("taskflow", flow, "task", n.label(int(n.idx))),
		func(context.Context) { fn() })
}
