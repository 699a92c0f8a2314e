package core

// Latency capture for the executor's per-flow histograms (see
// internal/executor/histogram.go). The executor owns the histograms; this
// file owns the timestamps, because only the node lifecycle knows when an
// execution became ready (queued) and when its body ran.
//
// The seam is cold by construction: newTopology asks the scheduler, when it
// is an executor.Executor, for its sink once per topology and caches it
// there. When the sink is nil — the executor was built without
// WithLatencyHistograms, or the scheduler is internal/sim — the
// per-execution cost is one flag check and readyAtNs is never written.
//
// Timing points: readyAtNs is stamped wherever an execution is queued
// (the sources at launch, dependency release in notifySucc, condition
// re-schedule, subflow spawn, retry resubmission), and the body start/end
// are the executing worker's two stamps (Context.StartStamp / EndStamp) —
// the readings its trace events carry, so core reads no clock on a worker
// and a successor released by this task is ready at this task's end
// stamp. The successor the worker continues with (node.Run) also starts
// at that stamp: its queue wait is zero by construction, and the
// bookkeeping between the two bodies is part of its execution time. One
// bodyEnd call per execution feeds RunStats timing and, per resolved
// execution, the three histogram series — into words the worker owns,
// which it settles before it lets a waiter go (topology.settle). A retry
// attempt whose failure arms another backoff is not recorded — the
// execution is still outstanding — and its resubmission restamps
// readyAtNs, so the eventual record charges the last wait, not the backoff
// sleeps.

import "gotaskflow/internal/executor"

// bodyEnd accounts one body execution of n that began at start (bodyStart)
// when the topology times its bodies: its duration to the worker's end
// stamp is busy time for RunStats timing and, when the execution resolved,
// one histogram record. It returns that end stamp, 0 when nothing times
// the body.
func (t *topology) bodyEnd(ctx executor.Context, n *node, start int64, resolved bool) int64 {
	if t.timed {
		return t.recordBody(ctx, n, start, resolved)
	}
	return 0
}

func (t *topology) recordBody(ctx executor.Context, n *node, start int64, resolved bool) int64 {
	end := ctx.EndStamp()
	d := end - start
	w := ctx.WorkerID()
	if st := t.stats; st != nil && st.timing {
		st.workers[w].busyNs += d
		if t.addsNodeStats(n) {
			n.execDurNs += d
		} else {
			n.execDurNs = d
		}
	}
	if resolved && t.lat != nil {
		t.lat.RecordLatency(w, start-n.readyAtNs, d)
	}
	return end
}
