package main

import (
	"fmt"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// observation is what the executor's public counters, histograms and flow
// statistics said about one traced round. Executors that live for one op
// (wavefront_dispatch) are summed with add.
type observation struct {
	total        executor.WorkerStats
	preciseWakes uint64
	probWakes    uint64
	queueWait    executor.LatencySnapshot
	exec         executor.LatencySnapshot
	interactive  executor.LatencySnapshot // end-to-end, Interactive class
	flows        []executor.FlowStats
	stats        core.RunStats
	haveStats    bool
}

// observeExecutor reads e's counters once its workers have left the
// scheduler and the conservation laws of Snapshot.Reconcile hold; a snapshot
// that never reconciles is an error. It returns nil when e was built without
// metrics (untraced round). stats, when non-nil, supplies the RunStats of the
// last run.
func observeExecutor(e *executor.Executor, stats func() (core.RunStats, bool)) (*observation, error) {
	if !e.MetricsEnabled() {
		return nil, nil
	}
	var snap executor.Snapshot
	var err error
	for try := 0; try < 100; try++ {
		snap, _ = e.MetricsSnapshot()
		if err = snap.Reconcile(); err == nil {
			break
		}
		// The caller's Run returned, but a worker may still be between
		// its last task and its next park.
		time.Sleep(200 * time.Microsecond)
	}
	if err != nil {
		return nil, fmt.Errorf("counters do not reconcile: %w", err)
	}
	o := &observation{
		total:        snap.Total(),
		preciseWakes: snap.PreciseWakes,
		probWakes:    snap.ProbabilisticWakes,
		flows:        snap.Flows,
	}
	if sums, ok := e.LatencyStats(); ok {
		for i := range sums {
			o.queueWait.Merge(&sums[i].QueueWait)
			o.exec.Merge(&sums[i].Exec)
		}
	}
	if ia, ok := e.ClassLatency(executor.Interactive); ok {
		o.interactive = ia.EndToEnd
	}
	if stats != nil {
		o.stats, o.haveStats = stats()
	}
	return o, nil
}

func (o *observation) add(p *observation) {
	t, s := &o.total, &p.total
	t.Pushes += s.Pushes
	t.Pops += s.Pops
	t.StolenFrom += s.StolenFrom
	t.QueueGrows += s.QueueGrows
	t.MaxQueueDepth = max(t.MaxQueueDepth, s.MaxQueueDepth)
	t.StealAttempts += s.StealAttempts
	t.Steals += s.Steals
	t.StolenTasks += s.StolenTasks
	t.StealBatches += s.StealBatches
	t.InjectionDrains += s.InjectionDrains
	t.InjectionDrainedTasks += s.InjectionDrainedTasks
	t.FlowDrains += s.FlowDrains
	t.FlowDrainedTasks += s.FlowDrainedTasks
	t.CacheHits += s.CacheHits
	t.Prewaits += s.Prewaits
	t.WaitCancels += s.WaitCancels
	t.Parks += s.Parks
	t.ProbabilisticWakes += s.ProbabilisticWakes
	t.Executed += s.Executed
	o.preciseWakes += p.preciseWakes
	o.probWakes += p.probWakes
	o.queueWait.Merge(&p.queueWait)
	o.exec.Merge(&p.exec)
	o.interactive.Merge(&p.interactive)
	o.stats, o.haveStats = p.stats, p.haveStats
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// metrics derives the per-workload executor and core figures from the traced
// round r on an executor of the given size.
func (o *observation) metrics(put func(name string, v float64, samples int64), r *roundResult, workers int) {
	t := o.total
	exe := float64(t.Executed)
	n := int64(t.Executed)
	put("executor.cache_hit_share", ratio(float64(t.CacheHits), exe), n)
	put("executor.pop_share", ratio(float64(t.Pops), exe), n)
	put("executor.steal_share", ratio(float64(t.Steals), exe), n)
	put("executor.steal_success_share", ratio(float64(t.Steals), float64(t.StealAttempts)), int64(t.StealAttempts))
	put("executor.steal_batch_avg", ratio(float64(t.StolenTasks), float64(t.Steals)), int64(t.Steals))
	put("executor.injection_drain_share", ratio(float64(t.InjectionDrains), exe), n)
	put("executor.injection_batch_avg", ratio(float64(t.InjectionDrainedTasks), float64(t.InjectionDrains)), int64(t.InjectionDrains))
	put("executor.flow_drain_share", ratio(float64(t.FlowDrains), exe), n)
	put("executor.flow_batch_avg", ratio(float64(t.FlowDrainedTasks), float64(t.FlowDrains)), int64(t.FlowDrains))
	put("executor.parks_per_ktask", ratio(1e3*float64(t.Parks), exe), n)
	put("executor.wait_cancel_share", ratio(float64(t.WaitCancels), float64(t.Prewaits)), int64(t.Prewaits))
	put("executor.precise_wakes_per_ktask", ratio(1e3*float64(o.preciseWakes), exe), n)
	put("executor.prob_wakes_per_ktask", ratio(1e3*float64(o.probWakes), exe), n)
	put("executor.queue_grows", float64(t.QueueGrows), n)
	put("executor.max_queue_depth", float64(t.MaxQueueDepth), n)

	put("executor.queue_wait_p50_us", us(o.queueWait.Quantile(0.50)), int64(o.queueWait.Count))
	put("executor.queue_wait_p99_us", us(o.queueWait.Quantile(0.99)), int64(o.queueWait.Count))
	put("executor.exec_p50_us", us(o.exec.Quantile(0.50)), int64(o.exec.Count))
	put("executor.exec_p99_us", us(o.exec.Quantile(0.99)), int64(o.exec.Count))

	var jobs int64
	var rejects, sheds uint64
	for _, f := range o.flows {
		rejects += f.AdmissionRejects
		sheds += f.OverloadSheds
		if f.Class == executor.Interactive {
			jobs = r.ops // every op of a workload with interactive flows is one job
		}
	}
	put("executor.flow_interactive_e2e_p99_us", us(o.interactive.Quantile(0.99)), int64(o.interactive.Count))
	put("executor.flow_interactive_jobs_per_s", ratio(float64(jobs), r.wall.Seconds()), jobs)
	put("executor.flow_batch_tasks_per_s", ratio(float64(r.sideTasks), r.wall.Seconds()), r.sideTasks)
	put("executor.flow_rejects", float64(rejects), int64(len(o.flows)))
	put("executor.flow_sheds", float64(sheds), int64(len(o.flows)))

	var have int64
	if o.haveStats {
		have = 1
	}
	put("core.parallelism", o.stats.Parallelism, have)
	put("core.achieved_parallelism", o.stats.AchievedParallelism, have)
	put("core.busy_share", ratio(float64(o.stats.Busy), float64(o.stats.Wall)*float64(workers)), have)
}
