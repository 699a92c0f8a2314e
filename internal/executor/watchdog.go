package executor

// Stall watchdog: the third leg of the always-on observability stack
// (histogram.go counts latency, flight.go keeps the black box, this file
// notices that something is wrong). A supervisor goroutine samples the
// scheduler counters on a fixed interval and detects two no-progress
// shapes:
//
//   - Executor stall: work is visibly queued (deques, injection queue or
//     flow backlogs) but the executed counter has been flat for longer
//     than StallAfter. This is the signature of a lost wakeup, a livelock
//     in the steal loop, or every worker blocked inside a task body.
//
//   - Flow starvation: a flow has backlog, its own drain counter is flat,
//     yet its priority class as a whole keeps draining — the class wheel
//     has rotated far past the fairness bound (service gap ≤ Σweights−1
//     drains, flow.go) without servicing it. ServiceGapFactor scales the
//     bound into an alarm threshold.
//
// On detection the watchdog assembles a StallReport — reason, counter
// snapshot, per-flow stats, latency summaries when histograms are on, and
// a flight-recorder dump when the black box is armed — and hands it to
// the configured OnStall sink exactly once per stall episode (it re-arms
// only after progress resumes, so a persistent stall does not spam).
//
// The detector core (StallDetector) is a pure function of observed
// counter samples with no goroutine, clock or executor dependency: it is
// unit-tested directly here, and internal/sim feeds the same detector its
// own samples (scheduling steps as the duration), where an injected stall
// bug must be caught across a seed sweep and the healthy path must stay
// silent.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Watchdog defaults: sample at 10 Hz, alarm after one flat second, and
// let a starved flow miss four full wheel rotations before calling it
// starvation.
const (
	defaultWatchdogInterval = 100 * time.Millisecond
	defaultStallAfter       = time.Second
	defaultServiceGapFactor = 4
)

// The two no-progress shapes a StallDetector reports (StallReport.Reason).
const (
	ReasonNoProgress  = "no-progress"
	ReasonFlowStarved = "flow-starvation"
)

// WatchdogConfig configures StartWatchdog. The zero value selects the
// defaults above.
type WatchdogConfig struct {
	// Interval is the sampling period (default 100ms).
	Interval time.Duration
	// StallAfter is how long the executed counter may stay flat while
	// work is queued before the watchdog fires (default 1s).
	StallAfter time.Duration
	// ServiceGapFactor scales the per-class fairness bound (Σweights
	// drains per wheel rotation) into the starvation threshold: a
	// backlogged flow whose class drained more than factor×Σweights times
	// without servicing it trips the alarm (default 4).
	ServiceGapFactor int
	// OnStall receives each report on the watchdog goroutine. Optional;
	// Firings/LastReport work without it. The callback must not block for
	// long — sampling pauses while it runs.
	OnStall func(*StallReport)
}

// StallReport is one watchdog firing: the why plus everything the
// always-on layer can attach at that moment.
type StallReport struct {
	// Reason is "no-progress" or "flow-starvation".
	Reason string
	// Detail is a human-readable one-liner (flow name, gap size, flat
	// duration).
	Detail string
	// At is the wall-clock firing instant.
	At time.Time
	// Executed and Queued are the counter readings that tripped the
	// detector: total tasks invoked, and total visibly queued work
	// (deques + injection queue + flow backlogs).
	Executed uint64
	Queued   int
	// Flows is the per-flow counter snapshot (nil when no flows).
	Flows []FlowStats
	// Latency is the histogram snapshot, when WithLatencyHistograms.
	Latency []FlowLatencySummary
	// Flight is the black-box dump, when WithFlightRecorder.
	Flight *Trace
}

// flowMark is the detector's per-flow memory: the flow's own drain count
// and its class's total drain count the last time the flow was serviced
// (or had no backlog).
type flowMark struct {
	drainOps    uint64
	classDrains uint64
}

// StallDetector is the pure detection core. Feed it counter samples with
// Observe/ObserveFlows; it keeps only counter marks and reports at most
// one firing per stall episode. now is any monotonic duration — the real
// watchdog passes time.Since(start), internal/sim its step count.
type StallDetector struct {
	stallAfter time.Duration
	gapFactor  uint64

	primed       bool
	lastExecuted uint64
	lastProgress time.Duration
	stalled      bool

	marks []flowMark
}

// NewStallDetector returns a detector that calls executed flat for
// stallAfter with work queued a stall, and a backlogged flow unserviced
// across more than gapFactor × Σ(class weights) class drains starved.
// Non-positive arguments select the watchdog defaults.
func NewStallDetector(stallAfter time.Duration, gapFactor int) *StallDetector {
	if stallAfter <= 0 {
		stallAfter = defaultStallAfter
	}
	if gapFactor <= 0 {
		gapFactor = defaultServiceGapFactor
	}
	return &StallDetector{stallAfter: stallAfter, gapFactor: uint64(gapFactor)}
}

// Observe feeds one (executed, queued) sample at monotonic instant now.
// It returns a non-empty detail string when the no-progress alarm fires:
// queued work with a flat executed counter for longer than stallAfter.
// The alarm fires once per episode; any progress (or an empty queue)
// re-arms it.
func (d *StallDetector) Observe(now time.Duration, executed uint64, queued int) (string, bool) {
	if !d.primed || executed != d.lastExecuted || queued == 0 {
		d.primed = true
		d.lastExecuted = executed
		d.lastProgress = now
		d.stalled = false
		return "", false
	}
	if d.stalled {
		return "", false
	}
	if flat := now - d.lastProgress; flat >= d.stallAfter {
		d.stalled = true
		return fmt.Sprintf("%d tasks queued, executed counter flat at %d for %v",
			queued, executed, flat), true
	}
	return "", false
}

// ObserveFlows feeds one per-flow counter sample (FlowStats in
// registration order — the slice only ever appends, which is what lets
// the marks index by position). It returns a detail string when some
// backlogged flow's service gap exceeded gapFactor × Σ(class weights)
// drains. A newly seen flow is marked at its current counters, so it can
// never fire on its first observation.
func (d *StallDetector) ObserveFlows(flows []FlowStats) (string, bool) {
	if len(flows) == 0 {
		return "", false
	}
	var classDrains, classWeights [NumPriorityClasses]uint64
	for i := range flows {
		f := &flows[i]
		if f.Class < NumPriorityClasses {
			classDrains[f.Class] += f.DrainOps
			classWeights[f.Class] += uint64(f.Weight)
		}
	}
	var fired string
	for i := range flows {
		f := &flows[i]
		if f.Class >= NumPriorityClasses {
			continue
		}
		cd := classDrains[f.Class]
		if i >= len(d.marks) {
			d.marks = append(d.marks, flowMark{drainOps: f.DrainOps, classDrains: cd})
			continue
		}
		m := &d.marks[i]
		if f.Backlog == 0 || f.DrainOps != m.drainOps {
			m.drainOps = f.DrainOps
			m.classDrains = cd
			continue
		}
		gap := cd - m.classDrains
		bound := d.gapFactor * classWeights[f.Class]
		if gap > bound && fired == "" {
			fired = fmt.Sprintf("flow %q (class %s) backlogged with %d tasks, unserviced across %d class drains (bound %d)",
				f.Name, f.Class, f.Backlog, gap, bound)
			// Re-arm: fire again only after another full gap.
			m.classDrains = cd
		}
	}
	return fired, fired != ""
}

// Watchdog is a running stall supervisor; see StartWatchdog.
type Watchdog struct {
	e    *Executor
	cfg  WatchdogConfig
	stop chan struct{}
	done chan struct{}

	firings atomic.Uint64
	last    atomic.Pointer[StallReport]
}

// StartWatchdog starts the stall supervisor goroutine. It requires
// WithMetrics (the executed counter is the progress signal); latency and
// flight-recorder attachments ride along automatically when their options
// are built in. Stop the returned Watchdog before Shutdown.
func (e *Executor) StartWatchdog(cfg WatchdogConfig) (*Watchdog, error) {
	if e.metrics == nil {
		return nil, errors.New("executor: watchdog requires WithMetrics")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = defaultWatchdogInterval
	}
	w := &Watchdog{
		e:    e,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w, nil
}

// Firings returns how many stall reports the watchdog has produced.
func (w *Watchdog) Firings() uint64 { return w.firings.Load() }

// LastReport returns the most recent stall report, or nil.
func (w *Watchdog) LastReport() *StallReport { return w.last.Load() }

// Stop terminates the supervisor goroutine and waits for it to exit.
// Idempotent is not required: call exactly once.
func (w *Watchdog) Stop() {
	close(w.stop)
	<-w.done
}

func (w *Watchdog) run() {
	defer close(w.done)
	det := NewStallDetector(w.cfg.StallAfter, w.cfg.ServiceGapFactor)
	start := time.Now()
	tick := time.NewTicker(w.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		snap, ok := w.e.MetricsSnapshot()
		if !ok {
			return
		}
		executed, queued := progressSample(&snap)
		now := time.Since(start)
		if detail, fired := det.Observe(now, executed, queued); fired {
			w.fire(ReasonNoProgress, detail, executed, queued, &snap)
		}
		if detail, fired := det.ObserveFlows(snap.Flows); fired {
			w.fire(ReasonFlowStarved, detail, executed, queued, &snap)
		}
	}
}

// progressSample reduces a metrics snapshot to the two detector inputs:
// total executions and total visibly queued work.
func progressSample(s *Snapshot) (executed uint64, queued int) {
	for i := range s.Workers {
		executed += s.Workers[i].Executed
		queued += s.Workers[i].QueueDepth
	}
	queued += s.Injection.Depth
	for i := range s.Flows {
		queued += s.Flows[i].Backlog
	}
	return executed, queued
}

func (w *Watchdog) fire(reason, detail string, executed uint64, queued int, snap *Snapshot) {
	r := &StallReport{
		Reason:   reason,
		Detail:   detail,
		At:       time.Now(),
		Executed: executed,
		Queued:   queued,
		Flows:    snap.Flows,
	}
	if lat, ok := w.e.LatencyStats(); ok {
		r.Latency = lat
	}
	if tr, ok := w.e.FlightSnapshot(); ok {
		r.Flight = &tr
	}
	w.last.Store(r)
	w.firings.Add(1)
	if w.cfg.OnStall != nil {
		w.cfg.OnStall(r)
	}
}
