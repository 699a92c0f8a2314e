package sim_test

// One law, both drivers. The flow policy (admission, queues, wheel) exists
// once, in internal/executor, and has two drivers: the worker pool and this
// package's simulator. Each case below is a seeded flow-bound workload run
// on both — on the real pool once (W=2, WithMetrics), under simulation
// across a seed sweep — with every job dispatched while the scheduler's
// workers are held, so backlogs stand and admission is under pressure and,
// nothing draining meanwhile, a pure function of the job list. Both drivers
// must then give every job the same answer and every flow the same
// admission counters, refuse in the same order (a backlog at its watermark
// sheds before the quota is even looked at), and satisfy the same queue and
// flow laws, executor.CheckQueueLaws and executor.CheckFlowLaws, over the
// injection queue and the flows alike at quiescence.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/sim"
)

// flowScheduler is what the workload needs of either driver.
type flowScheduler interface {
	executor.Scheduler
	NewFlow(name string, cfg executor.FlowConfig) executor.Flow
	FlowStats() []executor.FlowStats
}

type lawCase struct {
	name  string
	flows []executor.FlowConfig
	// probe is the flow asked, once every job is in, for one unit more than
	// its whole quota, and wantProbe the refusal that must come back.
	probe     int
	wantProbe error
	// wantRejects and wantSheds say which refusal the job list must meet.
	wantRejects, wantSheds bool
}

var lawCases = []lawCase{
	{
		name: "mixed classes and weights",
		flows: []executor.FlowConfig{
			{Class: executor.Interactive, Weight: 1},
			{Class: executor.Batch, Weight: 3},
			{Class: executor.Batch, Weight: 1},
			{Class: executor.Background, Weight: 2},
		},
		probe: -1,
	},
	{
		name: "a quota that rejects",
		flows: []executor.FlowConfig{
			{Class: executor.Batch, Weight: 2, MaxInFlight: 5},
			{Class: executor.Interactive},
		},
		probe: 0, wantProbe: executor.ErrAdmission, wantRejects: true,
	},
	{
		name: "a watermark that sheds",
		flows: []executor.FlowConfig{
			{Class: executor.Background, MaxBacklog: 3},
			{Class: executor.Batch, Weight: 2},
		},
		probe: -1, wantSheds: true,
	},
	{
		name: "shed before quota",
		flows: []executor.FlowConfig{
			{Class: executor.Interactive, MaxInFlight: 6, MaxBacklog: 2},
			{Class: executor.Batch, Weight: 4, MaxInFlight: 9},
		},
		probe: 0, wantProbe: executor.ErrOverloaded, wantRejects: true, wantSheds: true,
	},
}

// lawOutcome is what the two drivers must agree on.
type lawOutcome struct {
	Jobs  []string // per job: flow, nodes, the answer to its dispatch
	Probe string
	Flows []string // per flow: admission and queue counters
}

func refusal(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, executor.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, executor.ErrAdmission):
		return "admission"
	}
	return err.Error()
}

// runLawCase registers the case's flows on sched, has hold run the
// dispatching of the seed's job list with the workers held, waits for every
// job, and digests what happened. Laws that need no second driver to state
// are checked here.
func runLawCase(t *testing.T, sched flowScheduler, hold func(func()), c lawCase, seed int64) lawOutcome {
	t.Helper()
	flows := make([]executor.Flow, len(c.flows))
	for i, cfg := range c.flows {
		flows[i] = sched.NewFlow(fmt.Sprintf("flow%d", i), cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	type job struct {
		flow, nodes int
		runs        int32 // written by the job's own chain, one node at a time
		fut         *core.Future
	}
	jobs := make([]*job, 24)
	for j := range jobs {
		jobs[j] = &job{flow: rng.Intn(len(flows)), nodes: 1 + rng.Intn(3)}
	}
	var probe error
	hold(func() {
		for _, jb := range jobs {
			jb := jb
			tf := core.NewShared(sched).SetFlow(flows[jb.flow])
			var prev core.Task
			for k := 0; k < jb.nodes; k++ {
				n := tf.Emplace1(func() { jb.runs++ })
				if k > 0 {
					prev.Precede(n)
				}
				prev = n
			}
			jb.fut = tf.Dispatch()
		}
		if c.probe >= 0 {
			probe = flows[c.probe].Admit(c.flows[c.probe].MaxInFlight + 1)
		}
	})

	out := lawOutcome{Probe: refusal(probe)}
	admitted := make([]uint64, len(flows))
	for j, jb := range jobs {
		err := jb.fut.Get()
		switch {
		case err == nil && int(jb.runs) != jb.nodes:
			t.Fatalf("%s seed %d: admitted job %d ran %d/%d nodes", c.name, seed, j, jb.runs, jb.nodes)
		case err != nil && jb.runs != 0:
			t.Fatalf("%s seed %d: refused job %d ran %d nodes (%v)", c.name, seed, j, jb.runs, err)
		case err == nil:
			admitted[jb.flow] += uint64(jb.nodes)
		}
		out.Jobs = append(out.Jobs, fmt.Sprintf("f%d n%d %s", jb.flow, jb.nodes, refusal(err)))
	}
	var rejects, sheds uint64
	for i, st := range sched.FlowStats() {
		if st.AdmittedTasks != admitted[i] || st.Executed != admitted[i] {
			t.Fatalf("%s seed %d: flow %d admitted %d and executed %d tasks, its jobs account for %d",
				c.name, seed, i, st.AdmittedTasks, st.Executed, admitted[i])
		}
		rejects += st.AdmissionRejects
		sheds += st.OverloadSheds
		out.Flows = append(out.Flows, fmt.Sprintf("%s class=%v w=%d admitted=%d rejects=%d sheds=%d pushes=%d peak=%d",
			st.Name, st.Class, st.Weight, st.AdmittedTasks, st.AdmissionRejects, st.OverloadSheds, st.Pushes, st.PeakInFlight))
	}
	if (rejects > 0) != c.wantRejects || (sheds > 0) != c.wantSheds {
		t.Fatalf("%s seed %d: %d quota rejects and %d sheds; want rejects %v, sheds %v",
			c.name, seed, rejects, sheds, c.wantRejects, c.wantSheds)
	}
	if c.probe >= 0 && !errors.Is(probe, c.wantProbe) {
		t.Fatalf("%s seed %d: probe of flow %d = %v, want %v", c.name, seed, c.probe, probe, c.wantProbe)
	}
	return out
}

// onPool runs the case on the worker pool: both workers sit in a gate task
// while the jobs are dispatched from this goroutine.
func onPool(t *testing.T, c lawCase, seed int64) lawOutcome {
	t.Helper()
	const workers = 2
	e := executor.New(workers, executor.WithMetrics())
	defer e.Shutdown()
	hold := func(fn func()) {
		started := make(chan struct{}, workers)
		release := make(chan struct{})
		for i := 0; i < workers; i++ {
			if err := e.Submit(executor.NewTask(func(executor.Context) { started <- struct{}{}; <-release })); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < workers; i++ {
			<-started
		}
		fn()
		close(release)
	}
	out := runLawCase(t, e, hold, c, seed)
	snap, _ := e.MetricsSnapshot()
	total := snap.Total()
	if err := executor.CheckQueueLaws("injection", []executor.QueueStats{snap.Injection}, total.InjectionDrains, total.InjectionDrainedTasks); err != nil {
		t.Fatalf("%s seed %d: worker pool: %v", c.name, seed, err)
	}
	if err := executor.CheckFlowLaws(snap.Flows, total.FlowDrains, total.FlowDrainedTasks); err != nil {
		t.Fatalf("%s seed %d: worker pool: %v", c.name, seed, err)
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatalf("%s seed %d: worker pool: %v", c.name, seed, err)
	}
	return out
}

// onSim runs the case under simulation: the jobs are dispatched from inside
// a running task, where the drive loop is already active and nothing runs
// inline.
func onSim(t *testing.T, c lawCase, seed, schedule int64) lawOutcome {
	t.Helper()
	s := sim.New(1+int(schedule%3), sim.WithSeed(schedule), sim.WithStallDetector(64))
	hold := func(fn func()) {
		orch := core.NewShared(s)
		orch.Emplace1(fn)
		if err := orch.Run(); err != nil {
			t.Fatalf("%s seed %d schedule %d: orchestrator: %v", c.name, seed, schedule, err)
		}
	}
	out := runLawCase(t, s, hold, c, seed)
	if err := s.Failure(); err != nil {
		t.Fatalf("%s seed %d schedule %d: %v", c.name, seed, schedule, err)
	}
	if err := s.Stats().Check(); err != nil {
		t.Fatalf("%s seed %d schedule %d: %v", c.name, seed, schedule, err)
	}
	if err := s.CheckQueues(); err != nil {
		t.Fatalf("%s seed %d schedule %d: simulator: %v", c.name, seed, schedule, err)
	}
	return out
}

func TestOneLawBothDrivers(t *testing.T) {
	for _, c := range lawCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				pool := onPool(t, c, seed)
				for schedule := int64(0); schedule < 20; schedule++ {
					if got := onSim(t, c, seed, schedule); !reflect.DeepEqual(got, pool) {
						t.Fatalf("seed %d schedule %d: the drivers disagree\nsimulator:   %+v\nworker pool: %+v",
							seed, schedule, got, pool)
					}
				}
			}
		})
	}
}
