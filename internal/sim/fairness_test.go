package sim_test

// Property-based fairness suite for the multi-tenant flow layer, run
// entirely under the deterministic simulation. Each seed derives a whole
// scenario — worker count, flow mix (class, weight, quota, watermark),
// job list — and the orchestrator-task pattern makes admission control
// observable: jobs are dispatched from inside a running simulated task,
// where the drive loop is already active, so dispatched graphs pile up
// in-flight instead of running inline and later dispatches meet real
// quota pressure. Every failure message carries the seed; re-running the
// named subtest replays the identical schedule.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/sim"
)

// fairJob is one dispatched chain: which flow it targets, how many nodes
// it charges, and what happened to it.
type fairJob struct {
	flow  int
	nodes int
	runs  int32
	err   error
}

// fairOutcome is the per-seed digest two identical runs must agree on.
type fairOutcome struct {
	hash    uint64
	jobs    []string
	rejects uint64
	sheds   uint64
}

// runFairScenario executes the seed's scenario once and checks every
// single-run property inline; cross-run determinism is the caller's job.
func runFairScenario(t *testing.T, seed int64) fairOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	workers := 1 + rng.Intn(4)
	nflows := 2 + rng.Intn(4)

	s := sim.New(workers, sim.WithSeed(seed), sim.WithServiceLog())
	flows := make([]executor.Flow, nflows)
	cfgs := make([]executor.FlowConfig, nflows)
	for i := range flows {
		cfg := executor.FlowConfig{
			Class:  executor.PriorityClass(rng.Intn(int(executor.NumPriorityClasses))),
			Weight: 1 + rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			cfg.MaxInFlight = 2 + rng.Intn(5)
		}
		if rng.Intn(3) == 0 {
			cfg.MaxBacklog = 3 + rng.Intn(4)
		}
		cfgs[i] = cfg // already within the documented ranges
		flows[i] = s.NewFlow(fmt.Sprintf("flow%d", i), cfg)
	}

	jobs := make([]*fairJob, 8+rng.Intn(10))
	for j := range jobs {
		jobs[j] = &fairJob{flow: rng.Intn(nflows), nodes: 1 + rng.Intn(3)}
	}

	// Orchestrator: dispatch every job from inside a running task. The
	// reentrant drive() is a no-op here, so each Dispatch only admits and
	// enqueues — in-flight accumulates across jobs and later Admits see
	// the quota and backlog pressure the earlier ones created. Futures
	// are resolved after Run returns (Get inside the single-threaded sim
	// would deadlock on an admitted-but-unscheduled topology).
	futs := make([]*core.Future, len(jobs))
	orch := core.NewShared(s)
	orch.Emplace1(func() {
		for j, job := range jobs {
			job := job
			jf := core.NewShared(s).SetFlow(flows[job.flow])
			var prev core.Task
			for k := 0; k < job.nodes; k++ {
				c := jf.Emplace1(func() { job.runs++ })
				if k > 0 {
					prev.Precede(c)
				}
				prev = c
			}
			futs[j] = jf.Dispatch()
		}
	})
	if err := orch.Run(); err != nil {
		t.Fatalf("seed %d: orchestrator failed: %v", seed, err)
	}

	// Liveness and conservation: the run quiesced, every counter balances.
	if err := s.Failure(); err != nil {
		t.Fatalf("seed %d: liveness failure: %v", seed, err)
	}
	if err := s.Stats().Check(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := s.CheckQueues(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	// Admission outcomes: an admitted job completed exactly once per
	// node; a refused job carries exactly ErrAdmission or ErrOverloaded
	// and ran nothing — refusal must charge nothing and run nothing.
	admittedNodes := make([]uint64, nflows)
	out := fairOutcome{hash: s.ScheduleHash(), jobs: make([]string, len(jobs))}
	for j, job := range jobs {
		job.err = futs[j].Get()
		switch {
		case job.err == nil:
			if int(job.runs) != job.nodes {
				t.Fatalf("seed %d: admitted job %d ran %d/%d nodes", seed, j, job.runs, job.nodes)
			}
			admittedNodes[job.flow] += uint64(job.nodes)
		case errors.Is(job.err, executor.ErrAdmission), errors.Is(job.err, executor.ErrOverloaded):
			if job.runs != 0 {
				t.Fatalf("seed %d: refused job %d still ran %d nodes (%v)", seed, j, job.runs, job.err)
			}
		default:
			t.Fatalf("seed %d: job %d failed with unexpected error: %v", seed, j, job.err)
		}
		out.jobs[j] = fmt.Sprintf("f%d n%d r%d %v", job.flow, job.nodes, job.runs, job.err)
	}

	// Per-flow stats line up with the job ledger.
	for i, st := range s.FlowStats() {
		if st.AdmittedTasks != admittedNodes[i] {
			t.Fatalf("seed %d: flow %d admitted %d tasks, jobs account for %d",
				seed, i, st.AdmittedTasks, admittedNodes[i])
		}
		if max := cfgs[i].MaxInFlight; max > 0 && st.PeakInFlight > int64(max) {
			t.Fatalf("seed %d: flow %d peak in-flight %d exceeds quota %d",
				seed, i, st.PeakInFlight, max)
		}
		out.rejects += st.AdmissionRejects
		out.sheds += st.OverloadSheds
	}

	// Fairness: no flow with standing backlog is bypassed longer than one
	// full rotation of its class's weighted wheel.
	log := s.ServiceLog()
	for i, cfg := range cfgs {
		bound := s.WheelSize(cfg.Class) - 1
		if gap := sim.MaxServiceGap(log, cfg.Class, i); gap > bound {
			t.Fatalf("seed %d: flow %d (class %v) bypassed for %d consecutive drains, bound %d",
				seed, i, cfg.Class, gap, bound)
		}
	}
	return out
}

// TestPropertyFlowFairnessSweep sweeps 120 seeds and asserts, per seed:
// liveness, conservation (CheckQueues), exact admission outcomes, quota
// ceilings, the weighted-round-robin service-gap bound, and bit-identical
// replay of the whole scenario. Replay one seed with
//
//	go test ./internal/sim -run '^TestPropertyFlowFairnessSweep$/^seed42$' -v
func TestPropertyFlowFairnessSweep(t *testing.T) {
	const seeds = 120
	var totalRejects, totalSheds uint64
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a := runFairScenario(t, seed)
			b := runFairScenario(t, seed)
			if a.hash != b.hash {
				t.Fatalf("seed %d: schedule hashes differ across identical runs: %#x vs %#x",
					seed, a.hash, b.hash)
			}
			for j := range a.jobs {
				if a.jobs[j] != b.jobs[j] {
					t.Fatalf("seed %d: job %d outcome differs across identical runs: %q vs %q",
						seed, j, a.jobs[j], b.jobs[j])
				}
			}
			totalRejects += a.rejects
			totalSheds += a.sheds
		})
	}
	// The sweep must actually exercise admission control: across 120
	// scenarios both refusal paths have to fire, or the properties above
	// were vacuous.
	if totalRejects == 0 {
		t.Fatalf("no quota rejection occurred across %d seeds — quotas never under pressure", seeds)
	}
	if totalSheds == 0 {
		t.Fatalf("no overload shed occurred across %d seeds — watermarks never under pressure", seeds)
	}
	t.Logf("sweep exercised admission control: %d quota rejects, %d overload sheds", totalRejects, totalSheds)
}
