package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gotaskflow/internal/circuit"
	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/experiments"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/pipeline"
	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav2"
	"gotaskflow/internal/traversal"
	"gotaskflow/internal/wavefront"
)

// env is what a round is given: the input seed, the worker count, whether
// the warm-up is cut short (-quick), whether the executor's counters and
// histograms are switched on (traced round) and the tracer the op records
// its spans on (nil untraced).
type env struct {
	seed    int64
	workers int
	quick   bool
	observe bool
	tr      *tracer
}

// instance is one built workload. op runs one operation on the caller's
// goroutine and returns the task-body invocations it caused; sideTasks, when
// set, reads the tasks completed so far by background load the op does not
// wait for. finish stops that load, checks the outputs against the
// sequential reference, reads the counters when observing, and shuts down.
type instance struct {
	warm      int
	op        func() (int64, error)
	sideTasks func() int64
	finish    func() (*observation, error)
}

// observeOpts switches on the executor's own counters and histograms for
// the traced round.
func observeOpts(ev *env) []executor.Option {
	if !ev.observe {
		return nil
	}
	return []executor.Option{executor.WithMetrics(), executor.WithLatencyHistograms()}
}

// lcg is the iteration-counted nominal task body every spin workload uses.
func lcg(x uint64, spin int) uint64 {
	for i := 0; i < spin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// chainLen is four times the issue's 1024. A blocking Run pays two thread
// wake-ups whose cost on a virtual machine flips between states of the
// hypervisor; at 1024 nodes they were a fifth to two fifths of the op. At
// 16384 nodes (4 MB, past the second-level cache) runs of one commit differed
// by 11 % with where the process's pages landed; at 4096 they differ by 2 to
// 3 % while the host is quiet (README, Steadiness, has the loud state).
const chainLen = 4096

// Warm-up op counts are sized to about 0.4 s on the host the benchmark was
// written on: a freshly started executor's threads take a few hundred
// milliseconds to settle on the CPUs, and throughput differs until then.
var chainWarm = map[bool]int{false: 2000, true: 200}

// chainStep is what every task of the chain adds to the sum.
func chainStep(seed int64) int64 { return seed%7 + 1 }

// buildChain emplaces an n-node linear chain whose tasks add step to *sum.
func buildChain(tf *core.Taskflow, n int, sum *int64, step int64) {
	var prev core.Task
	for i := 0; i < n; i++ {
		t := tf.Emplace1(func() { *sum += step })
		if i > 0 {
			prev.Precede(t)
		}
		prev = t
	}
}

func setupChain(ev *env, monitored bool) (*instance, error) {
	opts := observeOpts(ev)
	if monitored {
		// The README's production-monitoring configuration.
		opts = []executor.Option{executor.WithMetrics(), executor.WithLatencyHistograms(), executor.WithFlightRecorder(0)}
	}
	e := executor.New(ev.workers, opts...)
	tf := core.NewShared(e)
	if monitored || ev.observe {
		tf.CollectRunStats(true)
	}
	step := chainStep(ev.seed)
	var sum, runs int64
	buildChain(tf, chainLen, &sum, step)
	return &instance{
		warm: chainWarm[monitored],
		op: func() (int64, error) {
			sp := ev.tr.begin("core.Run")
			err := tf.Run()
			ev.tr.end(sp)
			runs++
			return chainLen, err
		},
		finish: func() (*observation, error) {
			defer e.Shutdown()
			if want := runs * chainLen * step; sum != want {
				return nil, fmt.Errorf("chain sum %d, sequential reference %d", sum, want)
			}
			return observeExecutor(e, tf.LastRunStats)
		},
	}, nil
}

const wavefrontM = 64

func setupWavefront(ev *env) (*instance, error) {
	want := wavefront.Sequential(wavefrontM, wavefront.Spin)
	opts := observeOpts(ev)
	acc := &observation{}
	var obsErr error
	return &instance{
		warm: 400,
		op: func() (int64, error) {
			sp := ev.tr.begin("executor.New")
			e := executor.New(ev.workers, opts...)
			ev.tr.end(sp)
			sp = ev.tr.begin("core.NewShared")
			tf := core.NewShared(e)
			ev.tr.end(sp)
			if ev.observe {
				tf.CollectRunStats(true)
			}
			sp = ev.tr.begin("wavefront.Build")
			g := wavefront.Build(tf, wavefrontM, wavefront.Spin)
			ev.tr.end(sp)
			sp = ev.tr.begin("core.Dispatch")
			fut := tf.Dispatch()
			ev.tr.end(sp)
			sp = ev.tr.begin("core.Future.Get")
			err := fut.Get()
			ev.tr.end(sp)
			sp = ev.tr.begin("executor.Shutdown")
			e.Shutdown()
			ev.tr.end(sp)
			if ev.observe {
				o, oerr := observeExecutor(e, fut.Stats)
				if oerr != nil {
					obsErr = oerr
				} else {
					acc.add(o)
				}
			}
			if err == nil && g[wavefrontM][wavefrontM] != want {
				err = fmt.Errorf("wavefront checksum %#x, sequential reference %#x", g[wavefrontM][wavefrontM], want)
			}
			return wavefrontM * wavefrontM, err
		},
		finish: func() (*observation, error) {
			if !ev.observe {
				return nil, nil
			}
			return acc, obsErr
		},
	}, nil
}

const traversalNodes = 8192

func traversalDAG(seed int64) *graphgen.DAG {
	return graphgen.Random(traversalNodes, graphgen.Config{MaxIn: 4, MaxOut: 4, Seed: seed})
}

func setupTraversal(ev *env) (*instance, error) {
	d := traversalDAG(ev.seed)
	want := traversal.Sequential(d, traversal.Spin)
	e := executor.New(ev.workers, observeOpts(ev)...)
	tf := core.NewShared(e)
	if ev.observe {
		tf.CollectRunStats(true)
	}
	val := traversal.Build(tf, d, traversal.Spin)
	return &instance{
		warm: 150,
		op: func() (int64, error) {
			sp := ev.tr.begin("core.Run")
			err := tf.Run()
			ev.tr.end(sp)
			return traversalNodes, err
		},
		finish: func() (*observation, error) {
			defer e.Shutdown()
			if got := traversal.Checksum(val); got != want {
				return nil, fmt.Errorf("traversal checksum %#x, sequential reference %#x", got, want)
			}
			return observeExecutor(e, tf.LastRunStats)
		},
	}, nil
}

const (
	tenantFlows = 256
	tenantChain = 4
	// tenantSpin makes an interactive job about 16 µs of work, a small
	// request handler. With empty nodes the median job took under 2 µs and
	// moved by a fifth between runs with the state of the Go scheduler.
	tenantSpin      = 4096
	tenantBatchJobs = 2
	tenantBatchLen  = 4096
)

// tenantOrder is the order in which the caller visits the interactive flows.
func tenantOrder(seed int64) []int { return rand.New(rand.NewSource(seed)).Perm(tenantFlows) }

func setupTenants(ev *env) (*instance, error) {
	e := executor.New(ev.workers, observeOpts(ev)...)
	counts := make([]uint64, tenantFlows)
	jobs := make([]int, tenantFlows)
	tfs := make([]*core.Taskflow, tenantFlows)
	for i := range tfs {
		f := e.NewFlow(fmt.Sprintf("interactive%d", i), executor.FlowConfig{Class: executor.Interactive})
		tfs[i] = core.NewShared(e).SetFlow(f)
		if ev.observe {
			tfs[i].CollectRunStats(true)
		}
		var prev core.Task
		for k := 0; k < tenantChain; k++ {
			t := tfs[i].Emplace1(func() { counts[i] += lcg(uint64(i), tenantSpin) })
			if k > 0 {
				prev.Precede(t)
			}
			prev = t
		}
	}
	order := tenantOrder(ev.seed)

	// Batch tenants: each driver goroutine re-runs its flat graph, blocked
	// in Run rather than spinning, until finish closes stop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	batchFlows := make([]executor.Flow, tenantBatchJobs)
	batchOut := make([][]uint64, tenantBatchJobs)
	batchErrs := make([]error, tenantBatchJobs)
	for b := range batchFlows {
		f := e.NewFlow(fmt.Sprintf("batch%d", b), executor.FlowConfig{Class: executor.Batch})
		batchFlows[b] = f
		out := make([]uint64, tenantBatchLen)
		batchOut[b] = out
		tf := core.NewShared(e).SetFlow(f)
		for k := range out {
			tf.Emplace1(func() { out[k] = lcg(uint64(ev.seed)+uint64(k), wavefront.Spin) })
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tf.Run(); err != nil {
					batchErrs[b] = err
					return
				}
			}
		}()
	}

	var next int
	var last *core.Taskflow
	return &instance{
		warm: 1000,
		op: func() (int64, error) {
			i := order[next%tenantFlows]
			next++
			jobs[i]++
			last = tfs[i]
			sp := ev.tr.begin("core.Run")
			err := last.Run()
			ev.tr.end(sp)
			return tenantChain, err
		},
		sideTasks: func() int64 {
			var n uint64
			for _, f := range batchFlows {
				n += f.Stats().Executed
			}
			return int64(n)
		},
		finish: func() (*observation, error) {
			close(stop)
			wg.Wait()
			defer e.Shutdown()
			if err := errors.Join(batchErrs...); err != nil {
				return nil, fmt.Errorf("batch tenant: %w", err)
			}
			for i := range counts {
				if want := uint64(jobs[i]*tenantChain) * lcg(uint64(i), tenantSpin); counts[i] != want {
					return nil, fmt.Errorf("interactive flow %d computed %#x, sequential reference %#x", i, counts[i], want)
				}
			}
			for _, out := range batchOut {
				for k, got := range out {
					if want := lcg(uint64(ev.seed)+uint64(k), wavefront.Spin); got != want {
						return nil, fmt.Errorf("batch task %d wrote %#x, sequential reference %#x", k, got, want)
					}
				}
			}
			return observeExecutor(e, last.LastRunStats)
		},
	}, nil
}

const (
	pipeLines  = 8
	pipeTokens = 512
	pipeSpin   = 256
	pipeStages = 6
)

// pipeSeed is token tok's payload as the first pipe generates it.
func pipeSeed(seed int64, tok int64) uint64 { return uint64(seed)*0x9e3779b97f4a7c15 + uint64(tok) }

func setupPipeline(ev *env) (*instance, error) {
	e := executor.New(ev.workers, observeOpts(ev)...)
	var want uint64
	for tok := int64(0); tok < pipeTokens; tok++ {
		x := pipeSeed(ev.seed, tok)
		for s := 0; s < pipeStages; s++ {
			x = lcg(x, pipeSpin)
		}
		want = want*31 + x
	}

	var buf [pipeLines]uint64
	var sum uint64
	var nextTok, misordered int64
	step := func(pf *pipeline.Pipeflow) { buf[pf.Line()] = lcg(buf[pf.Line()], pipeSpin) }
	p := pipeline.New(e, pipeLines,
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			if pf.Token() >= pipeTokens {
				pf.Stop()
				return
			}
			buf[pf.Line()] = lcg(pipeSeed(ev.seed, pf.Token()), pipeSpin)
		}},
		pipeline.Pipe{Type: pipeline.Parallel, Fn: step},
		pipeline.Pipe{Type: pipeline.Parallel, Fn: step},
		pipeline.Pipe{Type: pipeline.Serial, Fn: step},
		pipeline.Pipe{Type: pipeline.Parallel, Fn: step},
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			if pf.Token() != nextTok {
				misordered++
			}
			nextTok++
			sum = sum*31 + lcg(buf[pf.Line()], pipeSpin)
		}},
	)
	return &instance{
		warm: 400,
		op: func() (int64, error) {
			sum, nextTok, misordered = 0, 0, 0
			sp := ev.tr.begin("pipeline.Run")
			n := p.Run()
			ev.tr.end(sp)
			switch err := p.Err(); {
			case err != nil:
				return pipeTokens * pipeStages, err
			case n != pipeTokens || misordered != 0:
				return pipeTokens * pipeStages, fmt.Errorf("pipeline ran %d tokens, %d out of order; reference %d in order", n, misordered, pipeTokens)
			case sum != want:
				return pipeTokens * pipeStages, fmt.Errorf("pipeline checksum %#x, sequential reference %#x", sum, want)
			}
			return pipeTokens * pipeStages, nil
		},
		finish: func() (*observation, error) {
			defer e.Shutdown()
			return observeExecutor(e, nil)
		},
	}, nil
}

// newTV80 builds the paper's smallest OpenTimer design and a timer on it.
func newTV80() *sta.Timing {
	return sta.New(experiments.TV80.Build(1), experiments.ClockPeriod)
}

// staEdits is the number of gates the incremental-timing loop edits. The
// gates are fixed by the design; the run's seed decides the order they are
// visited in. A stream drawn afresh from every seed moved tasks_per_s by a
// tenth between seeds, because cone sizes span three orders of magnitude.
const staEdits = 32

// staEditor replays the edit stream on a timer: edit i resizes (or, every
// third gate, re-wires) gate order[i mod staEdits], up on even passes through
// the order and back down on odd ones.
type staEditor struct {
	gates []int
	order []int
	next  int
}

func newSTAEditor(tm *sta.Timing, seed int64) *staEditor {
	pick := rand.New(rand.NewSource(experiments.TV80.Seed))
	ed := &staEditor{order: rand.New(rand.NewSource(seed)).Perm(staEdits)}
	for len(ed.gates) < staEdits {
		if v := pick.Intn(tm.Ckt.NumGates()); tm.Ckt.Gates[v].Kind == circuit.Comb {
			ed.gates = append(ed.gates, v)
		}
	}
	return ed
}

// edit applies the next edit to tm and returns its dirty seeds.
func (ed *staEditor) edit(tm *sta.Timing) []int {
	j := ed.order[ed.next%staEdits]
	up := (ed.next/staEdits)%2 == 0
	ed.next++
	switch v := ed.gates[j]; {
	case j%3 == 0 && up:
		return tm.SetWireCap(v, 3)
	case j%3 == 0:
		return tm.SetWireCap(v, 1)
	case up:
		return tm.ResizeGate(v, +1)
	default:
		return tm.ResizeGate(v, -1)
	}
}

func setupSTA(ev *env) (*instance, error) {
	tm := newTV80()
	e := executor.New(ev.workers, observeOpts(ev)...)
	a := stav2.NewShared(tm, e)
	if err := a.Run(tm.FullUpdate()); err != nil {
		e.Shutdown()
		return nil, fmt.Errorf("sta full update: %w", err)
	}
	ed := newSTAEditor(tm, ev.seed)
	var lastFut *core.Future
	return &instance{
		warm: 100,
		op: func() (int64, error) {
			sp := ev.tr.begin("sta.edit")
			seeds := ed.edit(tm)
			ev.tr.end(sp)
			sp = ev.tr.begin("sta.PrepareUpdate")
			u := tm.PrepareUpdate(seeds)
			ev.tr.end(sp)
			sp = ev.tr.begin("stav2.Taskflow")
			tf := a.Taskflow(u)
			ev.tr.end(sp)
			if ev.observe {
				tf.CollectRunStats(true)
			}
			sp = ev.tr.begin("core.Dispatch")
			lastFut = tf.Dispatch()
			ev.tr.end(sp)
			sp = ev.tr.begin("core.Future.Get")
			err := lastFut.Get()
			ev.tr.end(sp)
			return int64(u.NumTasks()), err
		},
		finish: func() (*observation, error) {
			defer e.Shutdown()
			// The second timer replays the same edits and is then timed
			// from scratch on this goroutine.
			ref := newTV80()
			replay := newSTAEditor(ref, ev.seed)
			for replay.next < ed.next {
				replay.edit(ref)
			}
			ref.FullUpdateSequential()
			for tr := range tm.Slack {
				if err := sameVector(tm.Slack[tr], ref.Slack[tr]); err != nil {
					return nil, fmt.Errorf("late slack: %w", err)
				}
				if err := sameVector(tm.EarlySlack[tr], ref.EarlySlack[tr]); err != nil {
					return nil, fmt.Errorf("early slack: %w", err)
				}
			}
			var stats func() (core.RunStats, bool)
			if lastFut != nil {
				stats = lastFut.Stats
			}
			return observeExecutor(e, stats)
		},
	}, nil
}

// sameVector reports the first entry of got further than 1e-9 from want;
// unconstrained entries (infinite or NaN on both sides) compare equal.
func sameVector(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, sequential reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g == w || (math.IsNaN(g) && math.IsNaN(w)) {
			continue
		}
		if !(math.Abs(g-w) <= 1e-9) {
			return fmt.Errorf("node %d: %v, sequential reference %v", i, g, w)
		}
	}
	return nil
}
