package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/pipeline"
	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav1"
	"gotaskflow/internal/stav2"
	"gotaskflow/internal/traversal"
	"gotaskflow/internal/wavefront"
	"gotaskflow/internal/wsq"
)

// probeCount is the number of timed probes runProbes divides its time among.
const probeCount = 60

// prober times calls into one layer's public functions from outside, each
// probe for budget b, observability off unless the probe names it.
type prober struct {
	b       time.Duration
	workers int
	seed    int64
	out     map[string]metric
}

// must stops the benchmark on an error no probe can cause: they submit to
// executors they own and run task bodies that cannot fail.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe: %v", err))
	}
}

func (p *prober) put(name string, v float64, samples int) {
	p.out[name] = metric{Value: v, Unit: unitOf[name], Samples: int64(samples)}
}

// putDifference reports a paired difference, scaled by scale, with its lap
// count, or with 0 samples and a comment line when it is unresolved.
func (p *prober) putDifference(name string, d difference, scale float64, laps int) {
	if !d.resolved {
		fmt.Printf("# unresolved: %s: a quarter or more of its %d paired samples point the other way\n", name, laps)
		laps = 0
	}
	p.put(name, d.ns*scale, laps)
}

// runProbes measures every workload-independent per-layer metric within
// about total.
func runProbes(seed int64, workers int, total time.Duration) map[string]metric {
	p := &prober{b: total / probeCount, workers: workers, seed: seed, out: map[string]metric{}}
	p.wsq()
	p.executor()
	p.observability()
	p.core()
	p.pipeline()
	p.applications()
	p.floor()
	p.printLadder()
	return p.out
}

func (p *prober) wsq() {
	const n = 1024
	items := make([]*int, n)
	for i := range items {
		items[i] = new(int)
	}
	d, dst := wsq.New[int](n), wsq.New[int](n)
	drain := func() {
		for _, q := range []*wsq.Deque[int]{d, dst} {
			for {
				if _, ok := q.Pop(); !ok {
					break
				}
			}
		}
	}
	fill := func() { d.PushBatch(items) }

	v, k := sample(p.b, n, nil, func() {
		for _, it := range items {
			d.Push(it)
		}
		for range items {
			d.Pop()
		}
	}, nil)
	p.put("wsq.push_pop_ns", v, k)
	v, k = sample(p.b, n, nil, func() {
		for i := 0; i < n; i += 64 {
			d.PushBatch(items[i : i+64])
		}
	}, drain)
	p.put("wsq.push_batch_ns_per_item", v, k)
	v, k = sample(p.b, n, fill, func() {
		for range items {
			d.Steal()
		}
	}, drain)
	p.put("wsq.steal_ns", v, k)
	v, k = sample(p.b, n, fill, func() {
		for {
			if _, m := d.StealBatch(dst); m == 0 {
				break
			}
		}
	}, drain)
	p.put("wsq.steal_batch_ns_per_item", v, k)
	v, k = sample(p.b, n, nil, func() {
		for range items {
			d.Steal()
		}
	}, nil)
	p.put("wsq.steal_empty_ns", v, k)

	// One thief against an owner that keeps pushing and popping 64 items:
	// the cost of a Steal call, won or lost, under contention for top and
	// bottom. A sample is 64 steals, fewer than the owner pushes in a lap,
	// and waits until the owner has finished another lap, so that the thief
	// never times steals from a deque whose owner is off the CPU. In a
	// process's first tenths of a second, or while something else holds one
	// of the host's CPUs, the two take turns on one CPU and a lap takes
	// milliseconds: the probe first waits, for at most its budget, until the
	// owner turns a lap in under 50 µs. If it never does, the sample count
	// drops from thousands to a handful.
	const lap = 64
	var stop atomic.Bool
	var laps atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, it := range items[:lap] {
				d.Push(it)
			}
			for range items[:lap] {
				d.Pop()
			}
			laps.Add(1)
		}
	}()
	var seen int64
	for deadline := time.Now().Add(p.b); time.Now().Before(deadline); {
		t0 := time.Now()
		for laps.Load() == seen {
		}
		seen = laps.Load()
		if time.Since(t0) < 50*time.Microsecond {
			break
		}
	}
	var won, tried int
	v, k = sample(p.b, lap, func() {
		for laps.Load() == seen {
		}
		seen = laps.Load()
	}, func() {
		for range items[:lap] {
			if _, ok := d.Steal(); ok {
				won++
			}
		}
		tried += lap
	}, nil)
	stop.Store(true)
	wg.Wait()
	drain()
	p.put("wsq.contended_steal_ns", v, k)
	p.put("wsq.contended_steal_win_share", ratio(float64(won), float64(tried)), tried)
}

// parkPause is slept before each wake round trip so that the pool is parked.
const parkPause = 100 * time.Microsecond

// countdown is a reusable completion signal for n tasks.
type countdown struct {
	left atomic.Int64
	done chan struct{}
}

func newCountdown() *countdown { return &countdown{done: make(chan struct{}, 1)} }

func (c *countdown) tick() {
	if c.left.Add(-1) == 0 {
		c.done <- struct{}{}
	}
}

func (p *prober) executor() {
	e := executor.New(p.workers)
	defer e.Shutdown()
	cd := newCountdown()
	const n = 256
	tasks := make([]*executor.Runnable, n)
	for i := range tasks {
		tasks[i] = executor.NewTask(func(executor.Context) { cd.tick() })
	}

	// Submit to a parked pool until the task has run: the pause lets every
	// worker finish its steal rounds and park first.
	v, k := sample(p.b, 1, func() { time.Sleep(parkPause); cd.left.Store(1) }, func() {
		must(e.Submit(tasks[0]))
		<-cd.done
	}, nil)
	p.put("executor.submit_wake_roundtrip_ns", v, k)

	arm := func() { cd.left.Store(n) }
	wait := func() { <-cd.done }
	v, k = sample(p.b, n, arm, func() {
		for _, t := range tasks {
			must(e.Submit(t))
		}
	}, wait)
	p.put("executor.submit_busy_ns", v, k)
	v, k = sample(p.b, n, arm, func() { must(e.SubmitBatch(tasks)) }, wait)
	p.put("executor.submit_batch_ns_per_task", v, k)

	const hops = 1024
	var left int
	var hop *executor.Runnable
	hop = executor.NewTask(func(ctx executor.Context) {
		if left--; left > 0 {
			ctx.SubmitCached(hop)
			return
		}
		cd.tick()
	})
	v, k = sample(p.b, hops, func() { left = hops; cd.left.Store(1) }, func() {
		must(e.Submit(hop))
		<-cd.done
	}, nil)
	p.put("executor.respawn_ns_per_hop", v, k)

	v, k = sample(p.b, 1, nil, func() { executor.New(p.workers).Shutdown() }, nil)
	p.put("executor.start_stop_us", v/1e3, k)

	f := e.NewFlow("probe", executor.FlowConfig{Class: executor.Interactive})
	v, k = sample(p.b, 1024, nil, func() {
		for i := 0; i < 1024; i++ {
			must(f.Admit(1))
			f.Release(1)
		}
	}, nil)
	p.put("executor.flow_admit_release_ns", v, k)
	v, k = sample(p.b, n, arm, func() {
		must(f.Admit(n))
		must(f.SubmitBatch(tasks))
		<-cd.done
		f.Release(n)
	}, nil)
	p.put("executor.flow_submit_drain_ns_per_task", v, k)
}

// chainProbe builds the workloads' chain on an executor of its own built
// with opts and returns the timed re-run of it and the executor's shutdown.
// An untimed run precedes every timed one: the other rungs of the ladder ran
// since the last, and their chains pushed this one out of the cache.
func (p *prober) chainProbe(stats bool, capture bool, opts ...executor.Option) (timed, func()) {
	e := executor.New(p.workers, opts...)
	tf := core.NewShared(e)
	if stats {
		tf.CollectRunStats(true)
	}
	buildChain(tf, chainLen, new(int64), 1)
	must(tf.Run())
	run := func() { must(tf.Run()) }
	t := timed{before: run, body: run}
	if capture {
		// A capture's rings drop events once full, so each sample records
		// into fresh ones.
		t.before = func() { run(); e.StartTrace() }
		t.after = func() { e.StopTrace() }
	}
	return t, e.Shutdown
}

// observability is the ladder on the chain: the plain re-run, then what one
// option at a time, and all of them with run statistics, add to it.
func (p *prober) observability() {
	rungs := []struct {
		name           string
		stats, capture bool
		opts           []executor.Option
	}{
		{"executor.obs_metrics_ns_per_task", false, false, []executor.Option{executor.WithMetrics()}},
		{"executor.obs_histograms_ns_per_task", false, false, []executor.Option{executor.WithLatencyHistograms()}},
		{"executor.obs_tracing_ns_per_task", false, true, []executor.Option{executor.WithTracing(1 << 16)}},
		{"executor.obs_flight_ns_per_task", false, false, []executor.Option{executor.WithFlightRecorder(0)}},
		{"executor.obs_all_ns_per_task", true, true, []executor.Option{executor.WithMetrics(), executor.WithLatencyHistograms(), executor.WithTracing(1 << 16), executor.WithFlightRecorder(0)}},
	}
	plain, shutdown := p.chainProbe(false, false)
	defer shutdown()
	variants := make([]timed, len(rungs))
	for i, r := range rungs {
		variants[i], shutdown = p.chainProbe(r.stats, r.capture, r.opts...)
		defer shutdown()
	}
	base, diffs, laps := samplePaired(time.Duration(1+len(rungs))*p.b, chainLen, plain, variants...)
	p.put("core.run_chain_ns_per_task", base, laps)
	for i, r := range rungs {
		p.putDifference(r.name, diffs[i], 1, laps)
	}
}

func (p *prober) core() {
	e := executor.New(p.workers)
	defer e.Shutdown()
	const n = 1024
	noop := func() {}

	// Construction and first execution of a fresh chain, the costs a
	// one-shot graph (wavefront_dispatch, sta_incremental) pays per task.
	var emplace, precede, firstRun, dispatch []float64
	ts := make([]core.Task, n)
	build := func() *core.Taskflow {
		tf := core.NewShared(e)
		t0 := time.Now()
		for i := range ts {
			ts[i] = tf.Emplace1(noop)
		}
		t1 := time.Now()
		for i := 1; i < n; i++ {
			ts[i-1].Precede(ts[i])
		}
		t2 := time.Now()
		emplace = append(emplace, float64(t1.Sub(t0).Nanoseconds())/n)
		precede = append(precede, float64(t2.Sub(t1).Nanoseconds())/(n-1))
		return tf
	}
	for deadline := time.Now().Add(4 * p.b); len(firstRun) < 3 || time.Now().Before(deadline); {
		tf := build()
		t0 := time.Now()
		must(tf.Run())
		firstRun = append(firstRun, float64(time.Since(t0).Nanoseconds())/n)
		tf = build()
		t0 = time.Now()
		must(tf.Dispatch().Get())
		dispatch = append(dispatch, float64(time.Since(t0).Nanoseconds())/n)
	}
	p.put("core.emplace_ns_per_task", median(emplace), len(emplace))
	p.put("core.precede_ns_per_edge", median(precede), len(precede))
	p.put("core.first_run_ns_per_task", median(firstRun), len(firstRun))
	p.put("core.dispatch_ns_per_task", median(dispatch), len(dispatch))

	// Steady-state re-runs of fixed shapes.
	rerun := func(name string, units, reps int, tf *core.Taskflow) {
		must(tf.Run())
		v, k := sample(p.b, units*reps, nil, func() {
			for i := 0; i < reps; i++ {
				must(tf.Run())
			}
		}, nil)
		p.put(name, v, k)
	}
	one := core.NewShared(e)
	one.Emplace1(noop)
	rerun("core.run_fixed_ns", 1, 64, one)

	const width = 512
	fan := core.NewShared(e)
	src, sink := fan.Emplace1(noop), fan.Emplace1(noop)
	for i := 0; i < width; i++ {
		mid := fan.Emplace1(noop)
		src.Precede(mid)
		mid.Precede(sink)
	}
	rerun("core.run_fanout_ns_per_task", width+2, 4, fan)

	tree := core.NewShared(e)
	level := []core.Task{tree.Emplace1(noop)}
	for depth := 1; depth <= 10; depth++ {
		var next []core.Task
		for _, parent := range level {
			l, r := tree.Emplace1(noop), tree.Emplace1(noop)
			parent.Precede(l, r)
			next = append(next, l, r)
		}
		level = next
	}
	rerun("core.run_tree_ns_per_task", 2047, 2, tree)

	const children = 256
	sub := core.NewShared(e)
	sub.EmplaceSubflow(func(sf *core.Subflow) {
		for i := 0; i < children; i++ {
			sf.Emplace1(noop)
		}
	})
	rerun("core.subflow_ns_per_child", children, 4, sub)

	const iters = 1024
	loop := core.NewShared(e)
	var i int
	init := loop.Emplace1(func() { i = 0 })
	body := loop.Emplace1(func() { i++ })
	cond := loop.EmplaceCondition(func() int {
		if i < iters {
			return 0
		}
		return 1
	})
	init.Precede(body)
	body.Precede(cond)
	cond.Precede(body, loop.Emplace1(noop))
	rerun("core.condition_ns_per_iter", iters, 4, loop)

	// Module re-entry: a parent whose only task is a module of one node.
	child := core.NewShared(e)
	child.Emplace1(noop)
	parent := core.NewShared(e)
	parent.Composed(child)
	must(parent.Run())
	var m0, m1 runtime.MemStats
	var entries int
	runtime.ReadMemStats(&m0)
	v, k := sample(p.b, 64, nil, func() {
		for i := 0; i < 64; i++ {
			must(parent.Run())
		}
		entries += 64
	}, nil)
	runtime.ReadMemStats(&m1)
	p.put("core.composed_ns_per_entry", v, k)
	p.put("core.composed_allocs_per_entry", float64(m1.Mallocs-m0.Mallocs)/float64(entries), entries)

	const elems = 1 << 16
	out := make([]int32, elems)
	pf := core.NewShared(e)
	core.ParallelForIndex(pf, 0, elems, 1, func(i int) { out[i]++ }, 0, core.WithPartitioner(core.Guided))
	rerun("core.parallel_for_ns_per_elem", elems, 1, pf)
}

func (p *prober) pipeline() {
	e := executor.New(p.workers)
	defer e.Shutdown()
	gen := func(tokens int64) pipeline.Pipe {
		return pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			if pf.Token() >= tokens {
				pf.Stop()
			}
		}}
	}
	var buf [pipeLines]uint64
	stage := func(t pipeline.Type, spin int) pipeline.Pipe {
		return pipeline.Pipe{Type: t, Fn: func(pf *pipeline.Pipeflow) { buf[pf.Line()] = lcg(buf[pf.Line()], spin) }}
	}
	shape := func(tokens int64, spin int) *pipeline.Pipeline {
		S, P := pipeline.Serial, pipeline.Parallel
		return pipeline.New(e, pipeLines, gen(tokens), stage(P, spin), stage(P, spin), stage(S, spin), stage(P, spin), stage(S, spin))
	}
	run := func(pl *pipeline.Pipeline, units int) (float64, int) {
		pl.Run()
		must(pl.Err())
		return sample(p.b, units, nil, func() { pl.Run() }, nil)
	}

	// The workload's shape with its task bodies, then with empty ones: the
	// second is the engine's own cost per token and stage.
	loaded := shape(pipeTokens, pipeSpin)
	v, k := run(loaded, pipeTokens)
	p.put("pipeline.tokens_per_s", 1e9/v, k)
	per := loaded.Stats().PerLine
	lo, hi := per[0], per[0]
	for _, n := range per {
		lo, hi = min(lo, n), max(hi, n)
	}
	p.put("pipeline.line_imbalance", ratio(float64(hi), float64(lo)), len(per))
	v, k = run(shape(pipeTokens, 0), pipeTokens*pipeStages)
	p.put("pipeline.ns_per_token_stage", v, k)
	v, k = run(shape(1, 0), 1)
	p.put("pipeline.run_fixed_us", v/1e3, k)

	const elems = 4096
	out := make([]int32, elems)
	fe := pipeline.New(e, pipeLines, gen(16),
		pipeline.ForEach(pipeline.Parallel, func(*pipeline.Pipeflow) int { return elems }, 64, pipeline.Guided,
			func(_ *pipeline.Pipeflow, begin, end int) {
				for i := begin; i < end; i++ {
					atomic.AddInt32(&out[i], 1)
				}
			}))
	v, k = run(fe, 16*elems)
	p.put("pipeline.foreach_ns_per_elem", v, k)

	// Every token but the first parks behind its predecessor at the
	// parallel pipe; the same pipeline without Defer is the base cost.
	const tokens = 256
	deferring := func(on bool) *pipeline.Pipeline {
		return pipeline.New(e, pipeLines, gen(tokens), pipeline.Pipe{Type: pipeline.Parallel, Fn: func(pf *pipeline.Pipeflow) {
			if on && pf.Token() > 0 && pf.Deferrals() == 0 {
				pf.Defer(pf.Token() - 1)
			}
		}})
	}
	bp, dp := deferring(false), deferring(true)
	bp.Run()
	dp.Run()
	d0 := dp.Stats().Deferrals
	var runs int64
	_, diffs, laps := samplePaired(2*p.b, 1, timed{body: func() { bp.Run() }}, timed{body: func() { dp.Run(); runs++ }})
	must(bp.Err())
	must(dp.Err())
	parked := float64(dp.Stats().Deferrals-d0) / float64(runs)
	p.putDifference("pipeline.defer_ns_per_deferral", diffs[0], ratio(1, parked), laps)
}

func (p *prober) applications() {
	e := executor.New(p.workers)
	defer e.Shutdown()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	msOf := func(name string, fn func()) {
		v, k := sample(p.b, 1, nil, fn, nil)
		p.put(name, v/1e6, k)
	}

	var build, exec []float64
	for deadline := time.Now().Add(2 * p.b); len(build) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		tf := core.NewShared(e)
		wavefront.Build(tf, wavefrontM, wavefront.Spin)
		t1 := time.Now()
		must(tf.WaitForAll())
		build = append(build, ms(t1.Sub(t0)))
		exec = append(exec, ms(time.Since(t1)))
	}
	p.put("wavefront.build_ms", median(build), len(build))
	p.put("wavefront.exec_ms", median(exec), len(exec))
	msOf("baseline.wavefront_sequential_ms", func() { wavefront.Sequential(wavefrontM, wavefront.Spin) })
	msOf("baseline.wavefront_flowgraph_ms", func() { wavefront.FlowGraph(wavefrontM, wavefront.Spin, p.workers) })
	msOf("baseline.wavefront_omp_ms", func() { wavefront.OMP(wavefrontM, wavefront.Spin, p.workers) })

	d := traversalDAG(p.seed)
	msOf("traversal.build_ms", func() { traversal.Build(core.NewShared(e), d, traversal.Spin) })
	msOf("baseline.traversal_sequential_ms", func() { traversal.Sequential(d, traversal.Spin) })
	msOf("baseline.traversal_flowgraph_ms", func() { traversal.FlowGraph(d, traversal.Spin, p.workers) })
	msOf("baseline.traversal_omp_ms", func() { traversal.OMP(d, traversal.Spin, p.workers) })

	// Scaling of the traversal re-run from one worker to all of them.
	rate := func(workers int) (float64, int) {
		e := executor.New(workers)
		defer e.Shutdown()
		tf := core.NewShared(e)
		traversal.Build(tf, d, traversal.Spin)
		must(tf.Run())
		v, k := sample(p.b, traversalNodes, nil, func() { must(tf.Run()) }, nil)
		return 1e9 / v, k
	}
	w1, k := rate(1)
	p.put("scaling.w1_tasks_per_s", w1, k)
	if p.workers == 1 {
		// One worker cannot show scaling: reported as 0 samples.
		p.put("scaling.efficiency", 1, 0)
	} else {
		wn, k := rate(p.workers)
		p.put("scaling.efficiency", wn/(w1*float64(p.workers)), k)
	}

	// Incremental timing, the same modifier stream through v2 (spans
	// around its three steps), v1 and the sequential reference.
	tm := newTV80()
	a := stav2.NewShared(tm, e)
	must(a.Run(tm.FullUpdate()))
	ed := newSTAEditor(tm, p.seed)
	var prepare, graph, run, tasks []float64
	for deadline := time.Now().Add(3 * p.b); len(run) < 3 || time.Now().Before(deadline); {
		seeds := ed.edit(tm)
		t0 := time.Now()
		u := tm.PrepareUpdate(seeds)
		t1 := time.Now()
		tf := a.Taskflow(u)
		t2 := time.Now()
		must(tf.WaitForAll())
		prepare = append(prepare, us(t1.Sub(t0)))
		graph = append(graph, us(t2.Sub(t1)))
		run = append(run, us(time.Since(t2)))
		tasks = append(tasks, float64(u.NumTasks()))
	}
	p.put("sta.prepare_us_per_update", median(prepare), len(prepare))
	p.put("sta.graph_build_us_per_update", median(graph), len(graph))
	p.put("sta.exec_us_per_update", median(run), len(run))
	p.put("sta.tasks_per_update", median(tasks), len(tasks))

	update := func(name string, tm *sta.Timing, run func(sta.Update)) {
		run(tm.FullUpdate())
		ed := newSTAEditor(tm, p.seed)
		var u sta.Update
		v, k := sample(p.b, 1, func() { u = tm.PrepareUpdate(ed.edit(tm)) }, func() { run(u) }, nil)
		p.put(name, v/1e3, k)
	}
	tm1 := newTV80()
	a1 := stav1.New(tm1, p.workers)
	update("baseline.sta_v1_us_per_update", tm1, a1.Run)
	a1.Close()
	tm0 := newTV80()
	update("baseline.sta_sequential_us_per_update", tm0, tm0.RunSequential)
}

func (p *prober) floor() {
	noop := func() {}
	chain := make([]*floorNode, chainLen)
	for i := range chain {
		chain[i] = &floorNode{fn: noop}
		if i > 0 {
			chain[i-1].precede(chain[i])
		}
	}
	const width = 512
	fan := []*floorNode{{fn: noop}, {fn: noop}}
	for i := 0; i < width; i++ {
		mid := &floorNode{fn: noop}
		fan[0].precede(mid)
		mid.precede(fan[1])
		fan = append(fan, mid)
	}
	pool := newFloorPool(p.workers, width+2)
	defer pool.close()
	pool.run(chain)
	v, k := sample(p.b, chainLen, nil, func() { pool.run(chain) }, nil)
	p.put("floor.chain_ns_per_task", v, k)
	pool.run(fan)
	v, k = sample(p.b, width+2, nil, func() { pool.run(fan) }, nil)
	p.put("floor.fanout_ns_per_task", v, k)

	single := []*floorNode{{fn: noop}}
	v, k = sample(p.b, 1, func() { time.Sleep(parkPause) }, func() { pool.run(single) }, nil)
	p.put("floor.submit_wake_roundtrip_ns", v, k)
}

// printLadder prints where a chain task's time goes, layer by layer, as
// shares of core.run_chain_ns_per_task. With nothing contending, a faster
// layer saves at most its share.
func (p *prober) printLadder() {
	chain := p.out["core.run_chain_ns_per_task"].Value
	rungs := []struct {
		layer string
		ns    float64
	}{
		{"executor.respawn_ns_per_hop (cache-slot hand-off)", p.out["executor.respawn_ns_per_hop"].Value},
		{"core.run_fixed_ns / chain length (amortised)", p.out["core.run_fixed_ns"].Value / chainLen},
	}
	fmt.Printf("# ladder of one chain task: layer, ns, share of core.run_chain_ns_per_task (%.1f ns)\n", chain)
	rest := chain
	for _, r := range rungs {
		fmt.Printf("# %-52s %8.1f %6.1f%%\n", r.layer, r.ns, 100*ratio(r.ns, chain))
		rest -= r.ns
	}
	fmt.Printf("# %-52s %8.1f %6.1f%%\n", "residual (core finishNode, join counter, task body)", rest, 100*ratio(rest, chain))
	for _, name := range []string{"floor.chain_ns_per_task", "wsq.push_pop_ns", "executor.submit_wake_roundtrip_ns"} {
		fmt.Printf("# off the chain's path: %-29s %8.1f %6.1f%%\n", name, p.out[name].Value, 100*ratio(p.out[name].Value, chain))
	}
}
