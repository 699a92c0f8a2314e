package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// roundResult is one set-up, warm-up and timed window of a workload.
type roundResult struct {
	setup     time.Duration // input generation, graph build, executor start, warm-up
	wall      time.Duration // timed window
	cpu       time.Duration // process user+sys CPU over the window
	ops       int64
	failed    int64
	tasks     int64   // op tasks plus sideTasks
	sideTasks int64   // tasks of background load completed in the window
	p50us     float64 // median op latency of the window
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPause   time.Duration
	heapSys   uint64
	obs       *observation
	firstErr  error
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound builds the workload, warms it, and runs ops in a closed loop on
// this goroutine for window, appending each op's latency (ns) to *lat. The
// reference check runs after the window; an op error or a failed check
// counts as a failed op.
func runRound(name string, ev *env, window time.Duration, lat *[]int64) (roundResult, error) {
	var r roundResult
	// Collecting the previous round's graph before this one is allocated
	// gives every round the same heap layout; collecting after set-up
	// instead made alternate rounds differ by a tenth in throughput.
	runtime.GC()
	t0 := time.Now()
	inst, err := findWorkload(name).setup(ev)
	if err != nil {
		return r, fmt.Errorf("%s set-up: %w", name, err)
	}
	tr := ev.tr
	ev.tr = nil // warm-up ops record no spans
	warm := inst.warm
	if ev.quick {
		warm = warm/20 + 1 // a smoke pass does not wait for threads to settle
	}
	for i := 0; i < warm; i++ {
		if _, err := inst.op(); err != nil {
			r.failed++
			r.firstErr = err
			break
		}
	}
	ev.tr = tr
	r.setup = time.Since(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var side0 int64
	if inst.sideTasks != nil {
		side0 = inst.sideTasks()
	}
	first := len(*lat)
	cpu0 := cpuTime()
	start := time.Now()
	for now := start; now.Sub(start) < window; {
		root := tr.beginOp(r.ops)
		tasks, err := inst.op()
		tr.end(root)
		end := time.Now()
		*lat = append(*lat, int64(end.Sub(now)))
		now = end
		r.ops++
		r.tasks += tasks
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	if inst.sideTasks != nil {
		r.sideTasks = inst.sideTasks() - side0
		r.tasks += r.sideTasks
	}
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.heapSys = m1.HeapSys
	mine := slices.Clone((*lat)[first:])
	slices.Sort(mine)
	r.p50us = float64(mine[len(mine)/2]) / 1e3

	r.obs, err = inst.finish()
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	fmt.Printf("# round of %s: setup_s=%.4f ops=%d tasks_per_s=%.0f op_p50_us=%.1f cpu_ns_per_task=%.1f\n",
		name, r.setup.Seconds(), r.ops, ratio(float64(r.tasks), r.wall.Seconds()), r.p50us, ratio(float64(r.cpu.Nanoseconds()), float64(r.tasks)))
	return r, nil
}

// metric is one printed figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

// result is one run of one workload: what the driver reads from the last
// line, plus the metrics' sample counts.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []error
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEndDefs {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayerDefs {
		m[d.Name] = d.Unit
	}
	return m
}()

func (res *result) put(name string, v float64, samples int64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in defs.go")
	}
	if _, dup := res.Metrics[name]; dup {
		panic("benchmark: metric " + name + " reported twice")
	}
	res.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// account folds rounds rs into the result's op counts and reports the
// run-level figures: set-up time, throughput, median latency and CPU cost as
// medians over the rounds, the 99th percentile over the pooled ops.
func (res *result) account(rs []roundResult, lat []int64) {
	var setups, rates, p50s, cpus []float64
	var ops, mallocs, bytes uint64
	for i := range rs {
		r := &rs[i]
		res.Attempted += r.ops
		res.Failed += r.failed
		if r.firstErr != nil {
			res.errs = append(res.errs, r.firstErr)
		}
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, ratio(float64(r.tasks), r.wall.Seconds()))
		cpus = append(cpus, ratio(float64(r.cpu.Nanoseconds()), float64(r.tasks)))
		p50s = append(p50s, r.p50us)
		ops += uint64(r.ops)
		mallocs += r.mallocs
		bytes += r.bytes
	}
	n := int64(len(rs))
	res.put("setup_s", median(setups), n)
	res.put("tasks_per_s", median(rates), n)
	res.put("cpu_ns_per_task", median(cpus), n)
	res.put("op_p50_us", median(p50s), n)
	slices.Sort(lat)
	res.put("op_p99_us", float64(lat[int(0.99*float64(len(lat)-1))])/1e3, int64(len(lat)))
	res.put("allocs_per_op", ratio(float64(mallocs), float64(ops)), int64(ops))
	res.put("bytes_per_op", ratio(float64(bytes), float64(ops)), int64(ops))
	res.put("fail_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
}

// latencies is the op-latency buffer shared by all rounds of a process, so
// that recording a latency never allocates inside a timed window.
var latencies = make([]int64, 0, 1<<22)

// minPooledOps is the number of ops op_p99_us must rest on: ten beyond the
// 99th percentile. A run adds rounds until it has pooled that many.
const minPooledOps = 1000

// maxRounds ends a run on a host too slow to pool minPooledOps ops.
const maxRounds = 32

// plan is how long a run measures: the untraced run makes `rounds` rounds of
// `window` each, the traced run one plain and one traced round and six
// windows' worth of probes; both add plain rounds until minOps ops are pooled.
type plan struct {
	window time.Duration
	rounds int
	minOps int64
	quick  bool
}

func (pl plan) probeTime() time.Duration { return 6 * pl.window }

// plainRounds runs at least `rounds` untraced rounds, and more until
// pl.minOps ops are pooled: every round on a freshly built workload,
// observability as the workload defines it.
func plainRounds(name string, seed int64, workers int, pl plan, rounds int) ([]roundResult, []int64, error) {
	lat := latencies[:0]
	var rs []roundResult
	var ops int64
	for (len(rs) < rounds || ops < pl.minOps) && len(rs) < maxRounds {
		r, err := runRound(name, &env{seed: seed, workers: workers, quick: pl.quick}, pl.window, &lat)
		if err != nil {
			return nil, nil, err
		}
		rs = append(rs, r)
		ops += r.ops
	}
	if ops < pl.minOps {
		fmt.Printf("# warning: %s: op_p99_us rests on %d ops after %d rounds, fewer than %d\n", name, ops, len(rs), pl.minOps)
	}
	return rs, lat, nil
}

// runUntraced is the end-to-end run.
func runUntraced(name string, seed int64, workers int, pl plan) (*result, error) {
	res := &result{Workload: name, Seed: seed, Metrics: map[string]metric{}}
	rs, lat, err := plainRounds(name, seed, workers, pl, pl.rounds)
	if err != nil {
		return nil, err
	}
	res.account(rs, lat)
	res.Correct = res.Failed == 0
	return res, nil
}

// shareOf maps a span name to the self-time share it is summed into.
var shareOf = map[string]string{
	"core.NewShared":    "core.build_share",
	"wavefront.Build":   "core.build_share",
	"stav2.Taskflow":    "core.build_share",
	"core.Run":          "core.run_share",
	"core.Dispatch":     "core.run_share",
	"core.Future.Get":   "core.run_share",
	"executor.New":      "executor.start_stop_share",
	"executor.Shutdown": "executor.start_stop_share",
}

// runTraced is the per-layer run: plain rounds for the run-level figures
// (as many as pool pl.minOps ops), one round of the same length with
// benchmark-side spans recorded and the executor's counters and histograms
// on, then the workload-independent probes. shared carries probes already
// measured when several workloads share one process; nil measures them now.
func runTraced(name string, seed int64, workers int, pl plan, shared map[string]metric, traceOut string) (*result, error) {
	res := &result{Workload: name, Seed: seed, Trace: true, Metrics: map[string]metric{}}
	plain, lat, err := plainRounds(name, seed, workers, pl, 1)
	if err != nil {
		return nil, err
	}
	res.account(plain, lat)
	var gcCycles uint32
	var gcPause time.Duration
	var heapSys uint64
	for i := range plain {
		gcCycles += plain[i].gcCycles
		gcPause += plain[i].gcPause
		heapSys = max(heapSys, plain[i].heapSys)
	}
	res.put("runtime.gc_cycles", float64(gcCycles), res.Attempted)
	res.put("runtime.gc_pause_ms", float64(gcPause.Nanoseconds())/1e6, int64(gcCycles))
	res.put("runtime.heap_peak_mb", float64(heapSys)/(1<<20), int64(len(plain)))

	// An op records at most eight spans, and recording slows the round, so
	// twice a plain round's ops is room enough; spans beyond it are counted
	// as dropped.
	tr := newTracer(int(plain[0].ops)*16 + 1024)
	lat = latencies[:0]
	traced, err := runRound(name, &env{seed: seed, workers: workers, quick: pl.quick, observe: true, tr: tr}, pl.window, &lat)
	if err != nil {
		return nil, err
	}
	res.Attempted += traced.ops
	res.Failed += traced.failed
	if traced.firstErr != nil {
		res.errs = append(res.errs, traced.firstErr)
	}
	obs := traced.obs
	if obs == nil {
		obs = &observation{} // the round failed its check: counters read as 0
	}
	obs.metrics(res.put, &traced, workers)

	shares := map[string]int64{}
	var opTime int64
	rows := tr.selfTimes()
	for _, row := range rows {
		if row.name == "bench.op" {
			opTime = row.total
		}
		if s, ok := shareOf[row.name]; ok {
			shares[s] += row.self
		}
	}
	for _, s := range []string{"core.build_share", "core.run_share", "executor.start_stop_share"} {
		res.put(s, ratio(float64(shares[s]), float64(opTime)), traced.ops)
	}
	plainRate := res.Metrics["tasks_per_s"].Value
	tracedRate := ratio(float64(traced.tasks), traced.wall.Seconds())
	res.put("trace.spans", float64(len(tr.spans)), int64(len(tr.spans))+tr.dropped)
	res.put("trace.overhead_share", 1-ratio(tracedRate, plainRate), int64(len(plain))+1)
	printSelfTimes(rows, opTime)
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return nil, err
		}
	}

	if shared == nil {
		shared = runProbes(seed, workers, pl.probeTime())
	}
	for name, m := range shared {
		res.put(name, m.Value, m.Samples)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printSelfTimes(rows []selfTime, opTime int64) {
	fmt.Printf("# self time of benchmark-side spans (span minus its children), share of op time\n")
	fmt.Printf("# %-20s %10s %12s %12s %7s\n", "span", "calls", "total_ms", "self_ms", "share")
	for _, r := range rows {
		fmt.Printf("# %-20s %10d %12.3f %12.3f %7.4f\n", r.name, r.count, float64(r.total)/1e6, float64(r.self)/1e6, ratio(float64(r.self), float64(opTime)))
	}
}
