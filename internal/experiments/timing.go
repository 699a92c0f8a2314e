package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"gotaskflow/internal/bench"
	"gotaskflow/internal/circuit"
	"gotaskflow/internal/sloc"
	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav1"
	"gotaskflow/internal/stav2"
)

// ClockPeriod is the endpoint constraint used across the timing
// experiments, ps.
const ClockPeriod = 2000.0

// Design mirrors one of the paper's benchmark circuits at a configurable
// scale.
type Design struct {
	Name  string
	Gates int
	Seed  int64
}

// The paper's designs with their quoted gate counts. Scale lets the
// harness shrink them to laptop-budget sizes while preserving identity.
var (
	TV80    = Design{Name: "tv80", Gates: 5300, Seed: 80}
	VGALCD  = Design{Name: "vga_lcd", Gates: 139500, Seed: 81}
	Netcard = Design{Name: "netcard", Gates: 1400000, Seed: 82}
	Leon3mp = Design{Name: "leon3mp", Gates: 1200000, Seed: 83}
)

// Build generates the synthetic stand-in circuit at the given scale
// divisor (1 = paper size).
func (d Design) Build(scale int) *circuit.Circuit {
	if scale < 1 {
		scale = 1
	}
	gates := d.Gates / scale
	if gates < 100 {
		gates = 100
	}
	return circuit.Generate(d.Name, circuit.Config{Gates: gates, Seed: d.Seed})
}

// Table2 reproduces "Software Costs of OpenTimer v1 and v2": LOC, max
// cyclomatic complexity and COCOMO estimates of the two driver
// implementations (the code a team would write against each model; the
// shared numeric engine appears in both and is excluded, as the paper's
// counts exclude common infrastructure).
func Table2(w io.Writer, srcRoot string) error {
	v1Files, err := sloc.AnalyzeDir(filepath.Join(srcRoot, "internal", "stav1"))
	if err != nil {
		return err
	}
	v2Files, err := sloc.AnalyzeDir(filepath.Join(srcRoot, "internal", "stav2"))
	if err != nil {
		return err
	}
	t := bench.NewTable(
		"Table II: software costs of the OpenTimer-style drivers (Go sources)",
		"tool", "task_model", "loc", "mcc", "effort_py", "dev", "cost_usd")
	for _, row := range []struct {
		tool, model string
		files       []*sloc.FileMetrics
	}{
		{"v1", "OpenMP-levelized", v1Files},
		{"v2", "Cpp-Taskflow", v2Files},
	} {
		loc, mcc := sloc.Totals(row.files)
		c := sloc.EstimateCocomo(loc, sloc.DefaultSalary)
		t.Row(row.tool, row.model, loc, mcc,
			fmt.Sprintf("%.2f", c.PersonYears),
			fmt.Sprintf("%.2f", c.Developers),
			fmt.Sprintf("$%.0f", c.Cost))
	}
	return t.Fprint(w)
}

// Fig9Incremental reproduces "Runtime comparisons of the incremental
// timing between v1 and v2": per-iteration runtime of a
// modifier-then-query loop on two designs. tasks counts the update's gate
// propagations, graph_nodes the tasks v2 scheduled to carry them (level
// slices and the barrier; tasks+1 when the pool is wide enough for a task
// per gate).
func Fig9Incremental(w io.Writer, design Design, scale, iterations, workers int) error {
	ckt1 := design.Build(scale)
	ckt2 := design.Build(scale)
	tm1 := sta.New(ckt1, ClockPeriod)
	tm2 := sta.New(ckt2, ClockPeriod)
	a1 := stav1.New(tm1, workers)
	defer a1.Close()
	a2 := stav2.New(tm2, workers)
	defer a2.Close()
	a1.Run(tm1.FullUpdate())
	a2.Run(tm2.FullUpdate())

	t := bench.NewTable(
		fmt.Sprintf("Figure 9: incremental timing on %s (%d gates, %d workers)",
			design.Name, ckt1.NumGates(), workers),
		"iteration", "tasks", "graph_nodes", "v1_omp_ms", "v2_taskflow_ms", "speedup")
	rng1 := rand.New(rand.NewSource(7))
	rng2 := rand.New(rand.NewSource(7))
	for i := 0; i < iterations; i++ {
		seeds1 := tm1.RandomModifier(rng1)
		seeds2 := tm2.RandomModifier(rng2)
		u1 := tm1.PrepareUpdate(seeds1)
		u2 := tm2.PrepareUpdate(seeds2)
		d1 := bench.Measure(func() { a1.Run(u1) })
		var nodes int
		var err error
		d2 := bench.Measure(func() {
			tf := a2.Taskflow(u2)
			nodes = tf.NumNodes()
			err = tf.Reclaim()
		})
		if err != nil {
			return fmt.Errorf("fig 9: update %d: %w", i, err)
		}
		speed := float64(d1) / float64(d2)
		t.Row(i, u2.NumTasks(), nodes, d1, d2, speed)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	// Paper-style summary: worst slack must agree between engines.
	ws1, _ := tm1.WorstSlack()
	ws2, _ := tm2.WorstSlack()
	_, err := fmt.Fprintf(w, "# v1 worst slack %.4f ps, v2 worst slack %.4f ps (must match)\n", ws1, ws2)
	return err
}

// Fig10Scalability reproduces the left plot of Figure 10: full-timing
// runtime versus worker count on the million-gate designs (scaled).
func Fig10Scalability(w io.Writer, designs []Design, scale int, workerCounts []int, reps int) error {
	for _, d := range designs {
		ckt := d.Build(scale)
		t := bench.NewTable(
			fmt.Sprintf("Figure 10 (left): full timing on %s (%d gates, %d tasks)",
				d.Name, ckt.NumGates(), 2*ckt.NumGates()),
			"workers", "v1_omp_ms", "v2_taskflow_ms")
		for _, n := range workerCounts {
			tm1 := sta.New(ckt, ClockPeriod)
			a1 := stav1.New(tm1, n)
			d1 := bench.Best(reps, func() { a1.Run(tm1.FullUpdate()) })
			a1.Close()

			tm2 := sta.New(ckt, ClockPeriod)
			a2 := stav2.New(tm2, n)
			d2 := bench.Best(reps, func() { a2.Run(tm2.FullUpdate()) })
			a2.Close()
			t.Row(n, d1, d2)
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// Fig10Utilization reproduces the right plot of Figure 10: CPU utilization
// while v2 runs repeated full updates, one row per worker count, from the
// runs' own RunStats. mean_util_pct is the share of elapsed·workers spent in
// task bodies (building the graphs counts as idle), achieved_parallelism the
// mean number of busy workers while a graph was in flight.
func Fig10Utilization(w io.Writer, design Design, scale int, workerCounts []int, updates int) error {
	ckt := design.Build(scale)
	t := bench.NewTable(
		fmt.Sprintf("Figure 10 (right): CPU utilization on %s (%d gates)", design.Name, ckt.NumGates()),
		"workers", "mean_util_pct", "achieved_parallelism", "tasks", "elapsed_ms")
	for _, n := range workerCounts {
		tm := sta.New(ckt, ClockPeriod)
		a := stav2.New(tm, n)
		var busy, wall time.Duration
		var tasks int64
		start := time.Now()
		for k := 0; k < updates; k++ {
			f := a.Taskflow(tm.FullUpdate()).CollectRunStats(true).Dispatch()
			if err := f.Get(); err != nil {
				a.Close()
				return fmt.Errorf("fig 10 utilization: update %d on %d workers: %w", k, n, err)
			}
			rs, _ := f.Stats()
			busy, wall, tasks = busy+rs.Busy, wall+rs.Wall, tasks+rs.Tasks
		}
		elapsed := time.Since(start)
		a.Close()
		t.Row(n,
			fmt.Sprintf("%.1f", 100*float64(busy)/(float64(elapsed)*float64(n))),
			fmt.Sprintf("%.2f", float64(busy)/float64(wall)),
			tasks, elapsed)
	}
	return t.Fprint(w)
}
