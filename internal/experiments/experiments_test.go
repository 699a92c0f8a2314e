package experiments

import (
	"fmt"
	"strings"
	"testing"

	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav2"
)

func TestSrcRoot(t *testing.T) {
	root, err := SrcRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root == "" {
		t.Fatal("empty root")
	}
}

func TestDefaultWorkersAndSweep(t *testing.T) {
	if DefaultWorkers(1) != 1 {
		t.Fatal("DefaultWorkers(1)")
	}
	sweep := WorkerSweep(8)
	want := []int{1, 2, 4, 8}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", sweep, want)
		}
	}
	if s := WorkerSweep(3); s[len(s)-1] != 3 || s[0] != 1 {
		t.Fatalf("WorkerSweep(3) = %v", s)
	}
	if s := WorkerSweep(0); len(s) != 1 || s[0] != 1 {
		t.Fatalf("WorkerSweep(0) = %v", s)
	}
}

func TestTable1(t *testing.T) {
	root, err := SrcRoot()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Table1(&sb, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Wavefront", "GraphTraversal", "taskflow_loc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("Table1 row count wrong:\n%s", out)
	}
}

func TestTable2(t *testing.T) {
	root, _ := SrcRoot()
	var sb strings.Builder
	if err := Table2(&sb, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"v1", "v2", "OpenMP-levelized", "Cpp-Taskflow", "$"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3(t *testing.T) {
	root, _ := SrcRoot()
	var sb strings.Builder
	if err := Table3(&sb, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Cpp-Taskflow", "OpenMP", "TBB", "Sequential"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table3 missing %q:\n%s", want, out)
		}
	}
}

func TestListingsTable(t *testing.T) {
	var sb strings.Builder
	if err := ListingsTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") || !strings.Contains(sb.String(), "Figure 4") {
		t.Fatalf("ListingsTable output:\n%s", sb.String())
	}
}

func TestFig7Smoke(t *testing.T) {
	var sb strings.Builder
	if err := Fig7SizeSweep(&sb, 2, []int{4, 8}, []int{200, 400}, 1); err != nil {
		t.Fatal(err)
	}
	if err := Fig7CPUSweep(&sb, []int{1, 2}, 8, 400, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"wavefront runtime vs size", "graph traversal runtime vs size", "runtime vs workers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig7 output missing %q", want)
		}
	}
}

func TestFig9And10Smoke(t *testing.T) {
	small := Design{Name: "smoke", Gates: 400, Seed: 1}
	var sb strings.Builder
	if err := Fig9Incremental(&sb, small, 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "must match") || !strings.Contains(sb.String(), "graph_nodes") {
		t.Fatalf("Fig9 output:\n%s", sb.String())
	}
	// The two engines must agree on worst slack; the harness prints both.
	lines := strings.Split(sb.String(), "\n")
	last := lines[len(lines)-2]
	if !strings.Contains(last, "v1 worst slack") {
		t.Fatalf("missing slack line: %q", last)
	}

	sb.Reset()
	if err := Fig10Scalability(&sb, []Design{small}, 1, []int{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "full timing on smoke") {
		t.Fatalf("Fig10 output:\n%s", sb.String())
	}
}

// TestFig10UtilizationMeasured: the utilisation table is what the runs
// recorded about themselves, so it obeys their arithmetic — every task of
// every update counted once, busy time bounded by the workers it was spent
// on, and elapsed time (which includes building the graphs) no shorter than
// the time the graphs were in flight.
func TestFig10UtilizationMeasured(t *testing.T) {
	small := Design{Name: "smoke", Gates: 400, Seed: 1}
	const updates = 3
	rows := []int{1, 2}
	// A full update's graph holds a task per level slice and the barrier:
	// how many depends on the pool it was cut for.
	graphTasks := make([]int, len(rows))
	for i, workers := range rows {
		tm := sta.New(small.Build(1), ClockPeriod)
		a := stav2.New(tm, workers)
		tf := a.Taskflow(tm.FullUpdate())
		graphTasks[i] = tf.NumNodes()
		err := tf.Dispatch().Get()
		a.Close()
		if most := 2*tm.Ckt.NumGates() + 1; err != nil || graphTasks[i] <= 1 || graphTasks[i] > most {
			t.Fatalf("full update on %d workers: %d tasks for %d gates, err %v", workers, graphTasks[i], tm.Ckt.NumGates(), err)
		}
	}

	var sb strings.Builder
	if err := Fig10Utilization(&sb, small, 1, rows, updates); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 || !strings.Contains(lines[0], "CPU utilization on smoke") || !strings.Contains(lines[1], "achieved_parallelism") {
		t.Fatalf("want a title, a header and two rows:\n%s", sb.String())
	}
	for i, want := range rows {
		var workers, util, par, elapsed float64
		var tasks int
		if _, err := fmt.Sscan(lines[2+i], &workers, &util, &par, &tasks, &elapsed); err != nil || workers != float64(want) {
			t.Fatalf("row %q: want %v workers, err %v", lines[2+i], want, err)
		}
		if tasks != updates*graphTasks[i] {
			t.Errorf("W=%v: tasks = %d, want %d updates x %d", workers, tasks, updates, graphTasks[i])
		}
		if !(util > 0 && util <= 100) || !(par > 0 && par <= workers) {
			t.Errorf("W=%v: mean_util_pct %v not in (0, 100] or achieved_parallelism %v not in (0, W]", workers, util, par)
		}
		// elapsed >= the runs' summed wall time; 0.01 covers the cells' rounding.
		if util*workers/100 > par+0.01 {
			t.Errorf("W=%v: mean_util_pct %v of the workers exceeds achieved_parallelism %v", workers, util, par)
		}
	}
}

func TestFig12Smoke(t *testing.T) {
	var sb strings.Builder
	if err := Fig12Epochs(&sb, []int{784, 8, 10}, "smoke-dnn", []int{1}, 200, 2); err != nil {
		t.Fatal(err)
	}
	if err := Fig12CPU(&sb, []int{784, 8, 10}, "smoke-dnn", []int{1, 2}, 1, 200); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "runtime vs epochs") || !strings.Contains(out, "runtime vs workers") {
		t.Fatalf("Fig12 output:\n%s", out)
	}
}

func TestDesignBuildScaling(t *testing.T) {
	c := TV80.Build(1)
	if c.NumGates() < 5300 {
		t.Fatalf("tv80 full scale has %d gates", c.NumGates())
	}
	c10 := TV80.Build(10)
	if c10.NumGates() >= c.NumGates() {
		t.Fatal("scaling does not shrink the design")
	}
	tiny := Design{Name: "x", Gates: 50, Seed: 1}.Build(10)
	if tiny.NumGates() < 100 {
		t.Fatal("minimum gate clamp broken")
	}
}
