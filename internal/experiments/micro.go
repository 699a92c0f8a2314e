package experiments

import (
	"io"
	"path/filepath"

	"gotaskflow/internal/bench"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/sloc"
	"gotaskflow/internal/traversal"
	"gotaskflow/internal/wavefront"
)

// Table1 reproduces "Software Costs Comparison on Micro-benchmarks":
// LOC and cyclomatic complexity of the wavefront and graph-traversal
// implementations per backend, measured on this repository's Go sources
// with per-function attribution plus the kernels shared by all backends.
func Table1(w io.Writer, srcRoot string) error {
	wf, err := sloc.AnalyzeFile(filepath.Join(srcRoot, "internal", "wavefront", "wavefront.go"))
	if err != nil {
		return err
	}
	tv, err := sloc.AnalyzeFile(filepath.Join(srcRoot, "internal", "traversal", "traversal.go"))
	if err != nil {
		return err
	}
	t := bench.NewTable(
		"Table I: software costs on micro-benchmarks (LOC / CC per backend, Go sources)",
		"benchmark", "taskflow_loc", "taskflow_cc", "omp_loc", "omp_cc", "tbb_loc", "tbb_cc", "seq_loc", "seq_cc")

	wfShared := []string{"kernel", "grid"}
	row := func(name string, fm *sloc.FileMetrics, shared []string, extraOMP ...string) {
		tfL, tfC := backendCost(fm, append([]string{"Taskflow", "taskflowOn"}, shared...)...)
		ompL, ompC := backendCost(fm, append(append([]string{"OMP"}, shared...), extraOMP...)...)
		tbbL, tbbC := backendCost(fm, append([]string{"FlowGraph"}, shared...)...)
		seqL, seqC := backendCost(fm, append([]string{"Sequential"}, shared...)...)
		t.Row(name, tfL, tfC, ompL, ompC, tbbL, tbbC, seqL, seqC)
	}
	row("Wavefront", wf, wfShared, "edgeToken")
	row("GraphTraversal", tv, []string{"kernel", "preds", "visit", "checksum"}, "edgeToken")
	return t.Fprint(w)
}

// Fig7SizeSweep reproduces the top half of Figure 7: runtime versus
// problem size for the three libraries at a fixed worker count.
// Wavefront sizes are matrix edge lengths in blocks (tasks = m²);
// traversal sizes are node counts.
func Fig7SizeSweep(w io.Writer, workers int, wavefrontSizes, traversalSizes []int, reps int) error {
	if len(wavefrontSizes) > 0 {
		t := bench.NewTable(
			"Figure 7 (top-left): wavefront runtime vs size",
			"blocks", "tasks", "taskflow_ms", "tbb_ms", "omp_ms", "seq_ms")
		for _, m := range wavefrontSizes {
			m := m
			tf := bench.Best(reps, func() { wavefront.Taskflow(m, wavefront.Spin, workers) })
			fg := bench.Best(reps, func() { wavefront.FlowGraph(m, wavefront.Spin, workers) })
			om := bench.Best(reps, func() { wavefront.OMP(m, wavefront.Spin, workers) })
			sq := bench.Best(reps, func() { wavefront.Sequential(m, wavefront.Spin) })
			t.Row(m, m*m, tf, fg, om, sq)
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	if len(traversalSizes) == 0 {
		return nil
	}
	t2 := bench.NewTable(
		"Figure 7 (top-right): graph traversal runtime vs size",
		"nodes", "edges", "taskflow_ms", "tbb_ms", "omp_ms", "seq_ms")
	for _, n := range traversalSizes {
		d := graphgen.Random(n, graphgen.Config{MaxIn: 4, MaxOut: 4, Seed: 2019})
		tf := bench.Best(reps, func() { traversal.Taskflow(d, traversal.Spin, workers) })
		fg := bench.Best(reps, func() { traversal.FlowGraph(d, traversal.Spin, workers) })
		om := bench.Best(reps, func() { traversal.OMP(d, traversal.Spin, workers) })
		sq := bench.Best(reps, func() { traversal.Sequential(d, traversal.Spin) })
		t2.Row(n, d.NumEdges(), tf, fg, om, sq)
	}
	return t2.Fprint(w)
}

// Fig7CPUSweep reproduces the bottom half of Figure 7: runtime versus
// worker count at the largest problem size, Cpp-Taskflow versus TBB (the
// paper skips OpenMP here because it trails both).
func Fig7CPUSweep(w io.Writer, workerCounts []int, wavefrontSize, traversalSize, reps int) error {
	if wavefrontSize > 0 {
		t := bench.NewTable(
			"Figure 7 (bottom-left): wavefront runtime vs workers",
			"workers", "taskflow_ms", "tbb_ms")
		for _, n := range workerCounts {
			n := n
			tf := bench.Best(reps, func() { wavefront.Taskflow(wavefrontSize, wavefront.Spin, n) })
			fg := bench.Best(reps, func() { wavefront.FlowGraph(wavefrontSize, wavefront.Spin, n) })
			t.Row(n, tf, fg)
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	if traversalSize <= 0 {
		return nil
	}
	d := graphgen.Random(traversalSize, graphgen.Config{MaxIn: 4, MaxOut: 4, Seed: 2019})
	t2 := bench.NewTable(
		"Figure 7 (bottom-right): graph traversal runtime vs workers",
		"workers", "taskflow_ms", "tbb_ms")
	for _, n := range workerCounts {
		n := n
		tf := bench.Best(reps, func() { traversal.Taskflow(d, traversal.Spin, n) })
		fg := bench.Best(reps, func() { traversal.FlowGraph(d, traversal.Spin, n) })
		t2.Row(n, tf, fg)
	}
	return t2.Fprint(w)
}
