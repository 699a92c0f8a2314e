package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelFor(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var sum atomic.Int64
	items := make([]int64, 1000)
	for i := range items {
		items[i] = int64(i)
	}
	S, T := ParallelFor(tf, items, func(v int64) { sum.Add(v) }, 37)
	pre := tf.Emplace1(func() { sum.Add(1) })
	post := tf.Emplace1(func() {
		if got := sum.Load(); got != 1000*999/2+1 {
			t.Errorf("sum at post = %d", got)
		}
	})
	pre.Precede(S)
	T.Precede(post)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 1000*999/2+1 {
		t.Fatalf("sum = %d, want %d", got, 1000*999/2+1)
	}
}

func TestParallelForEmpty(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	ran := false
	S, T := ParallelFor(tf, []int{}, func(int) { ran = true }, 0)
	end := tf.Emplace1(func() {})
	S.Precede(end) // S/T still valid splice points
	T.Precede(end)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("fn ran on empty input")
	}
}

func TestParallelForPtrMutates(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	items := make([]int, 500)
	ParallelForPtr(tf, items, func(p *int) { *p = 7 }, 0)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range items {
		if v != 7 {
			t.Fatalf("items[%d] = %d, want 7", i, v)
		}
	}
}

func TestParallelForIndex(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	hits := make([]atomic.Int32, 100)
	ParallelForIndex(tf, 0, 100, 3, func(i int) { hits[i].Add(1) }, 4)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		want := int32(0)
		if i%3 == 0 {
			want = 1
		}
		if got := hits[i].Load(); got != want {
			t.Fatalf("index %d hit %d times, want %d", i, got, want)
		}
	}
}

// A refused step must leave nothing behind: an S and T emplaced before the
// panic would be run by the next Run as dangling placeholders.
func TestParallelForIndexBadStep(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	for _, step := range []int{0, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("step %d did not panic", step)
				}
			}()
			ParallelForIndex(tf, 0, 10, step, func(int) {}, 1)
		}()
		if got := tf.NumNodes(); got != 0 {
			t.Fatalf("step %d left %d tasks in the graph, want 0", step, got)
		}
	}
}

func TestParallelForIndexEmptyRange(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	ParallelForIndex(tf, 5, 5, 1, func(int) { t.Error("ran on empty range") }, 1)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
}

func TestReduce(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	items := make([]int, 777)
	for i := range items {
		items[i] = i + 1
	}
	result := 100 // initial value seeds the fold
	Reduce(tf, items, &result, func(a, b int) int { return a + b }, 10)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	want := 100 + 777*778/2
	if result != want {
		t.Fatalf("Reduce = %d, want %d", result, want)
	}
}

func TestReduceMax(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	items := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	result := -1 << 60
	Reduce(tf, items, &result, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}, 2)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if result != 9 {
		t.Fatalf("max = %d, want 9", result)
	}
}

func TestReduceEmpty(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	result := 42
	Reduce(tf, []int{}, &result, func(a, b int) int { return a + b }, 0)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if result != 42 {
		t.Fatalf("empty Reduce changed result to %d", result)
	}
}

func TestTransform(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	src := make([]int, 333)
	for i := range src {
		src[i] = i
	}
	dst := make([]string, 333)
	Transform(tf, src, dst, func(v int) string {
		if v%2 == 0 {
			return "even"
		}
		return "odd"
	}, 16)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		want := "odd"
		if i%2 == 0 {
			want = "even"
		}
		if dst[i] != want {
			t.Fatalf("dst[%d] = %q, want %q", i, dst[i], want)
		}
	}
}

func TestTransformShortDstPanics(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("short destination did not panic")
		}
	}()
	Transform(tf, []int{1, 2, 3}, make([]int, 2), func(v int) int { return v }, 1)
}

func TestTransformReduce(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	words := []string{"a", "bb", "ccc", "dddd"}
	total := 0
	TransformReduce(tf, words, &total,
		func(a, b int) int { return a + b },
		func(s string) int { return len(s) }, 1)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("TransformReduce = %d, want 10", total)
	}
}

func TestAlgorithmsInsideSubflow(t *testing.T) {
	// The unified interface: the same algorithm constructors work on a
	// *Subflow (dynamic tasking).
	tf := New(4)
	defer tf.Close()
	var sum atomic.Int64
	items := make([]int64, 200)
	for i := range items {
		items[i] = 1
	}
	result := int64(0)
	tf.EmplaceSubflow(func(sf *Subflow) {
		S, T := ParallelFor(sf, items, func(v int64) { sum.Add(v) }, 0)
		RS, RT := Reduce(sf, items, &result, func(a, b int64) int64 { return a + b }, 0)
		T.Precede(RS)
		_, _ = S, RT
	})
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 200 {
		t.Fatalf("subflow ParallelFor sum = %d, want 200", sum.Load())
	}
	if result != 200 {
		t.Fatalf("subflow Reduce = %d, want 200", result)
	}
}

// Property: parallel Reduce with + equals sequential sum for any input.
func TestQuickReduceMatchesSequential(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	f := func(xs []int32, chunk uint8) bool {
		want := int64(0)
		for _, x := range xs {
			want += int64(x)
		}
		items := make([]int64, len(xs))
		for i, x := range xs {
			items[i] = int64(x)
		}
		got := int64(0)
		Reduce(tf, items, &got, func(a, b int64) int64 { return a + b }, int(chunk))
		if err := tf.WaitForAll(); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Transform equals sequential map for any input and chunking.
func TestQuickTransformMatchesSequential(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	f := func(xs []int16, chunk uint8) bool {
		dst := make([]int32, len(xs))
		Transform(tf, xs, dst, func(v int16) int32 { return int32(v) * 3 }, int(chunk))
		if err := tf.WaitForAll(); err != nil {
			return false
		}
		for i, x := range xs {
			if dst[i] != int32(x)*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// partitioners is the test matrix over partition strategies.
var partitioners = []struct {
	name string
	p    Partitioner
}{
	{"Static", Static},
	{"Dynamic", Dynamic},
	{"Guided", Guided},
}

// TestParallelForPartitioners checks every strategy against the same
// sum, with the S/T placeholders wired between pre and post tasks so the
// beg→end ordering contract is asserted too.
func TestParallelForPartitioners(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			var sum atomic.Int64
			items := make([]int64, 1000)
			for i := range items {
				items[i] = int64(i)
			}
			S, T := ParallelFor(tf, items, func(v int64) { sum.Add(v) }, 0, WithPartitioner(pt.p))
			pre := tf.Emplace1(func() { sum.Add(1) })
			post := tf.Emplace1(func() {
				if got := sum.Load(); got != 1000*999/2+1 {
					t.Errorf("sum at post = %d, want %d", got, 1000*999/2+1)
				}
			})
			pre.Precede(S)
			T.Precede(post)
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			if got := sum.Load(); got != 1000*999/2+1 {
				t.Fatalf("sum = %d, want %d", got, 1000*999/2+1)
			}
			checkShape(t, pt.p)
		})
	}
}

// algorithms builds each of the six algorithm constructors over n elements
// with chunk 2.
var algorithms = []struct {
	name  string
	build func(fb FlowBuilder, n int, opt AlgOption)
}{
	{"ParallelFor", func(fb FlowBuilder, n int, opt AlgOption) {
		ParallelFor(fb, make([]int, n), func(int) {}, 2, opt)
	}},
	{"ParallelForPtr", func(fb FlowBuilder, n int, opt AlgOption) {
		ParallelForPtr(fb, make([]int, n), func(*int) {}, 2, opt)
	}},
	{"ParallelForIndex", func(fb FlowBuilder, n int, opt AlgOption) {
		ParallelForIndex(fb, 0, 3*n, 3, func(int) {}, 2, opt)
	}},
	{"Reduce", func(fb FlowBuilder, n int, opt AlgOption) {
		Reduce(fb, make([]int, n), new(int), func(a, b int) int { return a + b }, 2, opt)
	}},
	{"Transform", func(fb FlowBuilder, n int, opt AlgOption) {
		Transform(fb, make([]int, n), make([]int, n), func(v int) int { return v }, 2, opt)
	}},
	{"TransformReduce", func(fb FlowBuilder, n int, opt AlgOption) {
		TransformReduce(fb, make([]int, n), new(int), func(a, b int) int { return a + b },
			func(v int) int { return v }, 2, opt)
	}},
}

// checkShape pins the graph every constructor emits under p, on a Taskflow
// and inside a Subflow: ceil(n/chunk)+2 tasks under Static, min(W, n)+2
// under Dynamic and Guided, and the S/T pair alone for an empty range.
func checkShape(t *testing.T, p Partitioner) {
	const workers, chunk = 4, 2
	tf := New(workers)
	defer tf.Close()
	for _, a := range algorithms {
		for _, n := range []int{0, 3, 10} {
			want := 2
			switch {
			case n == 0:
			case p == Static:
				want += (n + chunk - 1) / chunk
			default:
				want += min(workers, n)
			}
			g := NewShared(tf.Executor())
			a.build(g, n, WithPartitioner(p))
			got, inSubflow := g.NumNodes(), 0
			g.EmplaceSubflow(func(sf *Subflow) {
				a.build(sf, n, WithPartitioner(p))
				inSubflow = sf.NumNodes()
			})
			if err := g.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			if got != want || inSubflow != want {
				t.Errorf("%s over %d: %d tasks on a Taskflow, %d in a Subflow, want %d",
					a.name, n, got, inSubflow, want)
			}
		}
	}
}

// A chunk larger than the input must still visit every element exactly
// once, under every strategy.
func TestParallelForChunkLargerThanN(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			hits := make([]atomic.Int32, 5)
			idx := make([]int, 5)
			for i := range idx {
				idx[i] = i
			}
			ParallelFor(tf, idx, func(i int) { hits[i].Add(1) }, 1000, WithPartitioner(pt.p))
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("element %d visited %d times, want 1", i, got)
				}
			}
		})
	}
}

// A single-worker executor must still drain every strategy (Dynamic and
// Guided emit exactly one claimant there).
func TestParallelForSingleWorker(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(1)
			defer tf.Close()
			var sum int64 // single worker: no atomics needed
			items := make([]int64, 300)
			for i := range items {
				items[i] = 1
			}
			ParallelFor(tf, items, func(v int64) { sum += v }, 0, WithPartitioner(pt.p))
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			if sum != 300 {
				t.Fatalf("sum = %d, want 300", sum)
			}
		})
	}
}

// step > 1 must hit exactly the arithmetic sequence beg, beg+step, ...,
// under every strategy, matching a sequential reference.
func TestParallelForIndexStepPartitioned(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			const beg, end, step = 3, 250, 7
			hits := make([]atomic.Int32, end)
			ParallelForIndex(tf, beg, end, step, func(i int) { hits[i].Add(1) }, 4, WithPartitioner(pt.p))
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			want := make([]int32, end)
			for j := beg; j < end; j += step {
				want[j] = 1
			}
			for i := range hits {
				if got := hits[i].Load(); got != want[i] {
					t.Fatalf("index %d hit %d times, want %d", i, got, want[i])
				}
			}
		})
	}
}

func TestReducePartitioners(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			items := make([]int, 777)
			for i := range items {
				items[i] = i + 1
			}
			result := 100 // initial value seeds the fold
			Reduce(tf, items, &result, func(a, b int) int { return a + b }, 10, WithPartitioner(pt.p))
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			if want := 100 + 777*778/2; result != want {
				t.Fatalf("Reduce = %d, want %d", result, want)
			}
		})
	}
	// Static folds in element order, so an associative operator that does
	// not commute is fine there (Dynamic and Guided need both).
	t.Run("StaticNonCommutative", func(t *testing.T) {
		tf := New(4)
		defer tf.Close()
		items := make([]string, 64)
		want := ""
		for i := range items {
			items[i] = string(rune('0' + i))
			want += items[i]
		}
		for _, chunk := range []int{1, 0, 5} {
			got := ""
			Reduce(tf, items, &got, func(a, b string) string { return a + b }, chunk, WithPartitioner(Static))
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("chunk %d: Reduce = %q, want %q", chunk, got, want)
			}
		}
	})
}

func TestTransformPartitioners(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			src := make([]int, 333)
			for i := range src {
				src[i] = i
			}
			dst := make([]int, 333)
			Transform(tf, src, dst, func(v int) int { return v * 3 }, 0, WithPartitioner(pt.p))
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if dst[i] != i*3 {
					t.Fatalf("dst[%d] = %d, want %d", i, dst[i], i*3)
				}
			}
		})
	}
}

func TestTransformReducePartitioners(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			items := make([]int, 500)
			for i := range items {
				items[i] = i
			}
			total := 7
			TransformReduce(tf, items, &total,
				func(a, b int) int { return a + b },
				func(v int) int { return v * 2 }, 8, WithPartitioner(pt.p))
			if err := tf.WaitForAll(); err != nil {
				t.Fatal(err)
			}
			if want := 7 + 2*(500*499/2); total != want {
				t.Fatalf("TransformReduce = %d, want %d", total, want)
			}
		})
	}
}

// Re-running a dynamically partitioned flow must replay the whole range
// each time: the source placeholder re-arms the shared cursor (and the
// reduce partial-slot flags) before the claimants run.
func TestPartitionedRerun(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			var count atomic.Int64
			items := make([]int, 512)
			ParallelFor(tf, items, func(int) { count.Add(1) }, 0, WithPartitioner(pt.p))
			const runs = 10
			if err := tf.RunN(runs); err != nil {
				t.Fatal(err)
			}
			if got := count.Load(); got != runs*512 {
				t.Fatalf("after %d runs: %d iterations, want %d", runs, got, runs*512)
			}
		})
	}
}

func TestPartitionedReduceRerun(t *testing.T) {
	for _, pt := range partitioners {
		t.Run(pt.name, func(t *testing.T) {
			tf := New(4)
			defer tf.Close()
			items := make([]int, 400)
			for i := range items {
				items[i] = 1
			}
			result := 0
			Reduce(tf, items, &result, func(a, b int) int { return a + b }, 3, WithPartitioner(pt.p))
			for run := 0; run < 3; run++ {
				result = 0
				if err := tf.Run(); err != nil {
					t.Fatal(err)
				}
				if result != 400 {
					t.Fatalf("run %d: Reduce = %d, want 400", run, result)
				}
			}
		})
	}
}

// Dynamic partitioners inside a subflow: same unified-interface contract
// as the static strategies.
func TestGuidedInsideSubflow(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var sum atomic.Int64
	items := make([]int64, 200)
	for i := range items {
		items[i] = 1
	}
	tf.EmplaceSubflow(func(sf *Subflow) {
		ParallelFor(sf, items, func(v int64) { sum.Add(v) }, 0, WithPartitioner(Guided))
	})
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 200 {
		t.Fatalf("subflow guided ParallelFor sum = %d, want 200", sum.Load())
	}
}

// Property: every partitioner matches the sequential fold for any input,
// chunk, and strategy.
func TestQuickPartitionedReduceMatchesSequential(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	f := func(xs []int32, chunk uint8, strat uint8) bool {
		p := Partitioner(strat % 3)
		want := int64(0)
		for _, x := range xs {
			want += int64(x)
		}
		items := make([]int64, len(xs))
		for i, x := range xs {
			items[i] = int64(x)
		}
		got := int64(0)
		Reduce(tf, items, &got, func(a, b int64) int64 { return a + b }, int(chunk), WithPartitioner(p))
		if err := tf.WaitForAll(); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelForGuidedZeroAlloc gates the dynamic-partitioner
// steady state: re-running a guided loop claims ranges off the shared
// cursor without allocating.
func TestRunParallelForGuidedZeroAlloc(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var n atomic.Int64
	items := make([]int64, 1024)
	for i := range items {
		items[i] = 1
	}
	ParallelFor(tf, items, func(v int64) { n.Add(v) }, 0, WithPartitioner(Guided))
	if err := tf.Run(); err != nil { // build run state outside measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("guided ParallelFor Run allocates %v objects/run, want 0", allocs)
	}
}

func TestChunkSize(t *testing.T) {
	if got := chunkSize(100, 7, 4); got != 7 {
		t.Fatalf("chunkSize(100,7,4) = %d", got)
	}
	if got := chunkSize(0, 0, 4); got < 1 {
		t.Fatalf("chunkSize(0,0,4) = %d, want >= 1", got)
	}
	// Empty-range contract: n <= 0 returns 1 regardless of the requested
	// chunk — an empty range needs no partitioning.
	if got := chunkSize(0, 7, 4); got != 1 {
		t.Fatalf("chunkSize(0,7,4) = %d, want 1", got)
	}
	if got := chunkSize(-3, 50, 2); got != 1 {
		t.Fatalf("chunkSize(-3,50,2) = %d, want 1", got)
	}
	if got := chunkSize(5, -1, 4); got < 1 {
		t.Fatalf("chunkSize(5,-1,4) = %d, want >= 1", got)
	}
	// Auto-chunking partitions by the actual worker count: 4 chunks per
	// worker, so 2 workers split 80 items into 8 chunks of 10.
	if got := chunkSize(80, 0, 2); got != 10 {
		t.Fatalf("chunkSize(80,0,2) = %d, want 10", got)
	}
	// Unknown worker count falls back to GOMAXPROCS.
	pieces := 4 * runtime.GOMAXPROCS(0)
	want := (1000 + pieces - 1) / pieces
	if got := chunkSize(1000, 0, 0); got != want {
		t.Fatalf("chunkSize(1000,0,0) = %d, want %d", got, want)
	}
}
