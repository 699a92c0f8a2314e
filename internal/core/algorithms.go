package core

import (
	"runtime"

	"gotaskflow/internal/executor"
)

// This file implements the built-in algorithm collection of the paper
// (Section III-F): parallel_for, reduce, and transform patterns expressed
// as spliceable task subgraphs. Each constructor returns a (source, target)
// pair of placeholder tasks delimiting the pattern, so users can compose
// larger application modules by wiring S/T into their own graphs:
//
//	S, T := core.ParallelFor(tf, data, work, 0)
//	before.Precede(S)
//	T.Precede(after)
//
// Because the constructors accept the unified FlowBuilder interface, the
// same patterns splice into static graphs (*Taskflow) and dynamic subflows
// (*Subflow) alike.
//
// Every constructor takes an optional partitioner (WithPartitioner)
// deciding how the iteration space is split across workers, mirroring the
// partitioner abstraction of the successor Taskflow system: Static bakes
// one task per chunk into the graph; Dynamic and Guided emit only
// min(workers, n) claimant tasks that carve ranges off a shared atomic
// cursor at run time, so wide loops cost a handful of graph nodes and
// skewed per-element work rebalances itself.
//
// The six constructors share one range splitter, forRange, which owns the
// S/T pair, the partitioner and the graph shape; each constructor only
// supplies the loop over one range. Reduce and TransformReduce add one
// partial per slot on top (reduceRange).

// Partitioner selects how the algorithm constructors split an iteration
// space across workers.
type Partitioner int

const (
	// Static partitions at graph-construction time: one task per chunk of
	// the given size. Predictable, zero coordination at run time, and the
	// only strategy whose per-chunk tasks can be individually observed
	// (traced, profiled, stolen) — prefer it for uniform per-element cost
	// or when the per-chunk tasks themselves matter.
	Static Partitioner = iota
	// Dynamic emits min(workers, n) claimant tasks that repeatedly claim
	// fixed-size chunks (the chunk argument; default 1) from a shared
	// atomic cursor at run time. Best load balance for skewed bodies, at
	// one CAS per chunk.
	Dynamic
	// Guided is Dynamic with geometrically shrinking grants: each claim
	// takes remaining/(2*workers) indices (never below the chunk
	// argument), so the range drains in O(workers·log n) claims —
	// front-loaded big grants, tail balanced by small ones.
	Guided
)

// algConfig collects the optional knobs of the algorithm constructors.
type algConfig struct {
	part Partitioner
}

// AlgOption configures an algorithm constructor (currently the
// partitioner; defaults to Static).
type AlgOption func(*algConfig)

// WithPartitioner selects the strategy used to split the iteration space;
// see the Partitioner constants.
func WithPartitioner(p Partitioner) AlgOption {
	return func(c *algConfig) { c.part = p }
}

// chunkSize resolves a user-provided chunk size: non-positive means
// auto-partition into roughly 4 tasks per worker of the executor that will
// actually run the flow (falling back to GOMAXPROCS when the worker count
// is unknown), so a 2-worker executor gets ~8 chunks rather than 4×NumCPU.
// An empty or negative range needs no partitioning at all: n <= 0 returns
// 1 regardless of the requested chunk.
func chunkSize(n, chunk, workers int) int {
	if n <= 0 {
		return 1
	}
	if chunk > 0 {
		return chunk
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pieces := 4 * workers
	c := (n + pieces - 1) / pieces
	if c < 1 {
		c = 1
	}
	return c
}

// forRange emplaces the (source, target) pair of the pattern called name
// and splits the index space [0, n) between them by the partitioner in
// opts. Static emits one task per chunk, whose slot is the chunk index;
// Dynamic and Guided emit min(workers, n) claimants over one
// executor.RangeCursor, allocated here and armed by S so that a re-run
// replays the range without allocating, whose slot is the claimant index.
// Either way body(slot, lo, hi) runs once per range [lo, hi), the ranges
// of one slot one at a time. slots, when not nil, learns the slot count
// before any task runs; rearm, when not nil, runs in S before every run.
func forRange(fb FlowBuilder, name string, n, chunk int, opts []AlgOption, slots func(int), rearm func(), body func(slot, lo, hi int)) (Task, Task) {
	s := fb.Placeholder().Name(name + "_S")
	t := fb.Placeholder().Name(name + "_T")
	if n <= 0 {
		s.Precede(t)
		return s, t
	}
	var cfg algConfig
	for _, o := range opts {
		o(&cfg)
	}
	workers := fb.workerCount()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var k int
	var task func(slot int) func()
	if cfg.part == Static {
		c := chunkSize(n, chunk, workers)
		k = (n + c - 1) / c
		task = func(slot int) func() {
			lo, hi := slot*c, min(slot*c+c, n)
			return func() { body(slot, lo, hi) }
		}
		if rearm != nil {
			s.Work(rearm)
		}
	} else {
		cur, guided := new(executor.RangeCursor), 0
		if cfg.part == Guided {
			guided = workers
		}
		k = min(workers, n)
		task = func(slot int) func() {
			return func() {
				for lo, hi, ok := cur.Claim(); ok; lo, hi, ok = cur.Claim() {
					body(slot, lo, hi)
				}
			}
		}
		s.Work(func() {
			cur.Arm(n, chunk, guided)
			if rearm != nil {
				rearm()
			}
		})
	}
	if slots != nil {
		slots(k)
	}
	for i := 0; i < k; i++ {
		w := fb.Emplace(task(i))[0]
		s.Precede(w)
		w.Precede(t)
	}
	return s, t
}

// ParallelFor applies fn to every element of items. With the default
// Static partitioner it emits one task per chunk of the given size
// (non-positive chunk selects an automatic size); with Dynamic or Guided
// it emits min(workers, n) claimant tasks that split the range at run time
// (chunk then sets the minimum grant). It returns the (source, target)
// placeholder pair delimiting the pattern.
func ParallelFor[T any](fb FlowBuilder, items []T, fn func(T), chunk int, opts ...AlgOption) (Task, Task) {
	return forRange(fb, "pfor", len(items), chunk, opts, nil, nil, func(_, lo, hi int) {
		for _, item := range items[lo:hi] {
			fn(item)
		}
	})
}

// ParallelForPtr is ParallelFor with pointer access to each element, for
// in-place mutation.
func ParallelForPtr[T any](fb FlowBuilder, items []T, fn func(*T), chunk int, opts ...AlgOption) (Task, Task) {
	return forRange(fb, "pforp", len(items), chunk, opts, nil, nil, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(&items[i])
		}
	})
}

// ParallelForIndex applies fn to every index in the arithmetic range
// [beg, end) with the given positive step; a non-positive step panics
// before anything is emplaced. Partitioning follows the same rules as
// ParallelFor, over the iteration count of the range.
func ParallelForIndex(fb FlowBuilder, beg, end, step int, fn func(int), chunk int, opts ...AlgOption) (Task, Task) {
	if step <= 0 {
		panic("core: ParallelForIndex requires a positive step")
	}
	n := 0
	if beg < end {
		n = (end - beg + step - 1) / step
	}
	return forRange(fb, "pfori", n, chunk, opts, nil, nil, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(beg + i*step)
		}
	})
}

// Transform maps src through fn into dst (which must be at least as long as
// src). Partitioning follows the same rules as ParallelFor.
func Transform[T, U any](fb FlowBuilder, src []T, dst []U, fn func(T) U, chunk int, opts ...AlgOption) (Task, Task) {
	if len(dst) < len(src) {
		panic("core: Transform destination shorter than source")
	}
	return forRange(fb, "transform", len(src), chunk, opts, nil, nil, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = fn(src[i])
		}
	})
}

// Reduce folds items into *result with the associative binary operator bop,
// using partial-fold tasks (one per chunk, or one claimant per worker under
// Dynamic/Guided) plus a final combine task. The value of *result when the
// combine task executes seeds the fold, matching Cpp-Taskflow's
// reduce(beg, end, result, bop) convention. Static folds in element order;
// under Dynamic and Guided a claimant folds the ranges it claims, which need
// not be adjacent, so there bop must be commutative as well.
func Reduce[T any](fb FlowBuilder, items []T, result *T, bop func(T, T) T, chunk int, opts ...AlgOption) (Task, Task) {
	return reduceRange(fb, "reduce", len(items), result, bop, func(lo, hi int) T {
		acc := items[lo]
		for _, item := range items[lo+1 : hi] {
			acc = bop(acc, item)
		}
		return acc
	}, chunk, opts)
}

// TransformReduce maps each element through uop and folds the mapped values
// into *result with bop; the value of *result when the combine task
// executes seeds the fold. Partitioning, and the need for a commutative bop
// under Dynamic and Guided, follow Reduce.
func TransformReduce[T, U any](fb FlowBuilder, items []T, result *U, bop func(U, U) U, uop func(T) U, chunk int, opts ...AlgOption) (Task, Task) {
	return reduceRange(fb, "treduce", len(items), result, bop, func(lo, hi int) U {
		acc := uop(items[lo])
		for _, item := range items[lo+1 : hi] {
			acc = bop(acc, uop(item))
		}
		return acc
	}, chunk, opts)
}

// reduceRange is Reduce over [0, n) with fold(lo, hi) reducing one range:
// every slot of forRange keeps one partial, the fold of the ranges it ran,
// S clears them and T combines them into *result in slot order.
func reduceRange[U any](fb FlowBuilder, name string, n int, result *U, bop func(U, U) U, fold func(lo, hi int) U, chunk int, opts []AlgOption) (Task, Task) {
	var partials []U
	var have []bool
	s, t := forRange(fb, name, n, chunk, opts,
		func(k int) { partials, have = make([]U, k), make([]bool, k) },
		func() { clear(have) },
		func(slot, lo, hi int) {
			acc := fold(lo, hi)
			if have[slot] {
				acc = bop(partials[slot], acc)
			}
			partials[slot], have[slot] = acc, true
		})
	if n > 0 {
		t.Work(func() {
			acc := *result
			for i, p := range partials {
				if have[i] {
					acc = bop(acc, p)
				}
			}
			*result = acc
		})
	}
	return s, t
}
