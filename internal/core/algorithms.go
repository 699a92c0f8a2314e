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

func resolveOpts(opts []AlgOption) algConfig {
	var c algConfig
	for _, o := range opts {
		o(&c)
	}
	return c
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

// claimantCount returns how many claimant tasks a dynamic partition emits:
// one per worker, but never more than the iteration space could occupy.
func claimantCount(workers, total int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// buildClaimants wires a dynamic partition of [0, n) between s and t: one
// executor.RangeCursor, allocated here and armed by s (so the pattern is
// re-runnable without allocating), and slots claimant tasks, each looping
// claiming ranges and passing them — with its own claimant index — to body.
// chunk is the minimum grant.
func buildClaimants(fb FlowBuilder, s, t Task, n, chunk int, p Partitioner, slots int, rearm func(), body func(slot, lo, hi int)) {
	cur, guided := new(executor.RangeCursor), 0
	if p == Guided {
		if guided = fb.workerCount(); guided <= 0 {
			guided = runtime.GOMAXPROCS(0)
		}
	}
	s.Work(func() {
		cur.Arm(n, chunk, guided)
		if rearm != nil {
			rearm()
		}
	})
	for i := 0; i < slots; i++ {
		slot := i
		w := fb.Emplace(func() {
			for {
				lo, hi, ok := cur.Claim()
				if !ok {
					return
				}
				body(slot, lo, hi)
			}
		})[0]
		s.Precede(w)
		w.Precede(t)
	}
}

// ParallelFor applies fn to every element of items. With the default
// Static partitioner it emits one task per chunk of the given size
// (non-positive chunk selects an automatic size); with Dynamic or Guided
// it emits min(workers, n) claimant tasks that split the range at run time
// (chunk then sets the minimum grant). It returns the (source, target)
// placeholder pair delimiting the pattern.
func ParallelFor[T any](fb FlowBuilder, items []T, fn func(T), chunk int, opts ...AlgOption) (Task, Task) {
	s := fb.Placeholder().Name("pfor_S")
	t := fb.Placeholder().Name("pfor_T")
	n := len(items)
	if n == 0 {
		s.Precede(t)
		return s, t
	}
	if cfg := resolveOpts(opts); cfg.part != Static {
		buildClaimants(fb, s, t, n, chunk, cfg.part, claimantCount(fb.workerCount(), n), nil,
			func(_, lo, hi int) {
				for _, item := range items[lo:hi] {
					fn(item)
				}
			})
		return s, t
	}
	c := chunkSize(n, chunk, fb.workerCount())
	for beg := 0; beg < n; beg += c {
		end := beg + c
		if end > n {
			end = n
		}
		part := items[beg:end]
		w := fb.Emplace(func() {
			for _, item := range part {
				fn(item)
			}
		})[0]
		s.Precede(w)
		w.Precede(t)
	}
	return s, t
}

// ParallelForPtr is ParallelFor with pointer access to each element, for
// in-place mutation.
func ParallelForPtr[T any](fb FlowBuilder, items []T, fn func(*T), chunk int, opts ...AlgOption) (Task, Task) {
	s := fb.Placeholder().Name("pforp_S")
	t := fb.Placeholder().Name("pforp_T")
	n := len(items)
	if n == 0 {
		s.Precede(t)
		return s, t
	}
	if cfg := resolveOpts(opts); cfg.part != Static {
		buildClaimants(fb, s, t, n, chunk, cfg.part, claimantCount(fb.workerCount(), n), nil,
			func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					fn(&items[i])
				}
			})
		return s, t
	}
	c := chunkSize(n, chunk, fb.workerCount())
	for beg := 0; beg < n; beg += c {
		end := beg + c
		if end > n {
			end = n
		}
		part := items[beg:end]
		w := fb.Emplace(func() {
			for i := range part {
				fn(&part[i])
			}
		})[0]
		s.Precede(w)
		w.Precede(t)
	}
	return s, t
}

// ParallelForIndex applies fn to every index in the arithmetic range
// [beg, end) with the given positive step. Partitioning follows the same
// rules as ParallelFor, over the iteration count of the range.
func ParallelForIndex(fb FlowBuilder, beg, end, step int, fn func(int), chunk int, opts ...AlgOption) (Task, Task) {
	s := fb.Placeholder().Name("pfori_S")
	t := fb.Placeholder().Name("pfori_T")
	if step <= 0 {
		panic("core: ParallelForIndex requires a positive step")
	}
	if beg >= end {
		s.Precede(t)
		return s, t
	}
	total := (end - beg + step - 1) / step
	if cfg := resolveOpts(opts); cfg.part != Static {
		buildClaimants(fb, s, t, total, chunk, cfg.part, claimantCount(fb.workerCount(), total), nil,
			func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					fn(beg + i*step)
				}
			})
		return s, t
	}
	c := chunkSize(total, chunk, fb.workerCount())
	for i := 0; i < total; i += c {
		hi := i + c
		if hi > total {
			hi = total
		}
		lo, up := beg+i*step, beg+hi*step
		w := fb.Emplace(func() {
			for j := lo; j < up && j < end; j += step {
				fn(j)
			}
		})[0]
		s.Precede(w)
		w.Precede(t)
	}
	return s, t
}

// Reduce folds items into *result with the associative binary operator bop,
// using partial-fold tasks (one per chunk, or one claimant per worker under
// Dynamic/Guided) plus a final combine task. The value of *result when the
// combine task executes seeds the fold, matching Cpp-Taskflow's
// reduce(beg, end, result, bop) convention.
func Reduce[T any](fb FlowBuilder, items []T, result *T, bop func(T, T) T, chunk int, opts ...AlgOption) (Task, Task) {
	s := fb.Placeholder().Name("reduce_S")
	t := fb.Placeholder().Name("reduce_T")
	n := len(items)
	if n == 0 {
		s.Precede(t)
		return s, t
	}
	var partials []T
	var have []bool
	combine := func() {
		acc := *result
		for i, p := range partials {
			if have[i] {
				acc = bop(acc, p)
			}
		}
		*result = acc
	}
	if cfg := resolveOpts(opts); cfg.part != Static {
		slots := claimantCount(fb.workerCount(), n)
		partials = make([]T, slots)
		have = make([]bool, slots)
		buildClaimants(fb, s, t, n, chunk, cfg.part, slots,
			func() { clear(have) },
			func(slot, lo, hi int) {
				acc := items[lo]
				for _, item := range items[lo+1 : hi] {
					acc = bop(acc, item)
				}
				if have[slot] {
					acc = bop(partials[slot], acc)
				}
				partials[slot] = acc
				have[slot] = true
			})
		t.Work(combine)
		return s, t
	}
	c := chunkSize(n, chunk, fb.workerCount())
	numChunks := (n + c - 1) / c
	partials = make([]T, numChunks)
	have = make([]bool, numChunks)
	k := 0
	for beg := 0; beg < n; beg += c {
		end := beg + c
		if end > n {
			end = n
		}
		part := items[beg:end]
		slot := k
		w := fb.Emplace(func() {
			acc := part[0]
			for _, item := range part[1:] {
				acc = bop(acc, item)
			}
			partials[slot] = acc
			have[slot] = true
		})[0]
		s.Precede(w)
		w.Precede(t)
		k++
	}
	t.Work(combine)
	return s, t
}

// Transform maps src through fn into dst (which must be at least as long as
// src). Partitioning follows the same rules as ParallelFor.
func Transform[T, U any](fb FlowBuilder, src []T, dst []U, fn func(T) U, chunk int, opts ...AlgOption) (Task, Task) {
	if len(dst) < len(src) {
		panic("core: Transform destination shorter than source")
	}
	s := fb.Placeholder().Name("transform_S")
	t := fb.Placeholder().Name("transform_T")
	n := len(src)
	if n == 0 {
		s.Precede(t)
		return s, t
	}
	if cfg := resolveOpts(opts); cfg.part != Static {
		buildClaimants(fb, s, t, n, chunk, cfg.part, claimantCount(fb.workerCount(), n), nil,
			func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = fn(src[i])
				}
			})
		return s, t
	}
	c := chunkSize(n, chunk, fb.workerCount())
	for beg := 0; beg < n; beg += c {
		end := beg + c
		if end > n {
			end = n
		}
		in, out := src[beg:end], dst[beg:end]
		w := fb.Emplace(func() {
			for i := range in {
				out[i] = fn(in[i])
			}
		})[0]
		s.Precede(w)
		w.Precede(t)
	}
	return s, t
}

// TransformReduce maps each element through uop and folds the mapped values
// into *result with bop; the value of *result when the combine task
// executes seeds the fold. Partitioning follows the same rules as Reduce.
func TransformReduce[T, U any](fb FlowBuilder, items []T, result *U, bop func(U, U) U, uop func(T) U, chunk int, opts ...AlgOption) (Task, Task) {
	s := fb.Placeholder().Name("treduce_S")
	t := fb.Placeholder().Name("treduce_T")
	n := len(items)
	if n == 0 {
		s.Precede(t)
		return s, t
	}
	var partials []U
	var have []bool
	combine := func() {
		acc := *result
		for i, p := range partials {
			if have[i] {
				acc = bop(acc, p)
			}
		}
		*result = acc
	}
	if cfg := resolveOpts(opts); cfg.part != Static {
		slots := claimantCount(fb.workerCount(), n)
		partials = make([]U, slots)
		have = make([]bool, slots)
		buildClaimants(fb, s, t, n, chunk, cfg.part, slots,
			func() { clear(have) },
			func(slot, lo, hi int) {
				acc := uop(items[lo])
				for _, item := range items[lo+1 : hi] {
					acc = bop(acc, uop(item))
				}
				if have[slot] {
					acc = bop(partials[slot], acc)
				}
				partials[slot] = acc
				have[slot] = true
			})
		t.Work(combine)
		return s, t
	}
	c := chunkSize(n, chunk, fb.workerCount())
	numChunks := (n + c - 1) / c
	partials = make([]U, numChunks)
	have = make([]bool, numChunks)
	k := 0
	for beg := 0; beg < n; beg += c {
		end := beg + c
		if end > n {
			end = n
		}
		part := items[beg:end]
		slot := k
		w := fb.Emplace(func() {
			acc := uop(part[0])
			for _, item := range part[1:] {
				acc = bop(acc, uop(item))
			}
			partials[slot] = acc
			have[slot] = true
		})[0]
		s.Precede(w)
		w.Precede(t)
		k++
	}
	t.Work(combine)
	return s, t
}
