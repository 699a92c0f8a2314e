// Package stav1 is the OpenTimer-v1-style timing driver of the
// Cpp-Taskflow paper (Sections II-D and IV-B): parallelization by
// levelization. Each timing update rebuilds a bucket-list of topological
// levels restricted to the affected cone and applies an OpenMP-style
// parallel-for with a full barrier level by level — first forward, then
// backward. The per-update bucket reconstruction and the barrier per level
// are exactly the structural costs the paper attributes to the v1 engine.
package stav1

import (
	"gotaskflow/internal/omp"
	"gotaskflow/internal/sta"
)

// Analyzer drives incremental timing updates with the levelized idiom.
type Analyzer struct {
	T    *sta.Timing
	team *omp.Parallel

	// level is an n-sized scratch of cone-local level numbers. Outside an
	// update every entry is -1; during an update, cone members carry their
	// level, which doubles as the membership test. The scratch is
	// allocated once, but the bucket lists are rebuilt every update —
	// v1's bucket-list reconstruction cost.
	level []int32
}

// New creates an analyzer running on its own OpenMP-style team of the
// given size.
func New(t *sta.Timing, threads int) *Analyzer {
	a := &Analyzer{
		T:     t,
		team:  omp.NewParallel(threads),
		level: make([]int32, t.Ckt.NumGates()),
	}
	for i := range a.level {
		a.level[i] = -1
	}
	return a
}

// Close stops the thread team.
func (a *Analyzer) Close() { a.team.Close() }

// minLevelGrain keeps per-task work reasonable when a level is wide.
const minLevelGrain = 16

func grain(n, threads int) int {
	c := (n + threads - 1) / threads
	if c < minLevelGrain {
		c = minLevelGrain
	}
	return c
}

// Run applies one timing update: levelize the forward cone and relax it
// level by level under a barrier, then do the same for the backward cone.
func (a *Analyzer) Run(u sta.Update) {
	t := a.T
	g := t.Ckt.Gates

	// ---- Forward phase. u.Fwd is in topological order: one ascending
	// sweep assigns cone-local levels (fanins are finalized before use).
	for _, v := range u.Fwd {
		a.level[v] = 0 // mark membership
	}
	buckets := make([][]int, 0, 16)
	for _, v := range u.Fwd {
		lvl := int32(0)
		for _, ui := range g[v].Fanin {
			if l := a.level[ui]; l >= 0 && l+1 > lvl {
				lvl = l + 1
			}
		}
		a.level[v] = lvl
		for int(lvl) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[lvl] = append(buckets[lvl], v)
	}
	for _, bucket := range buckets {
		bucket := bucket
		a.team.ParallelFor(len(bucket), grain(len(bucket), a.team.NumThreads()), func(i int) {
			t.RelaxForward(bucket[i])
		})
	}
	for _, v := range u.Fwd {
		a.level[v] = -1
	}

	// ---- Backward phase. u.Bwd is in reverse topological order: one
	// descending sweep assigns levels along reversed cone edges (fanouts
	// are finalized before use).
	for _, v := range u.Bwd {
		a.level[v] = 0
	}
	buckets = buckets[:0]
	for _, v := range u.Bwd {
		lvl := int32(0)
		for _, wi := range g[v].Fanout {
			if l := a.level[wi]; l >= 0 && l+1 > lvl {
				lvl = l + 1
			}
		}
		a.level[v] = lvl
		for int(lvl) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[lvl] = append(buckets[lvl], v)
	}
	for _, bucket := range buckets {
		bucket := bucket
		a.team.ParallelFor(len(bucket), grain(len(bucket), a.team.NumThreads()), func(i int) {
			t.RelaxBackward(bucket[i])
		})
	}
	for _, v := range u.Bwd {
		a.level[v] = -1
	}
}
