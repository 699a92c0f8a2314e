package main

import (
	"slices"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an even
// count), 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// spreads -compare prints are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// ratio is a/b, 0 when b is 0: a share of nothing is reported as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed is one call a probe times: body does the work, before and after run
// untimed around it and may be nil.
type timed struct {
	before, body, after func()
}

// once times one call of t.body, in nanoseconds per unit of its work.
func (t timed) once(units int) float64 {
	if t.before != nil {
		t.before()
	}
	t0 := time.Now()
	t.body()
	d := time.Since(t0)
	if t.after != nil {
		t.after()
	}
	return float64(d.Nanoseconds()) / float64(units)
}

// sample times body repeatedly until budget is spent (at least three times)
// and returns the median nanoseconds per unit with the number of timed
// calls. body does `units` units of work.
func sample(budget time.Duration, units int, before, body, after func()) (float64, int) {
	t := timed{before, body, after}
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		per = append(per, t.once(units))
	}
	return median(per), len(per)
}

// difference is what a variant costs beyond the base it was paired with: the
// median of the paired differences. It is unresolved when their quartiles
// straddle 0, a quarter of the pairs or more pointing the other way: noise,
// whatever its sign.
type difference struct {
	ns       float64
	resolved bool
}

// samplePaired times base and then every variant, lap after lap until budget
// is spent (at least three laps), and returns base's median nanoseconds per
// unit, each variant's median difference from the base of the same lap, and
// the number of laps. The host's speed moves by a sixth between spells of a
// few seconds; timing both sides of a difference within milliseconds of
// each other keeps that out of it.
func samplePaired(budget time.Duration, units int, base timed, variants ...timed) (float64, []difference, int) {
	var bases []float64
	diffs := make([][]float64, len(variants))
	deadline := time.Now().Add(budget)
	for len(bases) < 3 || time.Now().Before(deadline) {
		b := base.once(units)
		bases = append(bases, b)
		for i, v := range variants {
			diffs[i] = append(diffs[i], v.once(units)-b)
		}
	}
	out := make([]difference, len(variants))
	for i, d := range diffs {
		q1, q2, q3 := quartiles(d)
		out[i] = difference{q2, q1 > 0 || q3 < 0}
	}
	return median(bases), out, len(bases)
}
