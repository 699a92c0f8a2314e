package executor

import "sync/atomic"

// RangeCursor is the shared run-time state of a dynamically partitioned
// loop over [0, n): claimant tasks carve [lo, hi) grants off it with a CAS
// loop until the range is drained. A fixed cursor grants grain indices per
// claim; a guided one grants max(grain, remaining/(2·workers)), so the range
// drains in O(workers·log n) claims — front-loaded big grants, the tail
// balanced by small ones. The parallel algorithms of internal/core and the
// ForEach pipes of internal/pipeline both partition through it.
type RangeCursor struct {
	next  atomic.Int64
	n     int64 // iteration-space size
	grain int64 // minimum grant
	div   int64 // guided: grant = max(grain, remaining/div); 0 = fixed grain
}

// Arm sets the cursor over [0, n) with grants of at least grain (grain < 1
// counts as 1), guided for that many workers when guidedWorkers > 0. Arm
// before the claimants are submitted: the submission orders the plain
// fields for them.
func (c *RangeCursor) Arm(n, grain, guidedWorkers int) {
	c.n, c.grain, c.div = int64(n), int64(max(grain, 1)), int64(2*guidedWorkers)
	c.next.Store(0)
}

// Claim carves the next grant off the cursor, returning ok=false once the
// range is drained. Safe for any number of concurrent claimants.
func (c *RangeCursor) Claim() (lo, hi int, ok bool) {
	for {
		from := c.next.Load()
		if from >= c.n {
			return 0, 0, false
		}
		size := c.grain
		if c.div > 0 {
			size = max(size, (c.n-from)/c.div)
		}
		to := min(from+size, c.n)
		if c.next.CompareAndSwap(from, to) {
			return int(from), int(to), true
		}
	}
}
