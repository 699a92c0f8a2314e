// Package wsq provides an unbounded Chase-Lev work-stealing deque.
//
// The deque has a single owner goroutine that pushes and pops items at the
// bottom, while any number of thief goroutines concurrently steal items from
// the top. It is the queue primitive underneath the work-stealing executor
// (paper Section III-E, Algorithm 1): each worker owns one deque, runs in
// LIFO order for locality, and is robbed in FIFO order for load balance.
//
// Elements are pointers: a Deque[T] stores *T values directly in its slots,
// so pushing never boxes or copies the item. Schedulers push pointers to
// pre-built, long-lived task objects (intrusive tasks), which keeps the
// steady-state dispatch path allocation-free. Pushing a nil pointer is not
// allowed.
//
// The implementation follows Chase and Lev, "Dynamic Circular Work-Stealing
// Deque" (SPAA 2005), with the memory-ordering fixes from Lê et al.,
// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP 2013),
// mapped onto Go's sequentially-consistent sync/atomic operations.
package wsq

import (
	"sync/atomic"
)

// ring is a fixed-capacity circular array. Capacity is always a power of two
// so index wrapping is a mask operation.
type ring[T any] struct {
	mask int64
	buf  []atomic.Pointer[T]
}

func newRing[T any](capacity int64) *ring[T] {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("wsq: ring capacity must be a positive power of two")
	}
	return &ring[T]{
		mask: capacity - 1,
		buf:  make([]atomic.Pointer[T], capacity),
	}
}

func (r *ring[T]) cap() int64 { return r.mask + 1 }

func (r *ring[T]) store(i int64, v *T) { r.buf[i&r.mask].Store(v) }

func (r *ring[T]) load(i int64) *T { return r.buf[i&r.mask].Load() }

// grow returns a ring of at least twice the capacity (enough to also fit
// need extra items) holding the items in [top, bottom).
func (r *ring[T]) grow(bottom, top, need int64) *ring[T] {
	c := 2 * r.cap()
	for c-(bottom-top) < need {
		c *= 2
	}
	bigger := newRing[T](c)
	for i := top; i < bottom; i++ {
		bigger.store(i, r.load(i))
	}
	return bigger
}

// Deque is an unbounded single-owner multi-thief work-stealing deque of
// pointers. The zero value is not usable; construct with New.
//
// Push, PushBatch, Pop and Scrub must only be called by the owner goroutine.
// Steal may be called by any goroutine. Empty and Len may be called by any
// goroutine but are inherently racy snapshots.
type Deque[T any] struct {
	bottom atomic.Int64
	top    atomic.Int64
	array  atomic.Pointer[ring[T]]

	// scrubbed and high bound the slots that may hold a pointer to an item
	// already taken: [scrubbed, max(high, bottom)). Owner only; see Scrub.
	// high follows bottom where bottom turns back, in Pop.
	scrubbed, high int64

	// ctr, when non-nil, receives per-operation accounting (see Counters).
	// Attached once before use; the disabled cost is one nil check per
	// operation.
	ctr *Counters

	// growHook, when non-nil, is called by the owner after a ring growth
	// with the new capacity. Same attachment contract as ctr.
	growHook func(newCap int)
}

// SetGrowHook attaches fn, called by the owner goroutine after each ring
// growth with the new capacity. Pass nil to detach. Must be set before the
// deque is shared with thieves (attaching to a live deque is a data race);
// the disabled cost is one nil check per growth.
func (d *Deque[T]) SetGrowHook(fn func(newCap int)) { d.growHook = fn }

// New creates an empty deque with at least the given initial capacity
// (rounded up to a power of two, minimum 64).
func New[T any](capacity int) *Deque[T] {
	c := int64(64)
	for c < int64(capacity) {
		c <<= 1
	}
	d := &Deque[T]{}
	d.array.Store(newRing[T](c))
	return d
}

// Push adds an item at the bottom of the deque. Owner only. The pointer is
// stored as-is — no boxing, no allocation (amortized; growth reallocates the
// ring).
func (d *Deque[T]) Push(item *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t > a.cap()-1 {
		a = a.grow(b, t, 1)
		d.array.Store(a)
		if c := d.ctr; c != nil {
			c.Grows.Add(1)
		}
		if h := d.growHook; h != nil {
			h(int(a.cap()))
		}
	}
	a.store(b, item)
	d.bottom.Store(b + 1)
	if c := d.ctr; c != nil {
		c.Pushes.Add(1)
		c.noteDepth(b + 1 - t)
	}
}

// PushBatch adds all items at the bottom of the deque with a single bottom
// update and at most one ring growth. Owner only. Thieves observe the whole
// batch at once, so a producer making many tasks ready can publish them with
// one release instead of len(items) individual pushes.
func (d *Deque[T]) PushBatch(items []*T) {
	n := int64(len(items))
	if n == 0 {
		return
	}
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t+n > a.cap() {
		a = a.grow(b, t, n)
		d.array.Store(a)
		if c := d.ctr; c != nil {
			c.Grows.Add(1)
		}
		if h := d.growHook; h != nil {
			h(int(a.cap()))
		}
	}
	for i, item := range items {
		a.store(b+int64(i), item)
	}
	d.bottom.Store(b + n)
	if c := d.ctr; c != nil {
		c.Pushes.Add(uint64(n))
		c.noteDepth(b + n - t)
	}
}

// Pop removes and returns the most recently pushed item. Owner only.
// The second result reports whether an item was obtained.
func (d *Deque[T]) Pop() (*T, bool) {
	b := d.bottom.Load() - 1
	if b >= d.high {
		d.high = b + 1
	}
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore bottom.
		d.bottom.Store(b + 1)
		return nil, false
	}
	item := a.load(b)
	if t == b {
		// Last item: race against thieves via CAS on top.
		if !d.top.CompareAndSwap(t, t+1) {
			// A thief got it first.
			d.bottom.Store(b + 1)
			return nil, false
		}
		d.bottom.Store(b + 1)
		if c := d.ctr; c != nil {
			c.Pops.Add(1)
		}
		return item, true
	}
	if c := d.ctr; c != nil {
		c.Pops.Add(1)
	}
	return item, true
}

// Steal removes and returns the oldest item in the deque. Any goroutine.
// The second result reports whether an item was obtained; contention with
// the owner or another thief yields (nil, false), which callers should
// treat as "retry elsewhere" rather than "empty".
func (d *Deque[T]) Steal() (*T, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	a := d.array.Load()
	item := a.load(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	if c := d.ctr; c != nil {
		c.Steals.Add(1)
	}
	return item, true
}

// MaxStealBatch bounds how many items one StealBatch call can move: half
// of a deep deque is still grabbed in chunks of at most this many, keeping
// a thief's time-to-first-task bounded and its scratch space on the stack.
const MaxStealBatch = 16

// StealQuota is how many items one steal or drain takes from a queue showing
// n: half of it, rounded up, capped at MaxStealBatch, so a deep backlog is
// left for the other thieves it will wake. It is the one definition of the
// half-backlog policy: StealBatch, the executor's injection-queue and
// flow-queue drains and the simulator all size their grab with it.
func StealQuota(n int64) int64 {
	if n <= 0 {
		return 0
	}
	half := (n + 1) / 2
	return min(half, MaxStealBatch)
}

// StealBatch steals up to half of the victim's visible items — capped at
// MaxStealBatch — returning the first for immediate execution and pushing
// the rest onto dst, the thief's own deque, as one batch publication. It
// returns the number of items moved; 0 means the deque looked empty or the
// first grab lost a race, which callers should treat as "retry elsewhere"
// exactly like Steal.
//
// Each item is taken by its own CAS on top, following the single-Steal
// protocol verbatim: a one-CAS half-range grab is unsound under Chase-Lev,
// because the owner pops interior items without touching top (only the
// last-item pop synchronizes through it), so a thief that claimed [t, t+k)
// with one CAS could re-take an item the owner already executed. The batch
// still amortizes what actually costs: one victim selection, one traversal
// of the steal loop, and one deque publication for k tasks instead of k
// full sweeps.
//
// dst must be owned by the calling goroutine and must not be d.
func (d *Deque[T]) StealBatch(dst *Deque[T]) (*T, int) {
	t := d.top.Load()
	b := d.bottom.Load()
	grab := StealQuota(b - t)
	if grab == 0 {
		return nil, 0
	}
	var scratch [MaxStealBatch]*T
	taken := int64(0)
	for taken < grab {
		if taken > 0 {
			// Re-check visibility: the owner may have popped the tail of
			// the range since the first grab.
			if b = d.bottom.Load(); t >= b {
				break
			}
		}
		a := d.array.Load()
		item := a.load(t)
		if !d.top.CompareAndSwap(t, t+1) {
			break
		}
		scratch[taken] = item
		taken++
		t++
	}
	if taken == 0 {
		return nil, 0
	}
	if c := d.ctr; c != nil {
		c.Steals.Add(uint64(taken))
	}
	if taken > 1 {
		dst.PushBatch(scratch[1:taken])
	}
	return scratch[0], int(taken)
}

// Scrub clears the slots of taken items when the deque is empty. Owner only.
// Neither Pop nor Steal clears the slot it takes from, so an idle deque keeps
// every item that passed through it reachable — for a scheduler, the last
// tasks of finished graphs and, through them, the graphs — until the ring
// wraps over the slot. The owner calls Scrub before it goes to sleep. The
// cost is one store per slot used since the last call, at most the ring's
// capacity. A thief still holding an index it read earlier may load a
// cleared slot, but only after top moved past that index, so its CAS fails
// and the nil goes nowhere.
func (d *Deque[T]) Scrub() {
	b := d.bottom.Load()
	if d.top.Load() != b {
		return
	}
	a := d.array.Load()
	lo, hi := d.scrubbed, max(d.high, b)
	if hi-lo > a.cap() {
		lo = hi - a.cap()
	}
	for i := lo; i < hi; i++ {
		a.store(i, nil)
	}
	d.scrubbed, d.high = b, b
}

// Empty reports whether the deque appears empty at this instant.
func (d *Deque[T]) Empty() bool {
	return d.bottom.Load() <= d.top.Load()
}

// Len returns the apparent number of items at this instant. It may be
// transiently negative under owner/thief races; callers use it only as a
// load-balancing hint, so it is clamped at zero.
func (d *Deque[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}
