package wsq

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// ints returns stable pointers to the values 0..n-1, the way a scheduler
// owns stable pre-built task objects.
// capacity returns the current capacity of d's backing ring.
func capacity[T any](d *Deque[T]) int { return int(d.array.Load().cap()) }

func ints(n int) []*int {
	backing := make([]int, n)
	ptrs := make([]*int, n)
	for i := range backing {
		backing[i] = i
		ptrs[i] = &backing[i]
	}
	return ptrs
}

func TestPushPopLIFO(t *testing.T) {
	d := New[int](4)
	items := ints(100)
	for _, p := range items {
		d.Push(p)
	}
	for i := 99; i >= 0; i-- {
		v, ok := d.Pop()
		if !ok {
			t.Fatalf("Pop() empty at i=%d", i)
		}
		if v != items[i] {
			t.Fatalf("Pop() = %v, want item %d", v, i)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop() on empty deque returned ok")
	}
}

func TestStealFIFO(t *testing.T) {
	d := New[int](4)
	items := ints(100)
	for _, p := range items {
		d.Push(p)
	}
	for i := 0; i < 100; i++ {
		v, ok := d.Steal()
		if !ok {
			t.Fatalf("Steal() empty at i=%d", i)
		}
		if v != items[i] {
			t.Fatalf("Steal() = %v, want item %d", v, i)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("Steal() on empty deque returned ok")
	}
}

func TestPushBatchOrder(t *testing.T) {
	d := New[int](4)
	items := ints(100)
	d.Push(items[0])
	d.PushBatch(items[1:50])
	d.PushBatch(nil) // no-op
	d.PushBatch(items[50:])
	// Steal sees the oldest first, across batch boundaries.
	for i := 0; i < 100; i++ {
		v, ok := d.Steal()
		if !ok || v != items[i] {
			t.Fatalf("Steal() after PushBatch = (%v,%v), want item %d", v, ok, i)
		}
	}
}

func TestPushBatchPopLIFO(t *testing.T) {
	d := New[int](4)
	items := ints(64)
	d.PushBatch(items)
	for i := 63; i >= 0; i-- {
		v, ok := d.Pop()
		if !ok || v != items[i] {
			t.Fatalf("Pop() after PushBatch = (%v,%v), want item %d", v, ok, i)
		}
	}
}

func TestPushBatchGrowsOnce(t *testing.T) {
	d := New[int](1) // capacity 64
	items := ints(1000)
	d.PushBatch(items)
	if d.Len() != 1000 {
		t.Fatalf("Len() = %d, want 1000", d.Len())
	}
	if capacity(d) < 1000 {
		t.Fatalf("capacity = %d, want >= 1000", capacity(d))
	}
	for i := 0; i < 1000; i++ {
		v, ok := d.Steal()
		if !ok || v != items[i] {
			t.Fatalf("Steal() = (%v,%v), want item %d", v, ok, i)
		}
	}
}

func TestEmptyAndLen(t *testing.T) {
	d := New[string](1)
	if !d.Empty() {
		t.Fatal("new deque not Empty()")
	}
	if d.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", d.Len())
	}
	a, b := "a", "b"
	d.Push(&a)
	d.Push(&b)
	if d.Empty() {
		t.Fatal("deque with items reports Empty()")
	}
	if d.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", d.Len())
	}
	d.Pop()
	d.Pop()
	if !d.Empty() {
		t.Fatal("drained deque not Empty()")
	}
}

func TestGrowth(t *testing.T) {
	d := New[int](1)
	start := capacity(d)
	n := start * 8
	items := ints(n)
	for _, p := range items {
		d.Push(p)
	}
	if capacity(d) < n {
		t.Fatalf("capacity = %d after %d pushes, want >= %d", capacity(d), n, n)
	}
	// Items must survive growth, oldest first when stolen.
	for i := 0; i < n; i++ {
		v, ok := d.Steal()
		if !ok || v != items[i] {
			t.Fatalf("Steal() after growth = (%v,%v), want item %d", v, ok, i)
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	d := New[int](4)
	items := ints(500)
	next := 0
	expect := []*int{}
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			d.Push(items[next])
			expect = append(expect, items[next])
			next++
		}
		for i := 0; i < round%3; i++ {
			if len(expect) == 0 {
				break
			}
			v, ok := d.Pop()
			if !ok {
				t.Fatalf("round %d: unexpected empty", round)
			}
			want := expect[len(expect)-1]
			expect = expect[:len(expect)-1]
			if v != want {
				t.Fatalf("round %d: Pop() = %v, want %v", round, v, want)
			}
		}
	}
}

// Property: pushing any sequence and popping it all returns the reverse.
func TestQuickPopReversesPush(t *testing.T) {
	f := func(xs []int64) bool {
		d := New[int64](2)
		for i := range xs {
			d.Push(&xs[i])
		}
		for i := len(xs) - 1; i >= 0; i-- {
			v, ok := d.Pop()
			if !ok || v != &xs[i] {
				return false
			}
		}
		_, ok := d.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any split between owner pops and thief steals consumes each
// pushed item exactly once and fully drains the deque.
func TestQuickMixedConsumption(t *testing.T) {
	f := func(xs []uint16, popFirst bool) bool {
		d := New[uint16](2)
		for i := range xs {
			d.Push(&xs[i])
		}
		remaining := len(xs)
		for remaining > 0 {
			if popFirst {
				if _, ok := d.Pop(); ok {
					remaining--
				}
			} else {
				if _, ok := d.Steal(); ok {
					remaining--
				}
			}
			popFirst = !popFirst
		}
		_, okP := d.Pop()
		_, okS := d.Steal()
		return !okP && !okS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Concurrent stress: one owner pushes N items and pops opportunistically,
// several thieves steal; every item must be consumed exactly once.
func TestConcurrentStealExactlyOnce(t *testing.T) {
	const n = 100000
	const thieves = 4
	d := New[int](64)
	items := ints(n)
	var consumed [n]atomic.Int32
	var total atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					consumed[*v].Add(1)
					total.Add(1)
				}
				select {
				case <-stop:
					// Drain whatever is left before exiting.
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						consumed[*v].Add(1)
						total.Add(1)
					}
				default:
				}
			}
		}()
	}

	// Owner: push all items, interleaving pops.
	for i := 0; i < n; i++ {
		d.Push(items[i])
		if i%3 == 0 {
			if v, ok := d.Pop(); ok {
				consumed[*v].Add(1)
				total.Add(1)
			}
		}
	}
	// Owner drains its own remainder.
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		consumed[*v].Add(1)
		total.Add(1)
	}
	close(stop)
	wg.Wait()
	// One final drain in case a thief CAS-failed the owner's last pop.
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		consumed[*v].Add(1)
		total.Add(1)
	}

	if got := total.Load(); got != n {
		t.Fatalf("consumed %d items, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("item %d consumed %d times", i, c)
		}
	}
}

// Concurrent stress targeting the batch-publish path: the owner publishes
// work in batches of varying size (interleaving pops) while thieves hammer
// Steal. Every item must still be consumed exactly once. Run with -race to
// check the PushBatch publication ordering.
func TestConcurrentPushBatchSteal(t *testing.T) {
	const n = 100000
	const thieves = 4
	d := New[int](64)
	items := ints(n)
	var consumed [n]atomic.Int32
	var total atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					consumed[*v].Add(1)
					total.Add(1)
				}
				select {
				case <-stop:
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						consumed[*v].Add(1)
						total.Add(1)
					}
				default:
				}
			}
		}()
	}

	// Owner: publish in batches of 1..17 items, popping a few in between.
	for beg := 0; beg < n; {
		size := beg%17 + 1
		if beg+size > n {
			size = n - beg
		}
		d.PushBatch(items[beg : beg+size])
		beg += size
		if beg%5 == 0 {
			if v, ok := d.Pop(); ok {
				consumed[*v].Add(1)
				total.Add(1)
			}
		}
	}
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		consumed[*v].Add(1)
		total.Add(1)
	}
	close(stop)
	wg.Wait()
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		consumed[*v].Add(1)
		total.Add(1)
	}

	if got := total.Load(); got != n {
		t.Fatalf("consumed %d items, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("item %d consumed %d times", i, c)
		}
	}
}

func TestConcurrentStealOnlyExactlyOnce(t *testing.T) {
	const n = 50000
	const thieves = 3
	d := New[int](64)
	items := ints(n)
	for i := 0; i < n; i++ {
		d.Push(items[i])
	}
	var consumed [n]atomic.Int32
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			misses := 0
			for misses < 1000 {
				if v, ok := d.Steal(); ok {
					consumed[*v].Add(1)
					total.Add(1)
					misses = 0
				} else {
					misses++
				}
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != n {
		t.Fatalf("consumed %d items, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("item %d consumed %d times", i, c)
		}
	}
}

func TestStealBatchHalf(t *testing.T) {
	d := New[int](4)
	dst := New[int](4)
	items := ints(8)
	for _, p := range items {
		d.Push(p)
	}
	first, k := d.StealBatch(dst)
	if k != 4 {
		t.Fatalf("StealBatch moved %d items from 8, want 4 (half)", k)
	}
	if first != items[0] {
		t.Fatalf("StealBatch first = %v, want oldest item 0", first)
	}
	if d.Len() != 4 || dst.Len() != 3 {
		t.Fatalf("after StealBatch victim Len=%d dst Len=%d, want 4 and 3", d.Len(), dst.Len())
	}
	// The extras land on dst in victim FIFO order, so dst steals (and the
	// thief's own pops, newest-last) see items 1, 2, 3.
	for i := 1; i <= 3; i++ {
		v, ok := dst.Steal()
		if !ok || v != items[i] {
			t.Fatalf("dst.Steal() = (%v,%v), want item %d", v, ok, i)
		}
	}
	// The victim keeps its own tail, oldest-first from item 4.
	for i := 4; i < 8; i++ {
		v, ok := d.Steal()
		if !ok || v != items[i] {
			t.Fatalf("victim Steal() = (%v,%v), want item %d", v, ok, i)
		}
	}
}

func TestStealBatchSingleItem(t *testing.T) {
	d := New[int](4)
	dst := New[int](4)
	items := ints(1)
	d.Push(items[0])
	first, k := d.StealBatch(dst)
	if k != 1 || first != items[0] {
		t.Fatalf("StealBatch on 1-item deque = (%v,%d), want (item 0, 1)", first, k)
	}
	if !dst.Empty() {
		t.Fatal("dst received items from a single-item batch")
	}
	if !d.Empty() {
		t.Fatal("victim not empty after its only item was stolen")
	}
}

func TestStealBatchEmpty(t *testing.T) {
	d := New[int](4)
	dst := New[int](4)
	if first, k := d.StealBatch(dst); first != nil || k != 0 {
		t.Fatalf("StealBatch on empty deque = (%v,%d), want (nil,0)", first, k)
	}
}

func TestStealBatchCap(t *testing.T) {
	d := New[int](4)
	dst := New[int](4)
	n := MaxStealBatch * 4
	items := ints(n)
	for _, p := range items {
		d.Push(p)
	}
	_, k := d.StealBatch(dst)
	if k != MaxStealBatch {
		t.Fatalf("StealBatch moved %d items from %d, want cap %d", k, n, MaxStealBatch)
	}
	if d.Len() != n-MaxStealBatch {
		t.Fatalf("victim Len = %d, want %d", d.Len(), n-MaxStealBatch)
	}
}

func TestStealBatchOddCount(t *testing.T) {
	// ceil(n/2): 5 visible items yield a 3-item batch.
	d := New[int](4)
	dst := New[int](4)
	for _, p := range ints(5) {
		d.Push(p)
	}
	if _, k := d.StealBatch(dst); k != 3 {
		t.Fatalf("StealBatch moved %d items from 5, want 3", k)
	}
}

func TestStealBatchCounters(t *testing.T) {
	d := New[int](4)
	dst := New[int](4)
	var vc, tc Counters
	d.SetCounters(&vc)
	dst.SetCounters(&tc)
	for _, p := range ints(8) {
		d.Push(p)
	}
	_, k := d.StealBatch(dst)
	if k != 4 {
		t.Fatalf("StealBatch moved %d, want 4", k)
	}
	// All taken items count as steals on the victim; the re-pushed extras
	// count as pushes on the thief, keeping Pushes == Pops + Steals exact
	// per deque once both drain.
	if got := vc.Steals.Load(); got != 4 {
		t.Fatalf("victim Steals = %d, want 4", got)
	}
	if got := tc.Pushes.Load(); got != 3 {
		t.Fatalf("thief Pushes = %d, want 3", got)
	}
	for !dst.Empty() {
		dst.Pop()
	}
	for !d.Empty() {
		d.Pop()
	}
	if vc.Pushes.Load() != vc.Pops.Load()+vc.Steals.Load() {
		t.Fatalf("victim conservation law broken: pushes=%d pops=%d steals=%d",
			vc.Pushes.Load(), vc.Pops.Load(), vc.Steals.Load())
	}
	if tc.Pushes.Load() != tc.Pops.Load()+tc.Steals.Load() {
		t.Fatalf("thief conservation law broken: pushes=%d pops=%d steals=%d",
			tc.Pushes.Load(), tc.Pops.Load(), tc.Steals.Load())
	}
}

// Concurrent stress: thieves use StealBatch into private deques they then
// drain as owners; every item must be consumed exactly once.
func TestConcurrentStealBatchExactlyOnce(t *testing.T) {
	const n = 100000
	const thieves = 4
	d := New[int](64)
	items := ints(n)
	var consumed [n]atomic.Int32
	var total atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := New[int](64)
			drain := func() {
				for {
					v, ok := mine.Pop()
					if !ok {
						return
					}
					consumed[*v].Add(1)
					total.Add(1)
				}
			}
			for {
				if v, k := d.StealBatch(mine); k > 0 {
					consumed[*v].Add(1)
					total.Add(1)
					drain()
				}
				select {
				case <-stop:
					for {
						v, k := d.StealBatch(mine)
						if k == 0 {
							drain()
							return
						}
						consumed[*v].Add(1)
						total.Add(1)
						drain()
					}
				default:
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		d.Push(items[i])
		if i%3 == 0 {
			if v, ok := d.Pop(); ok {
				consumed[*v].Add(1)
				total.Add(1)
			}
		}
	}
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		consumed[*v].Add(1)
		total.Add(1)
	}
	close(stop)
	wg.Wait()
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		consumed[*v].Add(1)
		total.Add(1)
	}

	if got := total.Load(); got != n {
		t.Fatalf("consumed %d items, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("item %d consumed %d times", i, c)
		}
	}
}

// The StealBatch scratch buffer must stay on the thief's stack: moving a
// batch allocates nothing beyond (amortized) dst ring growth.
func TestStealBatchAllocBound(t *testing.T) {
	d := New[int](1024)
	dst := New[int](1024) // pre-sized: no growth during the measured runs
	items := ints(32)
	allocs := testing.AllocsPerRun(1000, func() {
		d.PushBatch(items)
		for {
			_, k := d.StealBatch(dst)
			if k == 0 {
				break
			}
		}
		for {
			if _, ok := dst.Pop(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("StealBatch allocates %v objects per op, want 0", allocs)
	}
}

func TestNewRingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newRing with non-power-of-two capacity did not panic")
		}
	}()
	newRing[int](3)
}

// Steady-state Push/Pop must not allocate: the deque stores the caller's
// pointer directly, with no boxing layer.
func TestPushPopZeroAlloc(t *testing.T) {
	d := New[int](1024)
	item := new(int)
	allocs := testing.AllocsPerRun(1000, func() {
		d.Push(item)
		d.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Push+Pop allocates %v objects per op, want 0", allocs)
	}
}

func BenchmarkPushPop(b *testing.B) {
	d := New[int](1024)
	item := new(int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(item)
		d.Pop()
	}
}

func BenchmarkPushSteal(b *testing.B) {
	d := New[int](1024)
	item := new(int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(item)
		d.Steal()
	}
}

func BenchmarkPushBatchSteal(b *testing.B) {
	d := New[int](1024)
	items := ints(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushBatch(items)
		for j := 0; j < 16; j++ {
			d.Steal()
		}
	}
}

func TestGrowHook(t *testing.T) {
	d := New[int](1) // capacity 64
	var caps []int
	d.SetGrowHook(func(newCap int) { caps = append(caps, newCap) })

	items := ints(65) // one past capacity: exactly one growth via Push
	for _, it := range items[:64] {
		d.Push(it)
	}
	if len(caps) != 0 {
		t.Fatalf("hook fired %d times before any growth", len(caps))
	}
	d.Push(items[64])
	if len(caps) != 1 || caps[0] != 128 {
		t.Fatalf("after Push growth caps = %v, want [128]", caps)
	}

	// Batch growth fires once with the final capacity.
	d.PushBatch(ints(1000))
	if len(caps) != 2 || caps[1] < 1065 {
		t.Fatalf("after PushBatch growth caps = %v, want one more entry >= 1065", caps)
	}
	if caps[1] != capacity(d) {
		t.Fatalf("hook reported %d, capacity = %d", caps[1], capacity(d))
	}

	d.SetGrowHook(nil) // detaching stops callbacks
	for capacity(d) < 8192 {
		d.PushBatch(ints(int(capacity(d))))
	}
	if len(caps) != 2 {
		t.Fatalf("detached hook still fired: %v", caps)
	}
}

// heldSlots counts the ring slots that still hold a pointer.
func heldSlots[T any](d *Deque[T]) int {
	held := 0
	a := d.array.Load()
	for i := range a.buf {
		if a.buf[i].Load() != nil {
			held++
		}
	}
	return held
}

// Scrub leaves a non-empty deque alone, clears every slot of an emptied one
// — those popped from above the point where it went empty, those stolen from
// below it, and a range longer than the ring — and costs later items nothing.
func TestScrubClearsTakenSlots(t *testing.T) {
	d := New[int](64)
	items := ints(300)
	for _, p := range items[:10] {
		d.Push(p)
	}
	d.Scrub()
	if got := heldSlots(d); got != 10 {
		t.Fatalf("Scrub of a deque holding 10 items left %d slots set", got)
	}
	for i := 0; i < 4; i++ {
		if _, ok := d.Steal(); !ok {
			t.Fatal("Steal failed")
		}
	}
	for i := 0; i < 6; i++ {
		if _, ok := d.Pop(); !ok {
			t.Fatal("Pop failed")
		}
	}
	if got := heldSlots(d); got != 10 {
		t.Fatalf("%d slots set after draining 10 items, want 10: nothing but Scrub clears a slot", got)
	}
	d.Scrub()
	if got := heldSlots(d); got != 0 {
		t.Fatalf("Scrub of the emptied deque left %d slots set", got)
	}
	// Several times round the 64-slot ring without it ever holding more than
	// one item, then empty again.
	for _, p := range items {
		d.Push(p)
		if v, ok := d.Steal(); !ok || v != p {
			t.Fatalf("Steal after Scrub = (%v, %v), want (%v, true)", v, ok, p)
		}
	}
	if capacity(d) != 64 {
		t.Fatalf("ring grew to %d", capacity(d))
	}
	d.Scrub()
	if got := heldSlots(d); got != 0 {
		t.Fatalf("Scrub after %d items through a 64-slot ring left %d slots set", len(items), got)
	}
	d.PushBatch(items[:3])
	d.Scrub()
	for i := 2; i >= 0; i-- {
		if v, ok := d.Pop(); !ok || v != items[i] {
			t.Fatalf("Pop = (%v, %v), want item %d", v, ok, i)
		}
	}
}

// TestStealQuota pins the one definition of the half-backlog steal policy:
// half of what the queue shows, rounded up, never more than MaxStealBatch,
// nothing from a queue that shows nothing (or a transiently negative length).
func TestStealQuota(t *testing.T) {
	for _, c := range []struct{ n, want int64 }{
		{-3, 0}, {0, 0}, {1, 1}, {2, 1}, {3, 2},
		{31, 16}, {32, 16}, {33, 16}, {1 << 40, MaxStealBatch},
	} {
		if got := StealQuota(c.n); got != c.want {
			t.Errorf("StealQuota(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
