package wsq

// FuzzDeque drives the Chase-Lev deque with a fuzzer-chosen operation
// script, twice per input:
//
//  1. sequentially against a model queue — Push appends, Pop must return
//     the newest item (LIFO bottom), Steal the oldest (FIFO top), and
//     StealBatch a ceil(half)-capped prefix of the oldest items in order,
//     with Len agreeing throughout, and a Scrub after every op whose byte
//     has bit 4 set: it must change nothing the model sees, and must leave
//     no pointer in any slot when it finds the deque empty; and
//  2. concurrently, the owner replaying the same script against 0-3
//     stealer goroutines — half of them using StealBatch into private
//     deques they drain as owners, the owner scrubbing on the same bytes —
//     every pushed item must be consumed exactly once, by either the owner
//     or a thief.
//
// Both phases check the counter conservation law at quiescence:
// Pushes == Pops + Steals (with StealBatch counting every item it moved as
// a steal on the victim). The committed corpus lives under
// testdata/fuzz/FuzzDeque; CI runs a -fuzztime smoke on top of the corpus
// replay that plain `go test` performs.

import (
	"sync"
	"sync/atomic"
	"testing"
)

func FuzzDeque(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 2, 0, 1})          // push/pop/steal mix, 2 thieves
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // push-only growth, 0 thieves
	f.Add([]byte{3, 1, 2, 1, 2, 0, 1, 2})          // ops on an often-empty deque
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 3, 1, 3}) // batch steals off a deep deque
	// Scrubs (bit 4) of a deque empty and not, across a ring growth.
	f.Add([]byte{3, 0, 0, 0, 17, 18, 17, 0, 0, 16, 17, 17, 19, 0, 18, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		stealers := int(data[0] % 4)
		script := data[1:]
		if len(script) > 512 {
			script = script[:512]
		}
		fuzzSequentialModel(t, script)
		fuzzConcurrentExactlyOnce(t, stealers, script)
	})
}

// scrubBit marks the script bytes after whose op the owner calls Scrub.
const scrubBit = 16

// fuzzSequentialModel replays the script single-threaded against a slice
// model of the deque.
func fuzzSequentialModel(t *testing.T, script []byte) {
	d := New[int](2) // tiny capacity so growth paths get exercised
	var c Counters
	d.SetCounters(&c)
	dst := New[int](2) // StealBatch target, drained after every batch
	var model []int
	next, pushed, consumed := 0, uint64(0), uint64(0)
	for _, b := range script {
		switch b % 4 {
		case 0:
			v := new(int)
			*v = next
			next++
			d.Push(v)
			model = append(model, *v)
			pushed++
		case 1:
			got, ok := d.Pop()
			if len(model) == 0 {
				if ok {
					t.Fatalf("Pop returned %d from an empty deque", *got)
				}
				continue
			}
			want := model[len(model)-1]
			if !ok || *got != want {
				t.Fatalf("Pop = (%v, %v), want (%d, true)", got, ok, want)
			}
			model = model[:len(model)-1]
			consumed++
		case 2:
			got, ok := d.Steal()
			if len(model) == 0 {
				if ok {
					t.Fatalf("Steal returned %d from an empty deque", *got)
				}
				continue
			}
			want := model[0]
			if !ok || *got != want {
				t.Fatalf("Steal = (%v, %v), want (%d, true)", got, ok, want)
			}
			model = model[1:]
			consumed++
		case 3:
			// With no concurrency the batch must take exactly
			// min(ceil(len/2), MaxStealBatch) items: the oldest first as the
			// return value, the rest onto dst in victim order.
			first, k := d.StealBatch(dst)
			if len(model) == 0 {
				if k != 0 {
					t.Fatalf("StealBatch took %d items from an empty deque", k)
				}
				continue
			}
			want := (len(model) + 1) / 2
			if want > MaxStealBatch {
				want = MaxStealBatch
			}
			if k != want {
				t.Fatalf("StealBatch took %d of %d items, want %d", k, len(model), want)
			}
			if *first != model[0] {
				t.Fatalf("StealBatch first = %d, want oldest %d", *first, model[0])
			}
			for i := 1; i < k; i++ {
				got, ok := dst.Steal()
				if !ok || *got != model[i] {
					t.Fatalf("dst item %d = (%v, %v), want (%d, true)", i, got, ok, model[i])
				}
			}
			if !dst.Empty() {
				t.Fatalf("dst kept items beyond the %d-item batch", k)
			}
			model = model[k:]
			consumed += uint64(k)
		}
		if b&scrubBit != 0 {
			d.Scrub()
			if held := heldSlots(d); len(model) == 0 && held != 0 {
				t.Fatalf("%d slots still hold an item after Scrub of an empty deque", held)
			}
		}
		if d.Len() != len(model) {
			t.Fatalf("Len = %d, model has %d", d.Len(), len(model))
		}
	}
	if got := c.Pushes.Load(); got != pushed {
		t.Fatalf("Pushes = %d, want %d", got, pushed)
	}
	if got := c.Pops.Load() + c.Steals.Load(); got != consumed {
		t.Fatalf("Pops+Steals = %d, want %d", got, consumed)
	}
}

// fuzzConcurrentExactlyOnce replays the script's pushes from the owner
// (popping on some bytes) while stealer goroutines drain concurrently —
// even-numbered thieves batch-steal into a private deque they own — then
// asserts exactly-once consumption and counter conservation.
func fuzzConcurrentExactlyOnce(t *testing.T, stealers int, script []byte) {
	d := New[int](2)
	var c Counters
	d.SetCounters(&c)
	n := len(script)
	items := make([]int, n)
	seen := make([]atomic.Int32, n)
	consume := func(p *int, ok bool) {
		if ok {
			seen[*p].Add(1)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for th := 0; th < stealers; th++ {
		wg.Add(1)
		go func(batch bool) {
			defer wg.Done()
			mine := New[int](2)
			drain := func() {
				for {
					p, ok := mine.Pop()
					if !ok {
						return
					}
					consume(p, ok)
				}
			}
			for {
				var ok bool
				if batch {
					p, k := d.StealBatch(mine)
					ok = k > 0
					if ok {
						consume(p, true)
						drain()
					}
				} else {
					var p *int
					p, ok = d.Steal()
					consume(p, ok)
				}
				if !ok {
					select {
					case <-stop:
						if d.Empty() {
							drain()
							return
						}
					default:
					}
				}
			}
		}(th%2 == 0)
	}
	for i, b := range script {
		items[i] = i
		d.Push(&items[i])
		if b%4 == 3 {
			consume(d.Pop())
		}
		if b&scrubBit != 0 {
			d.Scrub() // a no-op unless the thieves have just emptied the deque
		}
	}
	// Owner drains what the thieves have not taken, then releases them.
	for {
		p, ok := d.Pop()
		if !ok {
			if d.Empty() {
				break
			}
			continue // lost the last-item race to a thief mid-flight
		}
		consume(p, ok)
	}
	close(stop)
	wg.Wait()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("item %d consumed %d times, want exactly once", i, got)
		}
	}
	if got := c.Pushes.Load(); got != uint64(n) {
		t.Fatalf("Pushes = %d, want %d", got, n)
	}
	if got := c.Pops.Load() + c.Steals.Load(); got != uint64(n) {
		t.Fatalf("Pops %d + Steals %d = %d, want %d",
			c.Pops.Load(), c.Steals.Load(), got, n)
	}
}
