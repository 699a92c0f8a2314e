package executor

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// stubHost is a QueueHost that only counts publications.
type stubHost struct {
	published atomic.Int64
	stopped   bool
}

func (h *stubHost) Stopped() bool             { return h.stopped }
func (h *stubHost) Published(_ *Queue, n int) { h.published.Add(int64(n)) }

// The injection queue must be FIFO: interleaved submissions and batch takes
// yield tasks in exact submission order, and every submission is published
// to the host once.
func TestInjectionFIFO(t *testing.T) {
	host := &stubHost{}
	q := NewInjection(host)
	tasks := make([]*Runnable, 500)
	for i := range tasks {
		tasks[i] = NewTask(func(Context) {})
	}
	dst := make([]*Runnable, 7)
	pushed, popped := 0, 0
	for popped < len(tasks) {
		for k := 0; k < 3 && pushed < len(tasks); k++ {
			if err := q.SubmitBatch(tasks[pushed : pushed+1]); err != nil {
				t.Fatal(err)
			}
			pushed++
		}
		n := q.Take(dst)
		for i := 0; i < n; i++ {
			if dst[i] != tasks[popped] {
				t.Fatalf("take %d returned task %p, want %p (FIFO violated)", popped, dst[i], tasks[popped])
			}
			popped++
		}
	}
	if got := host.published.Load(); got != int64(len(tasks)) {
		t.Fatalf("host saw %d published tasks, want %d", got, len(tasks))
	}
	st := q.Stats()
	if err := CheckQueueLaws("injection", []QueueStats{st}, st.Drains, uint64(len(tasks))); err != nil {
		t.Fatal(err)
	}
	host.stopped = true
	if err := q.Submit(tasks[0]); err != ErrShutdown {
		t.Fatalf("Submit on a stopped host = %v, want ErrShutdown", err)
	}
}

// A Take with no room — a flow drained between FlowWalk.Next and Take sizes
// dst by a quota of 0 — must not touch the lock.
func TestQueueTakeEmptyDstSkipsLock(t *testing.T) {
	q := NewInjection(&stubHost{})
	q.mu.Lock()
	defer q.mu.Unlock()
	done := make(chan int)
	go func() {
		var dst [1]*Runnable
		done <- q.Take(dst[:0])
	}()
	select {
	case k := <-done:
		if k != 0 {
			t.Fatalf("Take into an empty dst moved %d tasks", k)
		}
	case <-time.After(time.Second):
		t.Fatal("Take into an empty dst blocked on the queue's lock")
	}
}

// While producers push and consumers drain, every Stats reading is one
// consistent cut: Drains <= DrainedTasks <= Pushes. At the end the queue laws
// hold against the consumers' own counts.
func TestQueueStatsConcurrent(t *testing.T) {
	const producers, consumers, perProducer = 2, 2, 2000
	q := NewInjection(&stubHost{})
	r := NewTask(func(Context) {})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := []*Runnable{r, r, r}
			for sent := 0; sent < perProducer; {
				n := min(1+(sent+p)%3, perProducer-sent)
				if err := q.SubmitBatch(batch[:n]); err != nil {
					t.Error(err)
					return
				}
				sent += n
			}
		}(p)
	}
	var drains, drained atomic.Uint64
	var consumersWG sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consumersWG.Add(1)
		go func() {
			defer consumersWG.Done()
			var dst [4]*Runnable
			for drained.Load() < producers*perProducer {
				if k := q.Take(dst[:]); k > 0 {
					drains.Add(1)
					drained.Add(uint64(k))
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			st := q.Stats()
			if st.Drains > st.DrainedTasks || st.DrainedTasks > st.Pushes {
				t.Errorf("inconsistent Stats: drains %d, drained tasks %d, pushes %d",
					st.Drains, st.DrainedTasks, st.Pushes)
				return
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	consumersWG.Wait()
	close(stop)
	<-readerDone
	if err := CheckQueueLaws("queue", []QueueStats{q.Stats()}, drains.Load(), drained.Load()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueLayout pins the queue's line layout: the lock, the ring and the
// drain count (what a push or a drain writes under the lock) in the first
// 64-byte line, the published length on a line of its own, and the whole
// struct a whole number of lines, so the admission state a FlowQueue keeps
// after its Queue starts a line of its own.
func TestQueueLayout(t *testing.T) {
	const line = 64
	var q Queue
	length := unsafe.Offsetof(q.len)
	if length%line != 0 {
		t.Errorf("len at %d does not start a line", length)
	}
	typ := reflect.TypeOf(&q).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		end := f.Offset + f.Type.Size()
		switch f.Name {
		case "mu", "ring", "drains":
			if end > line {
				t.Errorf("field %s [%d,%d) leaves the first line", f.Name, f.Offset, end)
			}
		case "len", "_":
		default:
			if f.Offset < length+line && end > length {
				t.Errorf("field %s [%d,%d) shares len's line at %d", f.Name, f.Offset, end, length)
			}
		}
	}
	if size := unsafe.Sizeof(q); size%line != 0 {
		t.Errorf("Queue is %d bytes, not a whole number of %d-byte lines", size, line)
	}
}
