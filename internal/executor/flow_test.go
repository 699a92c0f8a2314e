package executor

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNormalizeFlowConfig pins the clamping rules every flow table applies
// at registration.
func TestNormalizeFlowConfig(t *testing.T) {
	cases := []struct {
		in, want FlowConfig
	}{
		{FlowConfig{}, FlowConfig{Class: Interactive, Weight: 1}},
		{FlowConfig{Class: PriorityClass(99), Weight: -5}, FlowConfig{Class: Background, Weight: 1}},
		{FlowConfig{Class: Batch, Weight: 1000}, FlowConfig{Class: Batch, Weight: maxFlowWeight}},
		{FlowConfig{MaxInFlight: -3, MaxBacklog: -1}, FlowConfig{Class: Interactive, Weight: 1}},
		{FlowConfig{Class: Background, Weight: 2, MaxInFlight: 7, MaxBacklog: 9},
			FlowConfig{Class: Background, Weight: 2, MaxInFlight: 7, MaxBacklog: 9}},
	}
	for i, c := range cases {
		if got := normalizeFlowConfig(c.in); got != c.want {
			t.Errorf("case %d: normalizeFlowConfig(%+v) = %+v, want %+v", i, c.in, got, c.want)
		}
	}
}

// TestFlowPriorityDrainOrder pins the strict class order deterministically:
// with the single worker blocked, a Background backlog queued before an
// Interactive one must still be drained after it.
func TestFlowPriorityDrainOrder(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	bg := e.NewFlow("bg", FlowConfig{Class: Background})
	ia := e.NewFlow("ia", FlowConfig{Class: Interactive})

	started := make(chan struct{})
	release := make(chan struct{})
	e.Submit(NewTask(func(Context) { close(started); <-release }))
	<-started

	const perFlow = 20
	var mu sync.Mutex
	var order []string
	done := make(chan struct{})
	var left int32 = 2 * perFlow
	record := func(class string) *Runnable {
		return NewTask(func(Context) {
			mu.Lock()
			order = append(order, class)
			mu.Unlock()
			if atomic.AddInt32(&left, -1) == 0 {
				close(done)
			}
		})
	}
	// Background enqueued first: arrival order must not beat class order.
	for i := 0; i < perFlow; i++ {
		if err := bg.Submit(record("bg")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perFlow; i++ {
		if err := ia.Submit(record("ia")); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	<-done

	for i, c := range order[:perFlow] {
		if c != "ia" {
			t.Fatalf("position %d drained %q before the interactive backlog finished\norder: %v", i, c, order)
		}
	}
	if st := ia.Stats(); st.DrainedTasks != perFlow {
		t.Fatalf("interactive flow drained %d tasks, want %d", st.DrainedTasks, perFlow)
	}
}

// TestFlowAdmissionErrors pins the refusal order and error identities:
// the backlog watermark is checked before the quota (a shed charges
// nothing and must not count as a quota rejection), and each refusal
// increments exactly its own counter.
func TestFlowAdmissionErrors(t *testing.T) {
	e := New(1)
	defer e.Shutdown()

	started := make(chan struct{})
	release := make(chan struct{})
	e.Submit(NewTask(func(Context) { close(started); <-release }))
	<-started

	f := e.NewFlow("f", FlowConfig{MaxInFlight: 2, MaxBacklog: 1})
	if err := f.Admit(3); !errors.Is(err, ErrAdmission) {
		t.Fatalf("Admit over quota = %v, want ErrAdmission", err)
	}
	if err := f.Admit(2); err != nil {
		t.Fatalf("Admit within quota = %v", err)
	}
	var ran atomic.Int64
	if err := f.Submit(NewTask(func(Context) { ran.Add(1); f.Release(1) })); err != nil {
		t.Fatal(err)
	}
	// Backlog now sits at the watermark: even a request that would also
	// bust the quota must shed, not reject — shed-before-quota means
	// there is nothing to undo.
	if err := f.Admit(5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Admit over watermark = %v, want ErrOverloaded", err)
	}
	st := f.Stats()
	if st.AdmissionRejects != 3 || st.OverloadSheds != 5 {
		t.Fatalf("rejects/sheds = %d/%d, want 3/5", st.AdmissionRejects, st.OverloadSheds)
	}
	if st.InFlight != 2 || st.AdmittedTasks != 2 {
		t.Fatalf("in-flight/admitted = %d/%d, want 2/2", st.InFlight, st.AdmittedTasks)
	}

	close(release)
	waitCounter(t, &ran, 1)
	f.Release(1)
	st = f.Stats()
	if st.InFlight != 0 || st.ReleasedTasks != 2 {
		t.Fatalf("after release: in-flight %d released %d, want 0/2", st.InFlight, st.ReleasedTasks)
	}
}

// TestFlowQuotaConcurrentAdmit storms one quota from many goroutines and
// asserts the CAS loop never over-admits: the live gauge never exceeds
// the quota, the peak watermark agrees, and every reservation is
// returned.
func TestFlowQuotaConcurrentAdmit(t *testing.T) {
	e := New(2)
	defer e.Shutdown()
	const quota = 8
	f := e.NewFlow("q", FlowConfig{MaxInFlight: quota})

	// Phase 1: 16 goroutines race exactly one Admit from a barrier and
	// hold the reservation — at most quota can win, so at least
	// 16−quota rejections are guaranteed, not probabilistic. Every holder
	// has released before phase 2 reads the gauge (done).
	var admitted, rejected atomic.Int64
	var start, held, done sync.WaitGroup
	finish := make(chan struct{})
	start.Add(1)
	for g := 0; g < 16; g++ {
		held.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			switch err := f.Admit(1); {
			case err == nil:
				admitted.Add(1)
				held.Done()
				<-finish
				f.Release(1)
			case errors.Is(err, ErrAdmission):
				rejected.Add(1)
				held.Done()
			default:
				t.Errorf("Admit: %v", err)
				held.Done()
			}
		}()
	}
	start.Done()
	held.Wait()
	if a := admitted.Load(); a > quota {
		t.Fatalf("%d concurrent admissions held against quota %d", a, quota)
	}
	if r := rejected.Load(); r < 16-quota {
		t.Fatalf("%d rejections, want at least %d", rejected.Load(), 16-quota)
	}
	close(finish)
	done.Wait()

	// Phase 2: a churning storm — the live gauge must never exceed the
	// quota and every reservation must come back.
	var live atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := f.Admit(1); err != nil {
					if !errors.Is(err, ErrAdmission) {
						t.Errorf("Admit: %v", err)
						return
					}
					continue
				}
				if cur := live.Add(1); cur > quota {
					t.Errorf("live admissions %d exceed quota %d", cur, quota)
				}
				live.Add(-1)
				f.Release(1)
			}
		}()
	}
	wg.Wait()

	st := f.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after storm, want 0", st.InFlight)
	}
	if st.AdmittedTasks != st.ReleasedTasks {
		t.Fatalf("admitted %d != released %d", st.AdmittedTasks, st.ReleasedTasks)
	}
	if st.PeakInFlight > quota {
		t.Fatalf("peak in-flight %d exceeds quota %d", st.PeakInFlight, quota)
	}
	if st.AdmissionRejects == 0 {
		t.Fatal("storm produced no quota rejections — quota never under pressure")
	}
}

// TestFlowAdmitReleaseZeroAlloc: the admission hot path is pure atomics.
func TestFlowAdmitReleaseZeroAlloc(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	f := e.NewFlow("z", FlowConfig{MaxInFlight: 4})
	allocs := testing.AllocsPerRun(1000, func() {
		if err := f.Admit(2); err != nil {
			t.Fatal(err)
		}
		f.Release(2)
	})
	if allocs != 0 {
		t.Fatalf("Admit/Release allocates %v objects/op, want 0", allocs)
	}
}

// TestFlowSubmitAllocBound: a steady-state submit→drain round trip
// through a flow queue reuses the ring and the intrusive reference —
// no per-task allocation once warm (metrics and tracing disabled).
func TestFlowSubmitAllocBound(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	f := e.NewFlow("s", FlowConfig{Class: Batch})
	var n atomic.Int64
	task := newIntrusive(func(Context, *intrusiveTask) { n.Add(1) })
	var want int64
	run := func() {
		want++
		if err := f.Submit(&task.self); err != nil {
			t.Fatal(err)
		}
		waitCounter(t, &n, want)
	}
	run() // warm: ring growth, worker park state
	run()
	allocs := testing.AllocsPerRun(100, run)
	if allocs > 0.5 {
		t.Fatalf("flow submit round trip allocates %v objects/op, want 0", allocs)
	}
}

// TestFlowTraceIDsDistinct: every flow keeps a trace id of its own past the
// first 128 registrations, and a traced submission on a late flow carries
// that id and its batch size through the packed injection arg.
func TestFlowTraceIDsDistinct(t *testing.T) {
	e := New(1, WithTracing(1024))
	defer e.Shutdown()
	flows := make([]*FlowQueue, 300)
	seen := make(map[int]int, len(flows))
	for i := range flows {
		flows[i] = e.NewFlow("f", FlowConfig{Class: Batch})
		id := flows[i].TraceID()
		if j, dup := seen[id]; dup {
			t.Fatalf("flows %d and %d share trace id %#x", j, i, id)
		}
		seen[id] = i
	}

	var n atomic.Int64
	body := func(Context) { n.Add(1) }
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	if err := flows[200].SubmitBatch([]*Runnable{NewTask(body), NewTask(body), NewTask(body)}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &n, 3)
	tr, _ := e.StopTrace()
	for _, ev := range tr.Events {
		if ev.Kind != EvInjectPush {
			continue
		}
		if id, count := InjectArgQueue(ev.Arg), InjectArgCount(ev.Arg); id != flowTraceBase+200 || count != 3 {
			t.Fatalf("push on flow 200 decodes to id %#x count %d, want %#x and 3", id, count, flowTraceBase+200)
		}
		return
	}
	t.Fatal("no inject_push event in the capture")
}
