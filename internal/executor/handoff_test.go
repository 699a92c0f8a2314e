package executor

import "testing"

// describedChain returns n described tasks (IDs 1..n, named by index); task
// i runs body(i), traces its release of task i+1 and continues it, running
// it in its own frame — what a fused chain of internal/core does.
func describedChain(n int, body func(i int)) []*describedTask {
	tasks := make([]*describedTask, n)
	for i := range tasks {
		i := i
		tasks[i] = newDescribedTask(TaskMeta{Name: string(rune('a' + i%26)), ID: uint64(i) + 1}, func(ctx Context) {
			for j := i; ; j++ {
				body(j)
				if j+1 == n {
					return
				}
				ctx.Trace(EvDepRelease, tasks[j], tasks[j+1].meta.ID)
				ctx.Continue(&tasks[j+1].rbox)
			}
		})
	}
	return tasks
}

// spanEvents keeps the task start, end and release events of tr.
func spanEvents(tr Trace) []TraceEvent {
	var out []TraceEvent
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvTaskStart, EvTaskEnd, EvDepRelease:
			out = append(out, ev)
		}
	}
	return out
}

// TestHandOffRecordFoldsOnlyItsOwnRelease: a continuation is one ring record
// that readers expand into the events three writes would have made — the
// release of the continued task when it is what the task before it traced
// last, that task's end and the new start, at one stamp — so the stream is
// unchanged. A release naming another task is written as it is, ahead of
// the record, and not folded into it.
func TestHandOffRecordFoldsOnlyItsOwnRelease(t *testing.T) {
	for _, c := range []struct {
		name     string
		releases uint64 // the ID a's release names; b's is 2
		extra    int64  // events the record stands for beyond itself
	}{
		{"folded", 2, 2},
		{"other", 99, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(1, WithFlightRecorder(0))
			defer e.Shutdown()
			a, b := TaskMeta{Name: "a", ID: 1}, TaskMeta{Name: "b", ID: 2}
			done := make(chan struct{})
			tb := newDescribedTask(b, func(Context) { close(done) })
			var ta *describedTask
			ta = newDescribedTask(a, func(ctx Context) {
				ctx.Trace(EvDepRelease, nil, 7) // about no task: never held
				ctx.Trace(EvDepRelease, ta, c.releases)
				ctx.Continue(&tb.rbox)
				tb.Run(ctx)
			})
			if err := e.Submit(&ta.rbox); err != nil {
				t.Fatal(err)
			}
			<-done
			drain(t, e, 1) // its start publishes b's end
			if got := e.spine.rings[0].extra; got != c.extra {
				t.Fatalf("ring extra count %d, want %d: the hand-off was not one record", got, c.extra)
			}
			fl, _ := e.FlightSnapshot()
			var got []TraceEvent
			for _, ev := range spanEvents(fl) {
				if ev.Meta == a || ev.Meta == b {
					got = append(got, ev)
				}
			}
			want := []struct {
				kind EventKind
				meta TaskMeta
				arg  uint64
			}{
				{EvTaskStart, a, 0},
				{EvDepRelease, a, c.releases},
				{EvTaskEnd, a, 0},
				{EvTaskStart, b, 0},
				{EvTaskEnd, b, 0},
			}
			if len(got) != len(want) {
				t.Fatalf("events %+v, want %d", got, len(want))
			}
			for i, w := range want {
				if ev := got[i]; ev.Kind != w.kind || ev.Meta != w.meta || ev.Arg != w.arg || ev.Worker != 0 {
					t.Fatalf("event %d = %v %+v arg %d, want %v %+v arg %d", i, ev.Kind, ev.Meta, ev.Arg, w.kind, w.meta, w.arg)
				}
			}
			if got[1].Ts != got[2].Ts || got[2].Ts != got[3].Ts {
				t.Fatalf("release %v, end %v and start %v of one hand-off are not one stamp", got[1].Ts, got[2].Ts, got[3].Ts)
			}
		})
	}
}

// TestHandOffWindowOpensOnRecord: a window that opens on a hand-off record
// whose span began before it shows the record's start alone and counts the
// end and release it stood for as dropped, so kept plus dropped is every
// event recorded — for a capture opened inside the span, and for a flight
// window the newest records fill, which also counts every event of the
// records it lost.
func TestHandOffWindowOpensOnRecord(t *testing.T) {
	t.Run("capture", func(t *testing.T) {
		e := New(1, WithFlightRecorder(0), WithTracing(64))
		defer e.Shutdown()
		var capt Trace
		done := make(chan struct{})
		tasks := describedChain(2, func(i int) {
			if i == 0 {
				e.StartTrace()
			} else {
				capt, _ = e.StopTrace()
				close(done)
			}
		})
		if err := e.Submit(&tasks[0].rbox); err != nil {
			t.Fatal(err)
		}
		<-done
		if len(capt.Events) != 1 || capt.Dropped != 2 {
			t.Fatalf("capture kept %+v and dropped %d, want b's start alone and 2", capt.Events, capt.Dropped)
		}
		if ev := capt.Events[0]; ev.Kind != EvTaskStart || ev.Meta != tasks[1].meta {
			t.Fatalf("capture kept %v %+v, want b's start", ev.Kind, ev.Meta)
		}
	})
	t.Run("flight", func(t *testing.T) {
		const links, window = 24, 8
		e := New(1, WithFlightRecorder(window), WithTracing(1<<10))
		defer e.Shutdown()
		waitParked(t, e)
		before, _ := e.FlightSnapshot()
		if before.Dropped != 0 {
			t.Fatalf("dropped %d events of a parked worker", before.Dropped)
		}
		inside, release := make(chan struct{}), make(chan struct{})
		tasks := describedChain(links, func(i int) {
			if i == links-1 {
				close(inside)
				<-release
			}
		})
		e.StartTrace()
		if err := e.Submit(&tasks[0].rbox); err != nil {
			t.Fatal(err)
		}
		<-inside
		capt, _ := e.StopTrace()
		fl, _ := e.FlightSnapshot()
		close(release)
		if capt.Dropped != 0 {
			t.Fatalf("capture dropped %d events", capt.Dropped)
		}
		recorded := uint64(len(before.Events) + len(capt.Events))
		if got := uint64(len(fl.Events)) + fl.Dropped; got != recorded {
			t.Fatalf("flight kept %d + dropped %d = %d, want the %d events recorded", len(fl.Events), fl.Dropped, got, recorded)
		}
		// The newest window records are the last links' hand-offs: the
		// window opens on a start without the end and release before it.
		var first *TraceEvent
		for i := range fl.Events {
			if fl.Events[i].Worker == 0 {
				first = &fl.Events[i]
				break
			}
		}
		if want := tasks[links-window].meta; first == nil || first.Kind != EvTaskStart || first.Meta != want {
			t.Fatalf("flight window opens on %+v, want the start of %+v", first, want)
		}
	})
}

// TestHandOffRecordPublished: a continuation's record is published when it
// is written, so a flight snapshot shows the task stuck in its body —
// TestFlightShowsBlockedTask for a task that started as a continuation.
func TestHandOffRecordPublished(t *testing.T) {
	const links, stuck = 20, 13
	e := New(1, WithFlightRecorder(0))
	defer e.Shutdown()
	inside, release := make(chan struct{}), make(chan struct{})
	tasks := describedChain(links, func(i int) {
		if i == stuck {
			close(inside)
			<-release
		}
	})
	if err := e.Submit(&tasks[0].rbox); err != nil {
		t.Fatal(err)
	}
	<-inside
	fl, _ := e.FlightSnapshot()
	close(release)
	starts, ends := 0, 0
	for _, ev := range fl.Events {
		if ev.Meta == tasks[stuck].meta {
			switch ev.Kind {
			case EvTaskStart:
				starts++
			case EvTaskEnd:
				ends++
			}
		}
	}
	if starts != 1 || ends != 0 {
		t.Fatalf("blocked continuation shows %d starts and %d ends in the flight window, want 1 and 0", starts, ends)
	}
}

// TestHeldReleaseSettles: a release the worker holds back for a hand-off
// record that never comes is still what Settle makes readable, in its
// place: before the end of the task that traced it, at that task's end
// stamp.
func TestHeldReleaseSettles(t *testing.T) {
	e := New(1, WithFlightRecorder(0))
	defer e.Shutdown()
	a := TaskMeta{Name: "a", ID: 1}
	var got []TraceEvent
	var ta *describedTask
	ta = newDescribedTask(a, func(ctx Context) {
		ctx.Trace(EvDepRelease, ta, 5)
		ctx.Settle()
		fl, _ := e.FlightSnapshot()
		got = spanEvents(fl)
	})
	onWorker(t, e, func(ctx Context) {
		ctx.Continue(&ta.rbox)
		ta.Run(ctx)
	})
	if len(got) < 3 {
		t.Fatalf("settled events %+v, want a's start, release and end", got)
	}
	rel, end := got[len(got)-2], got[len(got)-1]
	if rel.Kind != EvDepRelease || rel.Meta != a || rel.Arg != 5 || end.Kind != EvTaskEnd || end.Meta != a || rel.Ts != end.Ts {
		t.Fatalf("settled events end %+v, want a's release of 5 and its end at one stamp", got[len(got)-2:])
	}
}
