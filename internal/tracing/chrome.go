package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gotaskflow/internal/executor"
)

// chromeEvent is the trace-event wire format used for the full event
// stream: "X" complete spans, "i" instants, "s"/"f" flow arrows and "M"
// metadata. Perfetto and chrome://tracing both accept the object form
// {"traceEvents": [...]}.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since capture epoch
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant scope ("t")
	BP   string         `json:"bp,omitempty"` // flow binding point ("e")
	ID   uint64         `json:"id,omitempty"` // flow arrow id
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"otherData,omitempty"`
}

// tidOf maps a trace worker index to a Chrome thread id. Workers keep
// their index; the external ring (executor.ExternalWorker) renders as one
// extra thread after the workers.
func tidOf(worker int32, workers int) int {
	if worker == executor.ExternalWorker {
		return workers
	}
	return int(worker)
}

func usec(ts interface{ Nanoseconds() int64 }) float64 {
	return float64(ts.Nanoseconds()) / 1e3
}

// span is one matched task execution reconstructed from an
// EvTaskStart/EvTaskEnd pair on a single worker.
type span struct {
	start, end float64
	tid        int
	meta       executor.TaskMeta
}

// WriteTrace renders a captured executor.Trace as Chrome trace-event JSON:
//
//   - one named "X" span per task execution (EvTaskStart/EvTaskEnd pair),
//     on the worker thread that ran it;
//   - one "i" instant (thread scope) per scheduler lifecycle event —
//     steal, park/unpark, wake, injection traffic, retry, skip/cancel,
//     subflow spawn/join — named by EventKind.String();
//   - an "s"→"f" flow arrow per dependency release (EvDepRelease),
//     drawn from inside the finishing task's span to the start of the
//     span it released, so Perfetto renders the graph's actual edges
//     (and hence the critical path) across worker timelines;
//   - "M" metadata naming the process and per-worker threads.
//
// The output is the {"traceEvents": [...]} object form; save it as .json
// and open it at https://ui.perfetto.dev (or chrome://tracing).
func WriteTrace(w io.Writer, tr executor.Trace) error {
	workers := tr.Workers
	out := make([]chromeEvent, 0, len(tr.Events)+workers+2)

	// Process/thread naming metadata.
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "gotaskflow"},
	})
	for i := 0; i < workers; i++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", i)},
		})
	}
	out = append(out, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 0, Tid: workers,
		Args: map[string]any{"name": "external"},
	})

	// Pair starts with ends per worker. A worker executes one task at a
	// time and its ring preserves program order, so the next EvTaskEnd on
	// a worker closes that worker's open EvTaskStart. Unclosed starts
	// (capture stopped mid-task) are dropped.
	open := map[int32]executor.TraceEvent{}
	var spans []span
	spansByID := map[uint64][]int{} // task ID -> indices into spans
	for _, ev := range tr.Events {
		switch ev.Kind {
		case executor.EvTaskStart:
			open[ev.Worker] = ev
		case executor.EvTaskEnd:
			st, ok := open[ev.Worker]
			if !ok {
				continue
			}
			delete(open, ev.Worker)
			spans = append(spans, span{
				start: usec(st.Ts),
				end:   usec(ev.Ts),
				tid:   tidOf(ev.Worker, workers),
				meta:  st.Meta,
			})
			if id := st.Meta.ID; id != 0 {
				spansByID[id] = append(spansByID[id], len(spans)-1)
			}
		}
	}
	for _, ids := range spansByID {
		sort.Slice(ids, func(i, j int) bool { return spans[ids[i]].start < spans[ids[j]].start })
	}

	for _, sp := range spans {
		args := map[string]any{}
		if sp.meta.Flow != "" {
			args["taskflow"] = sp.meta.Flow
		}
		if sp.meta.Gen != 0 {
			args["gen"] = sp.meta.Gen
		}
		out = append(out, chromeEvent{
			Name: spanName(sp.meta),
			Cat:  "task",
			Ph:   "X",
			Ts:   sp.start,
			Dur:  sp.end - sp.start,
			Pid:  0,
			Tid:  sp.tid,
			Args: args,
		})
	}

	// Scheduler instants and dependency flow arrows.
	var flowID uint64
	for _, ev := range tr.Events {
		switch ev.Kind {
		case executor.EvTaskStart, executor.EvTaskEnd:
			continue
		case executor.EvDepRelease:
			// The release happens inside the finishing task's span,
			// strictly before the released task can start; bind the arrow
			// to the first span of the released ID at or after the
			// release instant.
			dst, ok := firstSpanAtOrAfter(spans, spansByID[ev.Arg], usec(ev.Ts))
			if !ok {
				continue
			}
			flowID++
			out = append(out,
				chromeEvent{
					Name: "dep", Cat: "dep", Ph: "s",
					Ts: usec(ev.Ts), Pid: 0,
					Tid: tidOf(ev.Worker, workers),
					ID:  flowID,
					Args: map[string]any{
						"from": spanName(ev.Meta),
						"to":   spanName(spans[dst].meta),
					},
				},
				chromeEvent{
					Name: "dep", Cat: "dep", Ph: "f", BP: "e",
					Ts: spans[dst].start, Pid: 0,
					Tid: spans[dst].tid,
					ID:  flowID,
				},
			)
		default:
			args := map[string]any{"arg": ev.Arg}
			switch ev.Kind {
			case executor.EvInjectPush, executor.EvInjectDrain:
				// The packed arg carries the queue's trace id and the count
				// (see executor.InjectArgQueue); decode so Perfetto shows
				// which queue a push landed on and which queue a drain
				// emptied: 0 for injection, 0x80 and up for flows.
				args["arg"] = executor.InjectArgCount(ev.Arg)
				args["queue"] = executor.InjectArgQueue(ev.Arg)
			case executor.EvPark, executor.EvUnpark:
				// The arg is the worker's eventcount park-cycle epoch:
				// matching epochs pair a park with the unpark that resolved
				// it.
				args["epoch"] = ev.Arg
			}
			if ev.Meta.ID != 0 || ev.Meta.Name != "" {
				args["task"] = spanName(ev.Meta)
			}
			if ev.Meta.Flow != "" {
				args["taskflow"] = ev.Meta.Flow
			}
			out = append(out, chromeEvent{
				Name: ev.Kind.String(),
				Cat:  "sched",
				Ph:   "i",
				Ts:   usec(ev.Ts),
				Pid:  0,
				Tid:  tidOf(ev.Worker, workers),
				S:    "t",
				Args: args,
			})
		}
	}

	// droppedEvents and totalEvents are always present so dump validators
	// (testutil.TraceDoc.Flight) can check the accounting: a wrapped flight
	// ring legitimately reports large drop counts, and their absence is
	// indistinguishable from zero otherwise.
	doc := chromeTrace{TraceEvents: out, Metadata: map[string]any{
		"droppedEvents": tr.Dropped,
		"totalEvents":   len(tr.Events),
	}}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// firstSpanAtOrAfter returns the index (into spans) of the first candidate
// span starting at or after ts. Candidates are pre-sorted by start time.
func firstSpanAtOrAfter(spans []span, candidates []int, ts float64) (int, bool) {
	i := sort.Search(len(candidates), func(i int) bool {
		return spans[candidates[i]].start >= ts
	})
	if i == len(candidates) {
		return 0, false
	}
	return candidates[i], true
}
