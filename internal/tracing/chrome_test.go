package tracing

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedTrace builds a deterministic executor.Trace by hand: two workers
// running a two-task chain (alpha releases beta across workers) with a
// steal, a park/unpark pair and an external injection push. WriteTrace on
// it must be byte-stable, which the golden file pins.
func fixedTrace() executor.Trace {
	ms := func(d int64) time.Duration { return time.Duration(d) * time.Millisecond }
	alpha := executor.TaskMeta{Flow: "golden", Name: "alpha", ID: 1, Idx: 0, Gen: 1}
	beta := executor.TaskMeta{Flow: "golden", Name: "beta", ID: 2, Idx: 1, Gen: 1}
	anon := executor.TaskMeta{}
	return executor.Trace{
		Workers: 2,
		Events: []executor.TraceEvent{
			{Ts: ms(0), Worker: executor.ExternalWorker, Kind: executor.EvInjectPush, Arg: 1, Meta: anon},
			{Ts: ms(1), Worker: 0, Kind: executor.EvUnpark, Meta: anon},
			{Ts: ms(2), Worker: 0, Kind: executor.EvInjectDrain, Meta: anon},
			{Ts: ms(3), Worker: 0, Kind: executor.EvTaskStart, Meta: alpha},
			{Ts: ms(5), Worker: 0, Kind: executor.EvDepRelease, Arg: 2, Meta: alpha},
			{Ts: ms(5), Worker: 0, Kind: executor.EvWakePrecise, Arg: 1, Meta: anon},
			{Ts: ms(6), Worker: 0, Kind: executor.EvTaskEnd, Meta: alpha},
			{Ts: ms(7), Worker: 1, Kind: executor.EvSteal, Arg: 0, Meta: anon},
			{Ts: ms(8), Worker: 1, Kind: executor.EvTaskStart, Meta: beta},
			{Ts: ms(12), Worker: 1, Kind: executor.EvTaskEnd, Meta: beta},
			{Ts: ms(13), Worker: 0, Kind: executor.EvPark, Meta: anon},
		},
	}
}

// TestWriteTraceGolden pins the exporter's exact output for a fixed input
// trace. Regenerate with `go test ./internal/tracing/ -run Golden -update`
// after deliberate format changes.
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, fixedTrace()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter output drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// Round-trip: the golden bytes are valid trace-event JSON.
	var doc map[string]any
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("golden trace lacks a traceEvents array")
	}
}

// exportForRun runs fn under an active capture on e and returns the
// Chrome export, parsed and structurally checked by the shared validator.
func exportForRun(t *testing.T, e *executor.Executor, fn func()) *testutil.TraceDoc {
	t.Helper()
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	fn()
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if tr.Dropped != 0 {
		t.Fatalf("capture dropped %d events; enlarge the test ring", tr.Dropped)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	doc, err := testutil.ParseTrace(buf.Bytes())
	if err == nil {
		err = doc.Capture()
	}
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestWavefrontTraceChromeExport is the acceptance gate for the trace
// pipeline: a named wavefront run exports to valid trace-event JSON with
// named task spans, at least three scheduler event kinds, and flow arrows
// that follow real dependency edges of the grid.
func TestWavefrontTraceChromeExport(t *testing.T) {
	const G = 4
	e := executor.New(4, executor.WithTracing(1<<14))
	defer e.Shutdown()
	tf := core.NewShared(e).SetName("wavefront")

	// G×G wavefront: cell (i,j) precedes (i+1,j) and (i,j+1).
	name := func(i, j int) string {
		return "w_" + string(rune('0'+i)) + "_" + string(rune('0'+j))
	}
	cells := make([][]core.Task, G)
	for i := 0; i < G; i++ {
		cells[i] = make([]core.Task, G)
		for j := 0; j < G; j++ {
			cells[i][j] = tf.Emplace1(func() {}).Name(name(i, j))
		}
	}
	for i := 0; i < G; i++ {
		for j := 0; j < G; j++ {
			if i+1 < G {
				cells[i][j].Precede(cells[i+1][j])
			}
			if j+1 < G {
				cells[i][j].Precede(cells[i][j+1])
			}
		}
	}
	// edges[to][from] marks a real dependency edge of the grid.
	edges := map[string]map[string]bool{}
	for i := 0; i < G; i++ {
		for j := 0; j < G; j++ {
			add := func(ti, tj int) {
				to := name(ti, tj)
				if edges[to] == nil {
					edges[to] = map[string]bool{}
				}
				edges[to][name(i, j)] = true
			}
			if i+1 < G {
				add(i+1, j)
			}
			if j+1 < G {
				add(i, j+1)
			}
		}
	}

	// Let the workers park first: submitting onto an idle pool structurally
	// guarantees inject-push/drain, precise-wake and unpark events.
	time.Sleep(20 * time.Millisecond)
	doc := exportForRun(t, e, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})

	// Named task spans: one "X" per grid cell, carrying the flow name.
	spanCount := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["cat"] == "task" {
			spanCount[ev["name"].(string)]++
			args := ev["args"].(map[string]any)
			if args["taskflow"] != "wavefront" {
				t.Fatalf("span %v lacks taskflow arg", ev)
			}
		}
	}
	for i := 0; i < G; i++ {
		for j := 0; j < G; j++ {
			if spanCount[name(i, j)] != 1 {
				t.Fatalf("cell %s has %d spans, want 1", name(i, j), spanCount[name(i, j)])
			}
		}
	}

	// Scheduler instants: at least three distinct kinds, among them the
	// ones a submission onto a parked pool guarantees — whose queue id, count
	// and epoch args the validator has therefore checked.
	if len(doc.Instants) < 3 {
		t.Fatalf("only %d scheduler event kinds in export: %v", len(doc.Instants), doc.Instants)
	}
	for _, kind := range []string{"inject_push", "inject_drain", "unpark"} {
		if doc.Instants[kind] == 0 {
			t.Fatalf("no %s instant in the export of a run submitted onto a parked pool: %v", kind, doc.Instants)
		}
	}

	// Flow arrows: every non-source cell is released exactly once, along a
	// real grid edge, and every "s" has a matching "f" bound to the
	// released cell's span start.
	starts := map[string]map[string]bool{} // to -> set of from
	finishes := map[float64]bool{}         // flow ids seen at "f"
	startIDs := map[float64]string{}       // flow id -> released cell
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "s":
			args := ev["args"].(map[string]any)
			from := args["from"].(string)
			to := args["to"].(string)
			if !edges[to][from] {
				t.Fatalf("flow arrow %s -> %s is not a grid edge", from, to)
			}
			if starts[to] == nil {
				starts[to] = map[string]bool{}
			}
			starts[to][from] = true
			startIDs[ev["id"].(float64)] = to
		case "f":
			finishes[ev["id"].(float64)] = true
		}
	}
	if len(starts) != G*G-1 {
		t.Fatalf("flow arrows released %d cells, want %d (every non-source cell)", len(starts), G*G-1)
	}
	for id := range startIDs {
		if !finishes[id] {
			t.Fatalf("flow id %v has a start but no finish", id)
		}
	}
}

// TestStealBatchInstantExport pins the export contract testutil.ParseTrace
// enforces: a steal_batch instant is a sched-category thread-scoped "i"
// event whose args.arg carries the batch size (>= 2), emitted alongside
// the plain steal instant for the first task of the batch.
func TestStealBatchInstantExport(t *testing.T) {
	ms := func(d int64) time.Duration { return time.Duration(d) * time.Millisecond }
	anon := executor.TaskMeta{}
	tr := executor.Trace{
		Workers: 2,
		Events: []executor.TraceEvent{
			{Ts: ms(1), Worker: 1, Kind: executor.EvSteal, Arg: 0, Meta: anon},
			{Ts: ms(1), Worker: 1, Kind: executor.EvStealBatch, Arg: 5, Meta: anon},
		},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	doc, err := testutil.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["name"] != "steal_batch" {
			continue
		}
		found = true
		if ev["ph"] != "i" || ev["cat"] != "sched" || ev["s"] != "t" {
			t.Fatalf("steal_batch instant malformed: %v", ev)
		}
		args, ok := ev["args"].(map[string]any)
		if !ok {
			t.Fatalf("steal_batch without args: %v", ev)
		}
		if size, ok := args["arg"].(float64); !ok || size != 5 {
			t.Fatalf("steal_batch args.arg = %v, want 5", args["arg"])
		}
	}
	if !found {
		t.Fatal("no steal_batch instant in export")
	}
}

// TestWriteTraceDroppedMetadata checks the overflow accounting surfaces in
// the export.
func TestWriteTraceDroppedMetadata(t *testing.T) {
	tr := fixedTrace()
	tr.Dropped = 7
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	other, ok := doc["otherData"].(map[string]any)
	if !ok || other["droppedEvents"].(float64) != 7 {
		t.Fatalf("dropped-event count not exported: %v", doc)
	}
}
