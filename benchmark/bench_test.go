package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) (manifest, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m, raw
}

// TestManifest checks that BENCHMARK.json is what -manifest prints and that
// it stays inside the limits the driver refuses a file for.
func TestManifest(t *testing.T) {
	m, raw := readManifest(t)
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `-manifest`; regenerate it")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// driverLine is the last line of a run as the driver parses it.
type driverLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func parseDriverLine(t *testing.T, res *result) driverLine {
	t.Helper()
	var buf bytes.Buffer
	if err := printDriverLine(&buf, res); err != nil {
		t.Fatal(err)
	}
	var line driverLine
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	return line
}

// TestQuickPass runs every workload once untraced and once traced with
// short windows and checks that each run reports exactly the metrics
// BENCHMARK.json declares for it, all finite, and that every reference check
// and every Reconcile of a traced snapshot passed (either failure makes the
// run incorrect).
func TestQuickPass(t *testing.T) {
	m, _ := readManifest(t)
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull // the runs print their tables
	defer func() { os.Stdout = stdout; devnull.Close() }()

	workers := workerCount()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	pl := plan{window: 100 * time.Millisecond, rounds: 1, quick: true}
	shared := runProbes(1, workers, pl.probeTime())

	check := func(w string, line driverLine, want []string) {
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", w, len(line.Metrics), len(want))
		}
		for _, n := range want {
			v, ok := line.Metrics[n]
			if !ok {
				t.Errorf("%s: %s not printed", w, n)
			} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w, n, v.Value)
			}
		}
	}
	var e2e, layers []string
	for _, d := range m.EndToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, d := range m.PerLayer {
		layers = append(layers, d.Name)
	}
	for _, w := range workloadDefs {
		res, err := runUntraced(w.Name, 1, workers, pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.errs {
			t.Errorf("%s: %v", w.Name, e)
		}
		line := parseDriverLine(t, res)
		check(w.Name, line, e2e)
		for _, n := range e2e {
			if line.Metrics[n].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, n, line.Metrics[n].Value)
			}
		}

		res, err = runTraced(w.Name, 1, workers, pl, shared, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.errs {
			t.Errorf("%s traced: %v", w.Name, e)
		}
		traced := parseDriverLine(t, res)
		check(w.Name+" traced", traced, layers)

		// The counters tell the workloads apart as designed.
		hits, flowDrains := traced.Metrics["executor.cache_hit_share"].Value, traced.Metrics["executor.flow_drain_share"].Value
		switch w.Name {
		case "chain_rerun":
			if hits < 0.95 {
				t.Errorf("chain_rerun: executor.cache_hit_share = %v, want at least 0.95", hits)
			}
		case "traversal_rerun":
			if hits >= 0.75 {
				t.Errorf("traversal_rerun: executor.cache_hit_share = %v, want under 0.75", hits)
			}
		}
		if (flowDrains > 0) != (w.Name == "tenants_mixed") {
			t.Errorf("%s: executor.flow_drain_share = %v, want more than 0 on tenants_mixed only", w.Name, flowDrains)
		}
	}
}

// TestPooledOps checks that a run adds rounds until op_p99_us rests on the
// ops the plan asks for, traced or not; a measuring plan asks for
// minPooledOps.
func TestPooledOps(t *testing.T) {
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = stdout; devnull.Close() }()

	workers := workerCount()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	// A millisecond window holds a handful of chain runs.
	pl := plan{window: time.Millisecond, rounds: 1, minOps: 40, quick: true}
	res, err := runUntraced("chain_rerun", 1, workers, pl)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics["op_p99_us"].Samples; n < pl.minOps {
		t.Errorf("untraced op_p99_us rests on %d ops, plan asks for %d", n, pl.minOps)
	}
	res, err = runTraced("chain_rerun", 1, workers, pl, map[string]metric{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics["op_p99_us"].Samples; n < pl.minOps {
		t.Errorf("traced op_p99_us rests on %d ops, plan asks for %d", n, pl.minOps)
	}
}

// inputDigest hashes the inputs a workload's set-up generates from seed,
// through the generators the set-ups call.
func inputDigest(name string, seed int64) [sha256.Size]byte {
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
	}
	switch name {
	case "chain_rerun", "chain_rerun_observed":
		put(int64(chainLen), chainStep(seed))
	case "wavefront_dispatch":
		put(int64(wavefrontM)) // the paper's wavefront has no random input
	case "traversal_rerun":
		d := traversalDAG(seed)
		for _, succ := range d.Succ {
			put(int32(len(succ)), succ)
		}
	case "tenants_mixed":
		for _, i := range tenantOrder(seed) {
			put(int64(i))
		}
	case "pipeline_stream":
		for tok := int64(0); tok < pipeTokens; tok++ {
			put(pipeSeed(seed, tok))
		}
	case "sta_incremental":
		tm := newTV80()
		ed := newSTAEditor(tm, seed)
		for i := 0; i < 2*staEdits; i++ {
			for _, s := range ed.edit(tm) {
				put(int64(s))
			}
		}
	default:
		panic("no inputs known for " + name)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadDefs {
		a, b, c := inputDigest(w.Name, 7), inputDigest(w.Name, 7), inputDigest(w.Name, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs twice", w.Name)
		}
		if a == c && w.Name != "wavefront_dispatch" {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	rep := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	flat := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	key := func(metric string) [2]string { return [2]string{"chain_rerun", metric} }
	a := map[[2]string][]float64{
		key("tasks_per_s"):     rep(100),
		key("op_p50_us"):       rep(100),
		key("cpu_ns_per_task"): rep(100),
		key("setup_s"):         {50, 100, 150, 100, 100},
		key("op_p99_us"):       rep(100),
		key("allocs_per_op"):   flat(0),
		key("bytes_per_op"):    flat(0),
		key("fail_share"):      flat(0),
	}
	b := map[[2]string][]float64{
		key("tasks_per_s"):     rep(50),  // higher is better: worse
		key("op_p50_us"):       rep(50),  // lower is better: better
		key("cpu_ns_per_task"): rep(101), // within the bound: same
		key("setup_s"):         {50, 100, 150, 100, 100},
		key("op_p99_us"):       rep(115),    // a tenth is allowed
		key("allocs_per_op"):   flat(1),     // half an allocation is allowed
		key("bytes_per_op"):    flat(48),    // 64 B are allowed
		key("fail_share"):      flat(0.001), // nothing is allowed
	}
	var out bytes.Buffer
	if !compareValues(&out, a, b) {
		t.Error("halved throughput not reported as worse")
	}
	for metric, verdict := range map[string]string{
		"tasks_per_s": "worse", "op_p50_us": "better", "cpu_ns_per_task": "same", "setup_s": "unresolved",
		"op_p99_us": "worse", "allocs_per_op": "worse", "bytes_per_op": "same", "fail_share": "worse",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %s, want %s", metric, f[len(f)-1], verdict)
				}
			}
		}
		if !found {
			t.Errorf("%s: no row", metric)
		}
	}
	for _, metric := range []string{"tasks_per_s", "op_p99_us", "allocs_per_op", "fail_share"} {
		delete(b, key(metric))
	}
	if compareValues(io.Discard, a, b) {
		t.Error("worse reported without a worse row")
	}
}
