// Command benchmark is the repository's one-command benchmark: it builds
// each named workload from -seed, warms it, measures it in a closed loop,
// checks every result against a sequential reference and prints every metric
// by name with its unit and sample count. See README.md in this directory.
//
//	go run ./benchmark                                  all workloads, end-to-end metrics
//	go run ./benchmark -trace 1 -workload chain_rerun   per-layer metrics of one workload
//	go run ./benchmark -compare a.jsonl b.jsonl         gate: b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// machine tags every result with the host and build that produced it.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func machineTag(workers int) machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers, GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// record is one line of an -out file: a result with the machine that made it
// and the claim it supports. This benchmark claims no gain.
type record struct {
	Machine machine `json:"machine"`
	Claim   *string `json:"claim"`
	Seconds float64 `json:"seconds"`
	result
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", runSeconds, "measuring time of one workload run")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the benchmark-side spans as Chrome trace JSON to this file")
	out := flag.String("out", "", "append each result as one JSON line to this file")
	quick := flag.Bool("quick", false, "one round of 200 ms per workload: a smoke pass, not a measurement")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if the second is worse")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
	} else if findWorkload(*workload) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	w := workerCount()
	if w < maxWorkers {
		fmt.Printf("# warning: this host has %d CPUs: W = %d, not %d; results compare only with runs at the same W\n", runtime.NumCPU(), w, maxWorkers)
	}
	if w == 1 {
		fmt.Println("# warning: one worker: scaling.efficiency is unresolved on this host")
	}
	runtime.GOMAXPROCS(w)
	tag := machineTag(w)
	fmt.Printf("# machine: cpu=%q nproc=%d gomaxprocs=%d workers=%d go=%s commit=%s\n", tag.CPU, tag.NumCPU, tag.GOMAXPROCS, tag.Workers, tag.GoVersion, tag.Commit)

	pl := plan{window: time.Duration(*seconds / rounds * float64(time.Second)), rounds: rounds, minOps: minPooledOps}
	if *quick {
		pl = plan{window: 200 * time.Millisecond, rounds: 1, quick: true}
	}
	var shared map[string]metric
	var last *result
	failed := false
	for _, name := range names {
		var res *result
		var err error
		if *trace == 1 {
			if len(names) > 1 && shared == nil {
				// The workload-independent probes are measured once per set.
				shared = runProbes(*seed, w, pl.probeTime())
			}
			res, err = runTraced(name, *seed, w, pl, shared, *traceOut)
		} else {
			res, err = runUntraced(name, *seed, w, pl)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		printResult(res)
		if why := ungated[name]; why != "" {
			fmt.Printf("# %s is not in BENCHMARK.json: %s\n", name, why)
		}
		for _, e := range res.errs {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, e)
		}
		failed = failed || !res.Correct
		if *out != "" {
			if err := appendRecord(*out, record{Machine: tag, Seconds: *seconds, result: *res}); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
		last = res
	}
	// The driver reads the last line: the result of the (single) workload.
	if err := printDriverLine(os.Stdout, last); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// maxWorkers is the executor size the workloads are sized for.
const maxWorkers = 4

// workerCount is W = min(nproc, maxWorkers), the size of every executor and
// the value of GOMAXPROCS: the benchmark never oversubscribes the host.
func workerCount() int {
	return min(runtime.NumCPU(), maxWorkers)
}

// printResult prints every metric of the run by name with its unit and
// sample count, in declaration order.
func printResult(res *result) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Printf("# workload %s seed %d (%s): attempted %d failed %d\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Printf("%-22s %-42s %18.6f %-6s n=%d\n", res.Workload, d.Name, m.Value, m.Unit, m.Samples)
			}
		}
	}
}

// printDriverLine prints the one JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func printDriverLine(w io.Writer, res *result) error {
	defs := endToEndDefs
	if res.Trace {
		defs = perLayerDefs
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		line.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("%s: %w", res.Workload, err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
