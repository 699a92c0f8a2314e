// Pipeline demonstrates the token-throughput pipeline engine as a task of a
// taskflow, the shape of Pipeflow:
//
//	parse → pipeline → report
//
// parse splits a text input into records; the pipeline streams them
//
//	decode (Serial) → transform (data-parallel ForEach) →
//	enrich (Parallel, with token deferral) → fold (Serial)
//
// and report prints what each pipe did once the last token has retired.
// Stage 1 decodes records in order, and a malformed one Fails the run: the
// taskflow is cancelled, no new token starts, report is skipped and Run
// returns the pipe's error. Stage 2 fans each token's block across the
// executor with a guided partitioner and joins before the token advances;
// stage 3 runs tokens concurrently but defers every 16th token until its
// predecessor has completed the stage (a cross-token dependency,
// tf::Pipeflow-style); stage 4 folds in strict token order. The taskflow is
// re-run with RunN: the pipeline's state resets in place.
//
//	go run ./examples/pipeline -tokens 1000 -lines 8 -runs 3 [-malformed 17]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/pipeline"
)

const blockSize = 512 // indexes fanned out per token in the ForEach stage

var stages = []string{"decode", "transform", "enrich", "fold"}

func main() {
	tokens := flag.Int("tokens", 1000, "records to stream per run")
	lines := flag.Int("lines", 8, "pipeline lines (tokens in flight)")
	workers := flag.Int("workers", 0, "executor workers (0 = GOMAXPROCS)")
	runs := flag.Int("runs", 3, "runs of the one pre-built taskflow")
	malformed := flag.Int("malformed", -1, "index of a record to corrupt (-1: none)")
	flag.Parse()

	e := executor.New(*workers)
	defer e.Shutdown()

	// The input: one "id:value" record per line.
	var text strings.Builder
	for i := 0; i < *tokens; i++ {
		if i == *malformed {
			fmt.Fprintf(&text, "%d:not-a-number\n", i)
			continue
		}
		fmt.Fprintf(&text, "%d:%d\n", i, uint64(i)*2654435761+1)
	}

	// Per-line slots carry data between stages, as in tf::Pipeline usage;
	// one block per line for the data-parallel stage.
	var records []string
	decoded := make([]uint64, *lines)
	blocks := make([][]uint64, *lines)
	for i := range blocks {
		blocks[i] = make([]uint64, blockSize)
	}
	enriched := make([]uint64, *lines)
	var folded uint64
	perPipe := make([]atomic.Int64, len(stages)) // invocations per pipe

	p := pipeline.New(e, *lines,
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			if pf.Token() >= int64(len(records)) {
				pf.Stop()
				return
			}
			// Stage 1 (serial): decode the next record in order.
			_, value, _ := strings.Cut(records[pf.Token()], ":")
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				pf.Fail(fmt.Errorf("record %q: %w", records[pf.Token()], err))
				return
			}
			decoded[pf.Line()] = v
			perPipe[pf.Pipe()].Add(1)
		}},
		// Stage 2 (data-parallel): one token's block fans out across the
		// executor; the join barrier holds the token until the whole
		// range is transformed.
		pipeline.ForEach(pipeline.Parallel,
			func(pf *pipeline.Pipeflow) int {
				perPipe[pf.Pipe()].Add(1)
				return blockSize
			},
			32, pipeline.Guided,
			func(pf *pipeline.Pipeflow, begin, end int) {
				b := blocks[pf.Line()]
				seed := decoded[pf.Line()]
				for i := begin; i < end; i++ {
					x := seed + uint64(i)
					for k := 0; k < 40; k++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					b[i] = x
				}
			}),
		pipeline.Pipe{Type: pipeline.Parallel, Fn: func(pf *pipeline.Pipeflow) {
			// Stage 3 (parallel + deferral): every 16th token is a
			// checkpoint that must not complete this stage before the
			// record just ahead of it has. Defer is a no-op when the
			// target already completed; otherwise the token parks after
			// this callable returns and the callable re-runs once the
			// target is done.
			tok := pf.Token()
			if tok%16 == 0 && tok > 0 {
				pf.Defer(tok - 1)
			}
			// Odd records are ~30× heavier here, so light checkpoint
			// tokens overtake them across lines and the Defer above
			// really parks.
			iters := len(blocks[pf.Line()]) * (1 + int(tok%2)*30)
			var sum uint64
			b := blocks[pf.Line()]
			for i := 0; i < iters; i++ {
				sum += b[i%len(b)]
			}
			enriched[pf.Line()] = sum
			perPipe[pf.Pipe()].Add(1)
		}},
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			// Stage 4 (serial): fold results in token order.
			folded = folded*31 + enriched[pf.Line()]
			perPipe[pf.Pipe()].Add(1)
		}},
	).Named("example-stream")

	tf := core.NewShared(e).SetName("example")
	parse := tf.Emplace1(func() {
		records = strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
		folded = 0
		for i := range perPipe {
			perPipe[i].Store(0)
		}
	}).Name("parse")
	report := tf.Emplace1(func() {
		st := p.Stats()
		fmt.Printf("run %d: %d records, ordered fold checksum %#x\n", st.Runs, len(records), folded)
		for i := range perPipe {
			fmt.Printf("  pipe %d (%s): %d invocations\n", i, stages[i], perPipe[i].Load())
		}
	}).Name("report")
	parse.Precede(tf.EmplaceModule(p).Name("stream").Precede(report))

	start := time.Now()
	if err := tf.RunN(*runs); err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	st := p.Stats()
	fmt.Printf("pipeline processed %d tokens (%d runs × %d) over %d lines in %v (%.0f tokens/sec)\n",
		st.Tokens, st.Runs, *tokens, *lines, elapsed, float64(st.Tokens)/elapsed.Seconds())
	fmt.Printf("checkpoint deferrals: %d, per-line tokens: %v\n", st.Deferrals, st.PerLine)
}
