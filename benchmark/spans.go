package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Names are "<layer>.<call>"; parent indexes the enclosing span (-1 for
// the op itself) and op numbers the op the span belongs to.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         int64
}

// tracer keeps spans of the op goroutine in a preallocated slice; a nil
// tracer records nothing, so untraced runs share the workloads' code.
type tracer struct {
	epoch   time.Time
	spans   []span
	cur     int32
	op      int64
	dropped int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

// begin opens a span under the current one and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: t.cur, op: t.op})
	t.cur = i
	return i
}

// beginOp opens the root span of op number op.
func (t *tracer) beginOp(op int64) int32 {
	if t == nil {
		return -1
	}
	t.op = op
	return t.begin("bench.op")
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.cur = t.spans[i].parent
}

// selfTime is one row of the self-time table: a span name's call count,
// total duration, and duration not covered by child spans.
type selfTime struct {
	name        string
	count       int64
	total, self int64
}

func (t *tracer) selfTimes() []selfTime {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	byName := map[string]*selfTime{}
	for i, s := range t.spans {
		r := byName[s.name]
		if r == nil {
			r = &selfTime{name: s.name}
			byName[s.name] = r
		}
		r.count++
		r.total += s.end - s.start
		r.self += self[i]
	}
	rows := make([]selfTime, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	slices.SortFunc(rows, func(a, b selfTime) int { return cmp.Compare(b.self, a.self) })
	return rows
}

// writeChrome writes the spans as Chrome trace JSON (complete events, µs).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, i, s.parent)
	}
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
