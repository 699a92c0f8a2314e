package testutil

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ErrMalformed is wrapped by every error ParseTrace and PromQuantile
// return for input that is not what the exporters write: the text after it
// names the event and field at fault.
var ErrMalformed = errors.New("malformed")

// TraceDoc is an unmarshalled Chrome trace-event document (the output of
// tracing.WriteTrace: a driver's -trace file, /debug/taskflow/trace/stop,
// a flight-recorder dump) plus what ParseTrace counted while checking it.
type TraceDoc struct {
	TraceEvents []map[string]any `json:"traceEvents"`
	OtherData   map[string]any   `json:"otherData"`

	Spans    int            // "X" events of category task
	Arrows   int            // matched "s"/"f" flow-arrow pairs
	Instants map[string]int // scheduler instant name -> count
	sorted   bool           // scheduler instants in non-decreasing ts order
}

// malformed is the error for event i of a trace document.
func malformed(i int, format string, args ...any) error {
	return fmt.Errorf("trace event %d: %w: %s", i, ErrMalformed, fmt.Sprintf(format, args...))
}

// field returns m[key] as a T, or an error naming the field and the type
// found in its place. m is event i, or its args.
func field[T any](i int, m map[string]any, key string) (T, error) {
	v, ok := m[key].(T)
	if !ok {
		return v, malformed(i, "field %q is %T (%v), want %T", key, m[key], m[key], v)
	}
	return v, nil
}

// instantArgs lists, per scheduler instant, the numeric args the exporter
// promises and the least value of each: a steal_batch carries a batch size
// of at least 2 (single steals emit only "steal"), injection traffic the
// queue's trace id and task count unpacked from the wire arg, park/unpark the
// eventcount epoch that pairs a park with the unpark that resolved it.
var instantArgs = map[string]map[string]float64{
	"steal_batch":  {"arg": 2},
	"inject_push":  {"queue": 0, "arg": 1},
	"inject_drain": {"queue": 0, "arg": 1},
	"park":         {"epoch": 0},
	"unpark":       {"epoch": 0},
}

// ParseTrace unmarshals raw and checks the structure every trace document
// shares: the fields Perfetto requires on every event, with the JSON types
// the exporter gives them; non-negative task spans; thread-scoped
// instants; the per-kind args of instantArgs; and every flow arrow started
// exactly as often as it is finished. Follow it with Capture or Flight for
// the promises specific to the document's source.
func ParseTrace(raw []byte) (*TraceDoc, error) {
	doc := &TraceDoc{Instants: map[string]int{}, sorted: true}
	if err := json.Unmarshal(raw, doc); err != nil {
		return nil, fmt.Errorf("trace: %w: not trace-event JSON: %v", ErrMalformed, err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace: %w: empty traceEvents array", ErrMalformed)
	}
	flows := map[float64]int{} // arrow id -> starts minus finishes
	lastInstant := math.Inf(-1)
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph"} {
			if _, err := field[string](i, ev, key); err != nil {
				return nil, err
			}
		}
		for _, key := range []string{"ts", "pid", "tid"} {
			if _, err := field[float64](i, ev, key); err != nil {
				return nil, err
			}
		}
		name, ph, ts := ev["name"].(string), ev["ph"].(string), ev["ts"].(float64)
		switch {
		case ph == "X" && ev["cat"] == "task":
			doc.Spans++
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				return nil, malformed(i, "task span %q with negative duration %v", name, dur)
			}
		case ph == "i" && ev["s"] != "t":
			return nil, malformed(i, "instant %q without thread scope", name)
		case ph == "i" && ev["cat"] == "sched":
			doc.Instants[name]++
			// The exporter renders instants in source-event order; a flight
			// dump's source is the timestamp-sorted merge of every
			// per-worker ring, which Flight holds it to.
			doc.sorted = doc.sorted && ts >= lastInstant
			lastInstant = ts
			if err := checkInstantArgs(i, name, ev); err != nil {
				return nil, err
			}
		case ph == "s" || ph == "f":
			id, err := field[float64](i, ev, "id")
			if err != nil {
				return nil, err
			}
			if ph == "s" {
				doc.Arrows++
				flows[id]++
				continue
			}
			flows[id]--
			if ev["bp"] != "e" {
				return nil, malformed(i, "flow finish without bp=e")
			}
		}
	}
	for id, balance := range flows {
		if balance != 0 {
			return nil, fmt.Errorf("trace: %w: flow arrow %v has %+d more starts than finishes", ErrMalformed, id, balance)
		}
	}
	return doc, nil
}

// checkInstantArgs holds scheduler instant i to its entry in instantArgs.
func checkInstantArgs(i int, name string, ev map[string]any) error {
	for key, min := range instantArgs[name] {
		args, err := field[map[string]any](i, ev, "args")
		if err != nil {
			return err
		}
		if v, err := field[float64](i, args, key); err != nil || v < min {
			return malformed(i, "%s with args.%s = %v, want a number >= %v", name, key, args[key], min)
		}
	}
	return nil
}

// Capture holds doc to the promises of a bracketed capture of a dependent
// task graph: task spans, dependency arrows and at least two kinds of
// scheduler instant are all present.
func (doc *TraceDoc) Capture() error {
	if doc.Spans == 0 || doc.Arrows == 0 || len(doc.Instants) < 2 {
		return fmt.Errorf("capture holds %d task spans, %d flow arrows and scheduler instants %v: want all three, two kinds of instant",
			doc.Spans, doc.Arrows, doc.Instants)
	}
	return nil
}

// Flight holds doc to the promises of a flight-recorder dump. The rings
// are armed continuously and wrap, so a span may have lost its start and
// an arrow its release: no minimums. Instead droppedEvents and totalEvents
// must be present and numeric even when zero, totalEvents must cover every
// rendered event (a span consumed a start/end pair, an arrow one release),
// and the instants must be in timestamp order.
func (doc *TraceDoc) Flight() error {
	dropped, ok := doc.OtherData["droppedEvents"].(float64)
	total, ok2 := doc.OtherData["totalEvents"].(float64)
	if !ok || !ok2 {
		return fmt.Errorf("flight dump: %w: otherData %v lacks numeric droppedEvents and totalEvents", ErrMalformed, doc.OtherData)
	}
	switch min := float64(2*doc.Spans + doc.Arrows); {
	case dropped < 0:
		return fmt.Errorf("flight dump: negative droppedEvents %v", dropped)
	case total < min:
		return fmt.Errorf("flight dump: totalEvents %v cannot account for %d task spans and %d flow arrows (need >= %v)",
			total, doc.Spans, doc.Arrows, min)
	case len(doc.Instants) == 0:
		return fmt.Errorf("flight dump: no scheduler instants: recorder not armed?")
	case !doc.sorted:
		return fmt.Errorf("flight dump: scheduler instants out of timestamp order: merge not sorted")
	}
	return nil
}

// PromQuantile recomputes a quantile from a cumulative histogram in the
// Prometheus text format: over the _bucket lines starting with prefix, the
// smallest upper bound (le, in seconds) whose count reaches q of the +Inf
// total, or the largest finite bound when q lands in the overflow bucket.
func PromQuantile(text, prefix string, q float64) (time.Duration, error) {
	bad := func(line, what string) error {
		return fmt.Errorf("prometheus text: %w: %s in %q", ErrMalformed, what, line)
	}
	type bucket struct {
		le    float64 // upper bound; the exposition ends on +Inf
		count uint64  // cumulative
	}
	var buckets []bucket
	for sc := bufio.NewScanner(strings.NewReader(text)); sc.Scan(); {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		_, rest, ok := strings.Cut(line, `le="`)
		le, rest, closed := strings.Cut(rest, `"`)
		if !ok || !closed {
			return 0, bad(line, "no quoted le label")
		}
		b := bucket{}
		var err error
		if b.le, err = strconv.ParseFloat(le, 64); err != nil {
			return 0, bad(line, "le is not a number")
		}
		if b.count, err = strconv.ParseUint(rest[strings.LastIndex(rest, " ")+1:], 10, 64); err != nil {
			return 0, bad(line, "no bucket count")
		}
		buckets = append(buckets, b)
	}
	finite := len(buckets) - 1
	if finite < 1 || !math.IsInf(buckets[finite].le, 1) || buckets[finite].count == 0 {
		return 0, bad(prefix, fmt.Sprintf("want finite buckets, then a +Inf bucket with samples: %v", buckets))
	}
	rank := uint64(math.Ceil(q * float64(buckets[finite].count)))
	i := 0 // the first bucket reaching the rank, or else the last finite one
	for i < finite-1 && buckets[i].count < rank {
		i++
	}
	return time.Duration(math.Round(buckets[i].le * 1e9)), nil
}
