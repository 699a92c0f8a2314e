package testutil

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// ev renders one trace event with the five required fields and extra.
func ev(extra string) string {
	return `{"name":"n","ph":"M","ts":0,"pid":0,"tid":0` + extra + `}`
}

func doc(events ...string) []byte {
	return []byte(`{"traceEvents":[` + strings.Join(events, ",") + `],"otherData":{"droppedEvents":0,"totalEvents":9}}`)
}

// TestParseTraceMalformed feeds ParseTrace the documents the smoke binary
// it replaces panicked on (a wrong-typed name, ts or id behind an unchecked
// type assertion) and the ones it rejected: each comes back as an
// ErrMalformed naming the event and the field, never as a panic.
func TestParseTraceMalformed(t *testing.T) {
	sched := func(name, rest string) string {
		return `{"name":` + name + `,"ph":"i","cat":"sched","s":"t","ts":1,"pid":0,"tid":0` + rest + `}`
	}
	for _, tc := range []struct{ name, raw, want string }{
		{"not JSON", `{"traceEvents":[`, "not trace-event JSON"},
		{"events not an array", `{"traceEvents":{"a":1}}`, "not trace-event JSON"},
		{"no events", `{"traceEvents":[]}`, "empty traceEvents"},
		{"missing tid", string(doc(`{"name":"n","ph":"M","ts":0,"pid":0}`)), `event 0: malformed: field "tid" is <nil>`},
		{"numeric name", string(doc(ev(""), sched(`7`, ""))), `event 1: malformed: field "name" is float64`},
		{"string ts", string(doc(`{"name":"n","ph":"i","s":"t","ts":"soon","pid":0,"tid":0}`)), `field "ts" is string (soon), want float64`},
		{"string flow id", string(doc(ev(""), ev(""), `{"name":"dep","ph":"s","id":"x","ts":0,"pid":0,"tid":0}`)), `event 2: malformed: field "id" is string`},
		{"flow finish without id", string(doc(`{"name":"dep","ph":"f","bp":"e","ts":0,"pid":0,"tid":0}`)), `field "id" is <nil>`},
		{"flow finish without bp", string(doc(`{"name":"dep","ph":"f","id":1,"ts":0,"pid":0,"tid":0}`)), "flow finish without bp=e"},
		{"unfinished arrow", string(doc(`{"name":"dep","ph":"s","id":3,"ts":0,"pid":0,"tid":0}`)), "flow arrow 3 has +1 more starts"},
		{"negative span", string(doc(`{"name":"a","ph":"X","cat":"task","dur":-1,"ts":0,"pid":0,"tid":0}`)), "negative duration"},
		{"process-scoped instant", string(doc(`{"name":"steal","ph":"i","cat":"sched","s":"p","ts":0,"pid":0,"tid":0}`)), "without thread scope"},
		{"steal_batch without args", string(doc(sched(`"steal_batch"`, ""))), `field "args" is <nil>`},
		{"steal_batch of one", string(doc(sched(`"steal_batch"`, `,"args":{"arg":1}`))), "steal_batch with args.arg = 1, want a number >= 2"},
		{"inject_push without queue", string(doc(sched(`"inject_push"`, `,"args":{"arg":1}`))), "inject_push with args.queue = <nil>"},
		{"inject_drain of nothing", string(doc(sched(`"inject_drain"`, `,"args":{"arg":0,"queue":0}`))), "inject_drain with args.arg = 0, want a number >= 1"},
		{"park with string epoch", string(doc(sched(`"park"`, `,"args":{"epoch":"3"}`))), "park with args.epoch = 3, want a number"},
		{"unpark with args of the wrong type", string(doc(sched(`"unpark"`, `,"args":[1]`))), `field "args" is []interface {}`},
	} {
		d, err := ParseTrace([]byte(tc.raw))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseTrace = %+v, %v; want ErrMalformed mentioning %q", tc.name, d, err, tc.want)
		}
	}
}

// TestTraceDocCaptureAndFlight pins what the two follow-up checks add to a
// structurally sound document.
func TestTraceDocCaptureAndFlight(t *testing.T) {
	span := `{"name":"a","ph":"X","cat":"task","dur":2,"ts":1,"pid":0,"tid":0}`
	arrow := `{"name":"dep","ph":"s","id":1,"ts":2,"pid":0,"tid":0},{"name":"dep","ph":"f","bp":"e","id":1,"ts":3,"pid":0,"tid":1}`
	instant := func(name string, ts string) string {
		return `{"name":"` + name + `","ph":"i","cat":"sched","s":"t","ts":` + ts + `,"pid":0,"tid":0,"args":{"arg":0}}`
	}
	good := doc(ev(""), span, arrow, instant("steal", "4"), instant("wake_precise", "5"))
	d, err := ParseTrace(good)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spans != 1 || d.Arrows != 1 || len(d.Instants) != 2 || d.Instants["steal"] != 1 {
		t.Fatalf("counted %d spans, %d arrows, instants %v", d.Spans, d.Arrows, d.Instants)
	}
	if err := d.Capture(); err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if err := d.Flight(); err != nil {
		t.Fatalf("Flight: %v", err)
	}

	meta := func(other string, events ...string) []byte {
		return []byte(`{"traceEvents":[` + strings.Join(events, ",") + `],"otherData":` + other + `}`)
	}
	for _, tc := range []struct {
		name    string
		raw     []byte
		capture string // "" = Capture passes
		flight  string // "" = Flight passes
	}{
		{"one kind of instant", doc(span, arrow, instant("steal", "4")), "two kinds of instant", ""},
		{"no arrows", doc(span, instant("steal", "4"), instant("wake_precise", "5")), "0 flow arrows", ""},
		{"no spans", doc(instant("steal", "4"), instant("wake_precise", "5")), "0 task spans", ""},
		{"instants out of order", doc(span, arrow, instant("steal", "5"), instant("wake_precise", "4")), "", "out of timestamp order"},
		{"no instants", doc(span, arrow), "two kinds of instant", "no scheduler instants"},
		{"no metadata", meta(`{}`, instant("steal", "4")), "0 task spans", "lacks numeric droppedEvents and totalEvents"},
		{"string totalEvents", meta(`{"droppedEvents":0,"totalEvents":"9"}`, instant("steal", "4")), "0 task spans", "lacks numeric"},
		{"negative droppedEvents", meta(`{"droppedEvents":-1,"totalEvents":9}`, instant("steal", "4")), "0 task spans", "negative droppedEvents"},
		{"total below the rendered events", meta(`{"droppedEvents":0,"totalEvents":2}`, span, arrow, instant("steal", "4")), "two kinds of instant", "cannot account for 1 task spans and 1 flow arrows (need >= 3)"},
	} {
		d, err := ParseTrace(tc.raw)
		if err != nil {
			t.Errorf("%s: ParseTrace: %v", tc.name, err)
			continue
		}
		for what, check := range map[string]struct {
			err  error
			want string
		}{"Capture": {d.Capture(), tc.capture}, "Flight": {d.Flight(), tc.flight}} {
			if (check.err == nil) != (check.want == "") || check.err != nil && !strings.Contains(check.err.Error(), check.want) {
				t.Errorf("%s: %s = %v, want %q", tc.name, what, check.err, check.want)
			}
		}
	}
}

// TestPromQuantile: the quantile read back from cumulative buckets, and a
// named error — not an index panic — for the malformed expositions the
// parser it replaces sliced blindly (an le label with no closing quote, a
// histogram with only its +Inf line).
func TestPromQuantile(t *testing.T) {
	const prefix = `lat_bucket{flow="a"`
	text := strings.Join([]string{
		`# TYPE lat histogram`,
		`lat_bucket{flow="b",le="1e-06"} 1000`,
		prefix + `,le="2.56e-07"} 0`,
		prefix + `,le="1e-06"} 50`,
		prefix + `,le="0.001"} 99`,
		prefix + `,le="1"} 100`,
		prefix + `,le="+Inf"} 100`,
		`lat_count{flow="a"} 100`,
	}, "\n")
	for q, want := range map[float64]time.Duration{
		0.5: time.Microsecond, 0.51: time.Millisecond, 0.99: time.Millisecond, 0.995: time.Second, 1: time.Second,
	} {
		if got, err := PromQuantile(text, prefix, q); err != nil || got != want {
			t.Errorf("PromQuantile(q=%v) = %v, %v; want %v", q, got, err, want)
		}
	}
	overflow := prefix + `,le="1e-06"} 1` + "\n" + prefix + `,le="+Inf"} 100`
	if got, err := PromQuantile(overflow, prefix, 0.99); err != nil || got != time.Microsecond {
		t.Errorf("overflow-bucket quantile = %v, %v; want the largest finite bound", got, err)
	}

	for _, tc := range []struct{ name, text, want string }{
		{"no matching series", text, "want finite buckets, then a +Inf bucket with samples: []"},
		{"only +Inf", prefix + `,le="+Inf"} 7`, "want finite buckets, then a +Inf bucket with samples: [{+Inf 7}]"},
		{"no +Inf", prefix + `,le="1"} 7`, "want finite buckets"},
		{"+Inf not last", prefix + `,le="+Inf"} 7` + "\n" + prefix + `,le="1"} 7`, "want finite buckets"},
		{"no samples", prefix + `,le="1"} 0` + "\n" + prefix + `,le="+Inf"} 0`, "[{1 0} {+Inf 0}]"},
		{"no le label", prefix + `} 7`, "no quoted le label"},
		{"unterminated le", prefix + `,le="0.5} 7`, "no quoted le label"},
		{"le not a number", prefix + `,le="fast"} 7`, "le is not a number"},
		{"no count", prefix + `,le="1"}`, "no bucket count"},
		{"negative count", prefix + `,le="1"} -3`, "no bucket count"},
	} {
		p := prefix
		if tc.name == "no matching series" {
			p = `absent_bucket{`
		}
		got, err := PromQuantile(tc.text, p, 0.99)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: PromQuantile = %v, %v; want ErrMalformed mentioning %q", tc.name, got, err, tc.want)
		}
	}
}
