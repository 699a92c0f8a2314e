package bench

import (
	"strings"
	"testing"
	"time"
)

func TestMeasurePositive(t *testing.T) {
	d := Measure(func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Fatalf("Measure = %v, want >= 1ms", d)
	}
}

func TestBestTakesMinimum(t *testing.T) {
	n := 0
	d := Best(3, func() {
		n++
		time.Sleep(time.Duration(n) * time.Millisecond)
	})
	if n != 3 {
		t.Fatalf("Best ran fn %d times, want 3", n)
	}
	if d >= 2*time.Millisecond+500*time.Microsecond {
		t.Fatalf("Best = %v, want roughly the 1ms first run", d)
	}
}

func TestBestClampsReps(t *testing.T) {
	n := 0
	Best(0, func() { n++ })
	if n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Figure X: demo", "size", "taskflow_ms", "tbb_ms")
	tb.Row(100, 3*time.Millisecond, 1500*time.Microsecond)
	tb.Row(200, 1.5, "x")
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# Figure X: demo", "size", "taskflow_ms", "3.00", "1.50", "1.500", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestTableEmpty(t *testing.T) {
	tb := NewTable("", "a", "b")
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "a") {
		t.Fatalf("empty-title table output: %q", sb.String())
	}
}
