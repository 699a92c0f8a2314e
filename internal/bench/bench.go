// Package bench provides the small experiment harness used by the cmd/
// binaries to regenerate the tables and figures of the Cpp-Taskflow paper:
// wall-clock measurement with repetitions, and aligned table/series
// printing in the layout of the paper's plots (one row per x value, one
// column per competing library).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Measure runs fn once and returns its wall-clock duration.
func Measure(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// Best runs fn reps times and returns the minimum duration — the standard
// noise-robust estimator for micro-benchmarks. reps < 1 is treated as 1.
func Best(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	best := Measure(fn)
	for i := 1; i < reps; i++ {
		if d := Measure(fn); d < best {
			best = d
		}
	}
	return best
}

// Table accumulates rows and prints them with aligned columns.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Row appends a row; durations are formatted as fractional milliseconds,
// the unit of the paper's runtime plots, other values with %v.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = fmt.Sprintf("%.2f", float64(v.Microseconds())/1000.0)
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "# %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.rows {
		line(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
