// Package experiments regenerates every table and figure of the
// Cpp-Taskflow paper's evaluation (Section IV) from this repository's
// implementations. Each experiment is a library function that writes a
// paper-style table to an io.Writer; cmd/repro is the one driver over them,
// and EXPERIMENTS.md records a captured run against the paper's numbers.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"gotaskflow/internal/sloc"
)

// SrcRoot locates the module root (the directory containing go.mod) by
// walking up from the working directory, so the software-cost experiments
// can analyze this repository's own sources regardless of where the
// binary is invoked.
func SrcRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("experiments: go.mod not found above working directory")
		}
		dir = parent
	}
}

// DefaultWorkers returns the worker count used when a figure calls for a
// fixed CPU count larger than the machine (the paper uses 8 or 16 CPUs;
// we clamp to the hardware and report what was used).
func DefaultWorkers(paper int) int {
	n := runtime.NumCPU()
	if paper < n {
		return paper
	}
	return n
}

// WorkerSweep returns the worker counts for a CPU-scalability sweep:
// 1, 2, 4, ... up to max, always including max.
func WorkerSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// backendCost sums LOC and CC over a named subset of a file's functions —
// the per-backend attribution used by Tables I and III, where several
// backend implementations share one source file.
func backendCost(fm *sloc.FileMetrics, names ...string) (loc, cc int) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, f := range fm.Funcs {
		if want[f.Name] {
			loc += f.LOC
			cc += f.CC
		}
	}
	return loc, cc
}
