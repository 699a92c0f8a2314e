package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords groups the values of every metric in an -out file by
// (workload, metric), end-to-end runs only, and returns the worker counts the
// runs were made with.
func readRecords(path string) (map[[2]string][]float64, map[int]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	vals := map[[2]string][]float64{}
	workers := map[int]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("compare: %s line %d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		workers[rec.Machine.Workers] = true
		for name, m := range rec.Metrics {
			k := [2]string{rec.Workload, name}
			vals[k] = append(vals[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return vals, workers, nil
}

// compareFiles prints one row per gated metric and workload with the medians
// and quartiles of both files and a verdict for b against a, and reports
// whether any row is worse. Runs made with different worker counts measure
// different things and are refused.
func compareFiles(w io.Writer, a, b string) (worse bool, err error) {
	va, wa, err := readRecords(a)
	if err != nil {
		return false, err
	}
	vb, wb, err := readRecords(b)
	if err != nil {
		return false, err
	}
	for n := range wb {
		wa[n] = true
	}
	if len(wa) > 1 {
		return false, fmt.Errorf("compare: %s and %s hold runs at different worker counts", a, b)
	}
	return compareValues(w, va, vb), nil
}

// compareValues gives every (gated metric, workload) pair one of four
// verdicts. worse: b's median is on the wrong side of a's by more than the
// metric allows. unresolved: it is not, but the quartiles of either side lie
// further apart than that, so the runs could not have shown it. better and
// same otherwise.
func compareValues(w io.Writer, va, vb map[[2]string][]float64) (worse bool) {
	fmt.Fprintf(w, "%-22s %-16s %4s %14s %14s %14s %14s %14s %14s %7s %12s  %s\n",
		"workload", "metric", "n", "a_q1", "a_median", "a_q3", "b_q1", "b_median", "b_q3", "change", "allowed", "verdict")
	for _, wl := range workloadDefs {
		for _, d := range gatedDefs {
			k := [2]string{wl.Name, d.Name}
			xa, xb := va[k], vb[k]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			loss := b2 - a2 // positive when b is worse
			if d.Better == "higher" {
				loss = -loss
			}
			allowed := max(d.Bound*a2, d.Abs)
			verdict := "same"
			switch {
			case loss > allowed:
				verdict, worse = "worse", true
			case max(a3-a1, b3-b1) > allowed:
				verdict = "unresolved"
			case loss < -allowed:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-22s %-16s %4d %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %+6.1f%% %12.6g  %s\n",
				wl.Name, d.Name, min(len(xa), len(xb)), a1, a2, a3, b1, b2, b3, 100*ratio(b2-a2, a2), allowed, verdict)
		}
	}
	return worse
}
