package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict applies one metric's direction and bound to a (parent, change)
// pair of summaries. worse: the change's median is beyond the bound.
// unresolved: the parent's own repetitions spread wider than the bound, so
// a move of that size cannot be told from noise — unless every repetition
// of the change is better than every one of the parent, which is ok.
func verdict(d metricDecl, a, b summary) (string, float64) {
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * ratio(b.Median-a.Median, a.Median)
	bound := d.bound()
	if spread := ratio(a.Max-a.Min, a.Median); spread > bound {
		allBetter := b.Max < a.Min
		if d.Better == "higher" {
			allBetter = b.Min > a.Max
		}
		if !allBetter {
			return "unresolved", change
		}
		return "ok", change
	}
	if change > bound {
		return "worse", change
	}
	return "ok", change
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// result files and reports whether any row is worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.find(wl.Name, false), b.find(wl.Name, false)
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", wl.Name)
		}
		for _, d := range spec.EndToEnd {
			v, change := verdict(d, ra.Metrics[d.Name], rb.Metrics[d.Name])
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-18s %-14s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wl.Name, d.Name,
				ra.Metrics[d.Name].Median, rb.Metrics[d.Name].Median, 100*change, 100*d.bound(), v)
		}
		if rb.Failed > ra.Failed {
			anyWorse = true
			fmt.Fprintf(w, "%-18s %-14s %14d %14d %27s\n", wl.Name, "failed", ra.Failed, rb.Failed, "worse")
		}
	}
	return anyWorse, nil
}
