package explore

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/encrypt"
)

// SchemaJSON is the formal description of the report format (JSON
// Schema, draft 2020-12), embedded so -check and the docs ship the exact
// constraints ValidateReport enforces.
//
//go:embed schema.json
var SchemaJSON []byte

// Benchmark is one report entry, following cmd/oram-benchjson's shape
// (name + iterations + flat float metrics) with the explorer's row
// annotations alongside.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Config     string             `json:"config"`
	Workload   string             `json:"workload"`
	Leakage    string             `json:"leakage"`
	Pareto     bool               `json:"pareto"`
}

// Report is the top-level document of an explorer report (explore-<grid>.json,
// or the -out file).
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Keystream  string      `json:"keystream,omitempty"` // this host's pad generator: counter-encrypted rows differ ~2x between the two
	Grid       string      `json:"grid,omitempty"`
	Objectives []string    `json:"objectives,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// NewReport assembles the report from measured, Pareto-marked rows.
func NewReport(grid string, objectives []string, rows []Row) Report {
	r := Report{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Pkg:       "repro/internal/explore",
		Keystream: encrypt.KeystreamImpl(),
		Grid:      grid, Objectives: objectives,
	}
	for _, row := range rows {
		r.Benchmarks = append(r.Benchmarks, Benchmark{
			Name:       "grid/" + row.Config + "/" + row.Workload,
			Iterations: int64(row.Ops),
			Metrics:    row.Metrics,
			Config:     row.Config,
			Workload:   row.Workload,
			Leakage:    row.Leakage,
			Pareto:     row.Pareto,
		})
	}
	return r
}

// ValidateReport checks data against the embedded schema's constraints:
// required top-level strings, a non-empty benchmarks array, and per
// entry a non-empty name/config/workload/leakage, iterations >= 1 and a
// non-empty numeric metric map. It decodes into a generic map (not
// Report) so missing fields cannot hide behind Go zero values.
func ValidateReport(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("report is not a JSON object: %w", err)
	}
	for _, key := range []string{"goos", "goarch", "pkg"} {
		s, ok := doc[key].(string)
		if !ok || s == "" {
			return fmt.Errorf("report: missing or empty %q", key)
		}
	}
	benches, ok := doc["benchmarks"].([]any)
	if !ok {
		return fmt.Errorf("report: missing benchmarks array")
	}
	if len(benches) == 0 {
		return fmt.Errorf("report: benchmarks array is empty")
	}
	for i, b := range benches {
		entry, ok := b.(map[string]any)
		if !ok {
			return fmt.Errorf("benchmarks[%d]: not an object", i)
		}
		for _, key := range []string{"name", "config", "workload", "leakage"} {
			s, ok := entry[key].(string)
			if !ok || s == "" {
				return fmt.Errorf("benchmarks[%d]: missing or empty %q", i, key)
			}
		}
		iters, ok := entry["iterations"].(float64)
		if !ok || iters < 1 || iters != float64(int64(iters)) {
			return fmt.Errorf("benchmarks[%d]: iterations must be an integer >= 1", i)
		}
		metrics, ok := entry["metrics"].(map[string]any)
		if !ok || len(metrics) == 0 {
			return fmt.Errorf("benchmarks[%d]: missing or empty metrics map", i)
		}
		for k, v := range metrics {
			if _, ok := v.(float64); !ok {
				return fmt.Errorf("benchmarks[%d]: metric %q is not a number", i, k)
			}
		}
		if p, present := entry["pareto"]; present {
			if _, ok := p.(bool); !ok {
				return fmt.Errorf("benchmarks[%d]: pareto must be a boolean", i)
			}
		}
	}
	return nil
}
