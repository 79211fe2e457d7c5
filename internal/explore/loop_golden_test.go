package explore

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The loop goldens pin what one closed-loop client measures: the smoke and
// mem-sched grids at seed 1, every metric except the wall-clock ones, row by row,
// recorded before the measurement loop learned to fan out over clients.
// Re-record with
//
//	go test -run TestLoopGolden -record-loop-golden ./internal/explore
//
// and say in the change which rows moved and why.
var recordLoopGolden = flag.Bool("record-loop-golden", false,
	"rewrite testdata/loop_golden.json instead of comparing against it")

// wallMetrics are the host-clock metrics a golden cannot hold.
var wallMetrics = []string{"ns/op", "p50-ns", "p95-ns", "p99-ns"}

func TestLoopGolden(t *testing.T) {
	path := filepath.Join("testdata", "loop_golden.json")
	got := map[string][]Row{}
	for _, name := range []string{"smoke", "mem-sched"} {
		rows, err := Run(Presets[name], Options{Ops: 256, Warmup: 64, Seed: 1}, t.Logf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			for _, k := range wallMetrics {
				delete(r.Metrics, k)
			}
		}
		got[name] = rows
	}
	if *recordLoopGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]Row
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, rows := range want {
		if len(got[name]) != len(rows) {
			t.Errorf("%s: %d rows, want %d", name, len(got[name]), len(rows))
			continue
		}
		for i, w := range rows {
			if g := got[name][i]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s row %d:\n got %+v\nwant %+v", name, i, g, w)
			}
		}
	}
}
