package explore

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	pathoram "repro"
	"repro/internal/testutil"
)

// tuple is the part of a point's Spec the preset goldens pin.
type tuple struct {
	Shards           int                   `json:"shards"`
	PosMap           pathoram.PosMapPolicy `json:"posmap"`
	Backend          pathoram.Backend      `json:"backend"`
	Partition        pathoram.Partition    `json:"partition"`
	Padded           bool                  `json:"padded"`
	AsyncEviction    bool                  `json:"async"`
	PLBBytes         uint64                `json:"plb_bytes"`
	PLBConstantShape bool                  `json:"plb_constant_shape"`
	Overlap          int                   `json:"overlap"`
	DRAMSched        pathoram.MemSched     `json:"mem_sched"`
	DRAMQueueDepth   int                   `json:"mem_queue"`
	WAL              bool                  `json:"wal"`
	// The tree shape, which the figure presets sweep.
	Blocks         uint64 `json:"blocks"`
	Z              int    `json:"z"`
	LeafLevel      int    `json:"leaf_level"`
	StashCapacity  int    `json:"stash"`
	SuperBlockSize int    `json:"superblock"`
	PosZ           int    `json:"pos_z"`
	PosBlockSize   int    `json:"pos_block"`
}

// pointSpecs enumerates g and opens and closes every point (file points
// each in their own directory, the way the runner isolates them),
// returning the Specs in enumeration order.
func pointSpecs(t *testing.T, g Grid) []pathoram.Spec {
	t.Helper()
	points, err := g.Points(1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	var specs []pathoram.Spec
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Name] {
			t.Errorf("duplicate point %q", p.Name)
		}
		seen[p.Name] = true
		spec, err := p.Spec()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if spec.Backend == pathoram.BackendFile {
			spec.Dir = t.TempDir()
		}
		c, err := pathoram.Open(spec)
		if err != nil {
			t.Fatalf("%s: Open: %v", p.Name, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s: Close: %v", p.Name, err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestPresetPoints holds every preset to its recorded points
// (testdata/preset_points.json; the serving-layer presets recorded from the
// per-axis Grid at PR 14, the figure presets — whose trees repeat what
// exp's per-figure sweeps built through treeFor — when they became grids):
// the same number of points, in the same order, with the same axis values
// and tree shapes — and every one opens.
func TestPresetPoints(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "preset_points.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]tuple
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(Presets) {
		t.Errorf("%d presets, %d goldens", len(Presets), len(golden))
	}
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			var got []tuple
			for _, s := range pointSpecs(t, Presets[name]) {
				got = append(got, tuple{s.Shards, s.PosMap, s.Backend, s.Partition, s.Padded, s.AsyncEviction,
					s.PLBBytes, s.PLBConstantShape, s.Overlap, s.DRAMSched, s.DRAMQueueDepth, s.WAL,
					s.Blocks, s.Z, s.LeafLevel, s.StashCapacity, s.SuperBlockSize, s.PosZ, s.PosBlockSize})
			}
			if !reflect.DeepEqual(got, golden[name]) {
				t.Errorf("%d points %+v\nwant %d points %+v", len(got), got, len(golden[name]), golden[name])
			}
		})
	}
}

// The next three grids cross an axis with one it is inert on: the rule
// table prunes the product, so no configuration is enumerated twice under
// two names and no point varies a knob that changes nothing.

func TestGridSyncPointsCanonicalizeIdleAxis(t *testing.T) {
	specs := pointSpecs(t, Grid{
		Base: "-blocks 256 -blocksize 16",
		Axes: [][]string{
			{"-async=false", "-async"},
			{"-max-deferred 0", "-max-deferred 2"},
		},
		Workloads: []string{"uniform"},
	})
	// 1 sync point (no idle pipeline to size) + 2 async points.
	if len(specs) != 3 {
		t.Fatalf("got %d points, want 3", len(specs))
	}
	for _, s := range specs {
		if !s.AsyncEviction && s.MaxDeferredWriteBacks != 0 {
			t.Errorf("sync point carries a deferred-queue depth: %+v", s)
		}
	}
}

func TestPLBOverlapGridCanonicalization(t *testing.T) {
	specs := pointSpecs(t, Grid{
		Base: "-blocks 256 -blocksize 16",
		Axes: [][]string{
			{"-posmap flat", "-posmap recursive -onchip-max 128"},
			{"-backend mem", "-backend dram"},
			{"-plb-bytes 0", "-plb-bytes 2048"},
			{"-plb-constant-shape=false", "-plb-constant-shape"},
			{"-overlap 0", "-overlap 2"},
		},
		Workloads: []string{"uniform"},
	})
	// flat/mem 1, flat/dram 1 (no chain to cache or pipeline), recursive/mem
	// 3 (plb=0, plb, plb+cs; nothing modeled to overlap), recursive/dram 6
	// (those three x overlap {0,2}).
	if len(specs) != 11 {
		t.Fatalf("got %d points, want 11", len(specs))
	}
	for _, s := range specs {
		if s.PosMap == pathoram.PosMapOnChip && (s.PLBBytes != 0 || s.Overlap != 0) {
			t.Errorf("flat point carries an acceleration knob: %+v", s)
		}
		if s.Overlap != 0 && s.Backend != pathoram.BackendDRAM {
			t.Errorf("point overlaps without a timed backend: %+v", s)
		}
	}
}

func TestStorageGridCanonicalization(t *testing.T) {
	specs := pointSpecs(t, Grid{
		Base: "-blocks 256 -blocksize 16",
		Axes: [][]string{
			{"-backend mem", "-backend dram", "-backend file"},
			{"-wal=false", "-wal"},
		},
		Workloads: []string{"uniform"},
	})
	// mem 1, dram 1 (nothing to log), file 2 (wal off, on).
	if len(specs) != 4 {
		t.Fatalf("got %d points, want 4", len(specs))
	}
	for _, s := range specs {
		if s.WAL && s.Backend != pathoram.BackendFile {
			t.Errorf("point logs without file storage: %+v", s)
		}
	}
}

// TestGridRejectsUnknownAxisValues: whatever Spec's text form cannot parse
// fails the whole grid before any measurement runs, and so does a grid
// that names no workload or whose every combination the rule table
// rejects.
func TestGridRejectsUnknownAxisValues(t *testing.T) {
	uniform := []string{"uniform"}
	for _, g := range []Grid{
		{Base: "-blocks 64", Axes: [][]string{{"-backend disk"}}, Workloads: uniform},
		{Base: "-blocks 64", Axes: [][]string{{"-posmap flat", "-posmap cuckoo"}}, Workloads: uniform},
		{Base: "-blocks 64 -partition hash", Workloads: uniform},
		{Base: "-blocks 64", Axes: [][]string{{"-storage tape"}}, Workloads: uniform},
		{Base: "-blocks 64", Axes: [][]string{{"-shards many"}}, Workloads: uniform},
		{Base: "-blocks 64", Axes: [][]string{{"shards=2"}}, Workloads: uniform},
		{Base: "-blocks 64", Axes: [][]string{{}}, Workloads: uniform},
		{Base: "-blocks 64", Workloads: []string{"nosuch"}},
		{Base: "-blocks 64"},
		{Base: "-blocks 64", Axes: [][]string{{"-channels 2", "-channels 4"}}, Workloads: uniform},
	} {
		if points, err := g.Points(1, t.Logf); err == nil {
			t.Errorf("grid %+v: Points returned %d points, want an error", g, len(points))
		}
	}
}

func TestLoadGridJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	src := Presets["smoke"]
	data, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, src) {
		t.Errorf("loaded grid %+v, want %+v", g, src)
	}
	// Typoed keys — and the per-axis keys of the old Grid — must be
	// rejected, not silently ignored.
	for _, doc := range []string{`{"sharts": [1]}`, `{"shards": [1, 4], "backends": ["mem"]}`} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGrid(path); err == nil {
			t.Errorf("LoadGrid accepted %s", doc)
		}
	}
	_, err = LoadGrid("nosuchpreset")
	if err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("LoadGrid(nosuchpreset) = %v, want unknown-preset error", err)
	}
	for name := range Presets {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-preset error %q does not list preset %q", err, name)
		}
	}
}

func TestMarkParetoDominance(t *testing.T) {
	mk := func(w string, p99, cyc, chip float64) Row {
		m := map[string]float64{"p99-ns": p99, "onchip-B": chip}
		if cyc >= 0 {
			m["cycles/op"] = cyc
		}
		return Row{Workload: w, Metrics: m}
	}
	rows := []Row{
		mk("u", 100, 10, 1000), // 0: dominated by 1 on all three
		mk("u", 90, 9, 900),    // 1: frontier
		mk("u", 200, 1, 2000),  // 2: frontier (best cycles)
		mk("u", 80, -1, 5000),  // 3: untimed group — frontier (only small-chip rival is 4)
		mk("u", 70, -1, 4000),  // 4: untimed group — dominates 3
		mk("v", 100, 10, 1000), // 5: other workload, alone -> frontier
	}
	MarkPareto(rows, Objectives)
	want := []bool{false, true, true, false, true, true}
	for i, r := range rows {
		if r.Pareto != want[i] {
			t.Errorf("row %d: pareto=%v, want %v", i, r.Pareto, want[i])
		}
	}
}

func TestMarkParetoTiesBothSurvive(t *testing.T) {
	rows := []Row{
		{Workload: "u", Metrics: map[string]float64{"p99-ns": 1, "onchip-B": 2}},
		{Workload: "u", Metrics: map[string]float64{"p99-ns": 1, "onchip-B": 2}},
	}
	MarkPareto(rows, Objectives)
	if !rows[0].Pareto || !rows[1].Pareto {
		t.Error("equal rows dominate each other — ties must both stay on the frontier")
	}
}

func TestValidateReport(t *testing.T) {
	good := NewReport("smoke", Objectives, []Row{{
		Config: "c", Workload: "w", Leakage: "routing=none,stash=scan-timing",
		Ops: 10, Metrics: map[string]float64{"p99-ns": 1}, Pareto: true,
	}})
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := []struct {
		name string
		doc  string
	}{
		{"not json", `nope`},
		{"missing goos", `{"goarch":"a","pkg":"p","benchmarks":[]}`},
		{"empty benchmarks", `{"goos":"l","goarch":"a","pkg":"p","benchmarks":[]}`},
		{"missing config", `{"goos":"l","goarch":"a","pkg":"p","benchmarks":[{"name":"n","iterations":1,"metrics":{"m":1},"workload":"w","leakage":"x"}]}`},
		{"zero iterations", `{"goos":"l","goarch":"a","pkg":"p","benchmarks":[{"name":"n","iterations":0,"metrics":{"m":1},"config":"c","workload":"w","leakage":"x"}]}`},
		{"empty metrics", `{"goos":"l","goarch":"a","pkg":"p","benchmarks":[{"name":"n","iterations":1,"metrics":{},"config":"c","workload":"w","leakage":"x"}]}`},
		{"string metric", `{"goos":"l","goarch":"a","pkg":"p","benchmarks":[{"name":"n","iterations":1,"metrics":{"m":"fast"},"config":"c","workload":"w","leakage":"x"}]}`},
	}
	for _, tc := range bad {
		if err := ValidateReport([]byte(tc.doc)); err == nil {
			t.Errorf("%s: ValidateReport accepted it", tc.name)
		}
	}
}

func TestSchemaJSONIsValidJSON(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(SchemaJSON, &doc); err != nil {
		t.Fatalf("embedded schema.json does not parse: %v", err)
	}
	if doc["type"] != "object" {
		t.Error("schema root should describe an object")
	}
}

func TestWorkloadGeneratorsInRangeAndDistinct(t *testing.T) {
	const blocks = 128
	const n = 4000
	hists := map[string][]uint64{}
	for _, w := range Workloads() {
		gen := w.New(rand.New(rand.NewSource(5)), blocks)
		counts := make([]uint64, blocks)
		writes := 0
		for i := 0; i < n; i++ {
			addr, wr := gen(i)
			if addr >= blocks {
				t.Fatalf("%s: address %d out of range", w.Name, addr)
			}
			counts[addr]++
			if wr {
				writes++
			}
		}
		if writes == 0 || writes == n {
			t.Errorf("%s: degenerate write mix %d/%d", w.Name, writes, n)
		}
		hists[w.Name] = counts
	}
	// The suite exists to stress different shapes: uniform must pass the
	// shared uniformity test, the skewed generators must fail it.
	if x2 := testutil.ChiSquare(hists["uniform"]); x2 > testutil.UniformThreshold(blocks) {
		t.Errorf("uniform workload not uniform: chi2=%.1f", x2)
	}
	for _, skewed := range []string{"zipf", "hammer"} {
		if x2 := testutil.ChiSquare(hists[skewed]); x2 <= testutil.UniformThreshold(blocks) {
			t.Errorf("%s workload indistinguishable from uniform: chi2=%.1f", skewed, x2)
		}
	}
}

// TestStashOccupancyBoundedUnderAllWorkloads is the stash-occupancy-vs-
// load property test: whatever the workload shape — uniform, skewed,
// scanning, hammering, read-mostly — the stash never exceeds its
// configured capacity (the protocol would error) and, with background
// eviction holding the invariant, its peak stays well below the paper's
// overflow regime.
func TestStashOccupancyBoundedUnderAllWorkloads(t *testing.T) {
	const blocks = 512
	const capacity = 150
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			spec := pathoram.Spec{
				Blocks: blocks, BlockSize: 16,
				StashCapacity: capacity,
				Rand:          rand.New(rand.NewSource(31)),
			}
			c, err := pathoram.Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// Fill the working set first: an empty tree lets even a
			// hammering workload drain the stash completely, and the
			// occupancy property is about steady state.
			payload := make([]byte, 16)
			addrs := make([]uint64, blocks)
			data := make([][]byte, blocks)
			for a := range addrs {
				addrs[a], data[a] = uint64(a), payload
			}
			if err := c.WriteBatch(addrs, data); err != nil {
				t.Fatal(err)
			}
			c.ResetStats()
			gen := w.New(rand.New(rand.NewSource(32)), blocks)
			for i := 0; i < 4000; i++ {
				if err := step(c, gen, i, payload); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			st := c.Stats()
			if st.StashPeak > capacity {
				t.Errorf("stash peak %d exceeds capacity %d", st.StashPeak, capacity)
			}
			if st.RealAccesses != 4000 {
				t.Errorf("measured %d real accesses, want 4000", st.RealAccesses)
			}
		})
	}
}

// TestMetadataOnlyGridReports: a -blocksize 0 grid — every figure preset
// is one — has no payload for ext-blowup to divide by; the metric is
// omitted, not NaN, so the report still marshals and validates.
func TestMetadataOnlyGridReports(t *testing.T) {
	g := Grid{Base: "-blocks 1024 -blocksize 0", Axes: [][]string{{"-z 2", "-z 3"}}, Workloads: []string{"uniform"}}
	rows, err := Run(g, Options{Ops: 256, Seed: 1}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	MarkPareto(rows, Objectives)
	data, err := json.Marshal(NewReport("meta", Objectives, rows))
	if err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, ok := r.Metrics["ext-blowup"]; ok {
			t.Errorf("%s: ext-blowup reported for a payload-free point", r.Config)
		}
	}
}

// TestInfeasiblePointIsARow: a point whose background eviction cannot
// keep up (Z=1 over-full with a minimal stash: the paper's missing bars)
// comes back as an infeasible row beside its feasible neighbor — it does
// not fail the sweep — and never lands on the frontier.
func TestInfeasiblePointIsARow(t *testing.T) {
	g := Grid{
		Base:      "-blocksize 0 -leaf-level 9",
		Axes:      [][]string{{"-z 1 -blocks 900 -stash 12", "-z 4 -blocks 1024 -stash 60"}},
		Workloads: []string{"uniform", "zipf"},
	}
	rows, err := Run(g, Options{Ops: 2048, Seed: 1}, t.Logf)
	if err != nil {
		t.Fatalf("an infeasible point failed the sweep: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 2 points x 2 workloads", len(rows))
	}
	MarkPareto(rows, []string{"infeasible", "onchip-B"})
	for i, r := range rows {
		if infeasible := r.Metrics["infeasible"] == 1; infeasible != (i < 2) {
			t.Errorf("%s/%s: metrics %v", r.Config, r.Workload, r.Metrics)
		} else if infeasible && (r.Pareto || len(r.Metrics) != 1 || r.Ops < 1) {
			t.Errorf("infeasible row %+v: want unmarked, iterations >= 1 and no other metric", r)
		} else if !infeasible && !r.Pareto {
			t.Errorf("%s/%s: the only feasible point of its group is off the frontier", r.Config, r.Workload)
		}
	}
	data, err := json.Marshal(NewReport("infeasible", Objectives, rows))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatal(err)
	}
}
