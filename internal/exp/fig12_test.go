package exp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/explore"
)

func smallFig12() Fig12Config {
	cfg := DefaultFig12()
	cfg.Benchmarks = []string{"mcf", "libquantum", "hmmer"}
	cfg.Instructions = 150_000
	// The warmup must populate hmmer's ~512 KB hot set or cold misses
	// masquerade as memory-boundedness.
	cfg.Warmup = 350_000
	cfg.Table2.Accesses = 16
	return cfg
}

// The two hierarchy presets at 2^12 blocks, each measured once for the
// tests and benchmarks that read it. Between them they hold the dummy
// rates of Figure 12's four settings, none of which is |S| = 4 (whose Z=3
// point livelocks at this size; TestSuperBlockAblation has it).
var (
	smallFig10      = sync.OnceValue(func() []Cell { return mustSweep(explore.Fig10Grid(1<<12), 23) })
	smallSuperBlock = sync.OnceValue(func() []Cell {
		g := explore.SuperBlockGrid(1 << 12)
		g.Axes[1] = g.Axes[1][:2]
		return mustSweep(g, 41)
	})
)

func mustSweep(g explore.Grid, seed int64) []Cell {
	cells, err := Sweep(g, explore.Options{Ops: 1 << 13, Seed: seed})
	if err != nil {
		panic(err)
	}
	return cells
}

func smallRates() []Cell { return append(smallFig10(), smallSuperBlock()...) }

func TestBuildORAMModels(t *testing.T) {
	models, err := BuildORAMModels(smallFig12(), smallRates())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 4 {
		t.Fatalf("got %d models want 4", len(models))
	}
	byName := map[string]ORAMModel{}
	for _, m := range models {
		byName[m.Setting.Name] = m
		if m.Return == 0 || m.Finish <= m.Return {
			t.Errorf("%s: nonsense latencies return=%d finish=%d", m.Setting.Name, m.Return, m.Finish)
		}
	}
	// baseORAM (strawman buckets, naive placement, sequential order) must
	// be much slower than the optimized configs.
	if byName["baseORAM"].Return < byName["DZ3Pb32"].Return*2 {
		t.Errorf("baseORAM return %d not clearly above DZ3Pb32 %d",
			byName["baseORAM"].Return, byName["DZ3Pb32"].Return)
	}
	// The +SB variant shares latencies with its base config but has a
	// higher (or equal) dummy rate.
	if byName["DZ3Pb32+SB"].Finish != byName["DZ3Pb32"].Finish {
		t.Error("+SB variant should share tree latencies")
	}
	if byName["DZ3Pb32+SB"].DummyRate < byName["DZ3Pb32"].DummyRate {
		t.Error("+SB dummy rate below base config")
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := RunFig12(smallFig12(), smallRates())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	row := map[string]Fig12Row{}
	for _, r := range res.Rows {
		row[r.Benchmark] = r
	}
	// Memory-bound benchmarks suffer far more than compute-bound ones
	// under every ORAM config (the paper's core Figure 12 observation).
	for i := range res.Models {
		if row["mcf"].Slowdowns[i] < 2*row["hmmer"].Slowdowns[i] {
			t.Errorf("config %d: mcf slowdown %.2f not far above hmmer %.2f",
				i, row["mcf"].Slowdowns[i], row["hmmer"].Slowdowns[i])
		}
	}
	// Every slowdown is >= ~1 (an ORAM cannot beat DRAM).
	for _, r := range res.Rows {
		for i, s := range r.Slowdowns {
			if s < 0.99 {
				t.Errorf("%s config %d: slowdown %.2f below 1", r.Benchmark, i, s)
			}
		}
	}
	// The optimized configuration must improve on baseORAM on average.
	imp, err := res.ImprovementVsBase("DZ3Pb32")
	if err != nil {
		t.Fatal(err)
	}
	if imp < 0.2 {
		t.Errorf("DZ3Pb32 improvement %.1f%% below 20%% (paper: 43.9%%)", 100*imp)
	}
	// Rendering includes every model column and the average row.
	s := res.Table().String()
	for _, want := range []string{"baseORAM", "DZ3Pb32+SB", "average", "mcf"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q", want)
		}
	}
	if _, err := res.ImprovementVsBase("nope"); err == nil {
		t.Error("unknown setting accepted")
	}
}

func TestFig12UnknownBenchmark(t *testing.T) {
	cfg := smallFig12()
	cfg.Benchmarks = []string{"not-a-benchmark"}
	if _, err := RunFig12(cfg, smallRates()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
