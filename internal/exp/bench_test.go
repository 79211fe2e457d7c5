package exp

// One benchmark per table and figure of the paper's evaluation: each runs
// the (scaled) experiment and attaches its headline numbers as custom
// benchmark metrics, so `go test -bench=. ./internal/exp` both exercises
// the code paths and reports the reproduced quantities. `oram-explore
// -paper` prints the full paper-style tables.

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/explore"
	"repro/internal/trace"
)

func BenchmarkFig03StashOccupancy(b *testing.B) {
	cfg := DefaultFig3()
	cfg.WorkingSetBlocks = 1 << 12
	cfg.Zs = []int{3, 4}
	for i := 0; i < b.N; i++ {
		res, err := RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Histograms[3].Mean(), "Z3_mean_stash")
		b.ReportMetric(res.Histograms[3].TailProb(50), "Z3_P_ge_50")
	}
}

func BenchmarkFig04CPLAttack(b *testing.B) {
	cfg := DefaultFig4()
	cfg.Experiments = 10
	cfg.Accesses = 1000
	for i := 0; i < b.N; i++ {
		res, err := RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Secure.Mean(), "secure_cpl")
		b.ReportMetric(res.InsecureCongested.Mean(), "insecure_cpl")
	}
}

func BenchmarkFig05AccessOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunFig5(DZ3Pb32, PaperWorkingSet, 2, 16, 31)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SeqReturn, "seq_return_cycles")
		b.ReportMetric(res.PipelinedReturn, "pipe_return_cycles")
	}
}

func BenchmarkFig07DummyRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := measure(b, explore.Fig7Grid(1<<12), 6<<12, 3)
		for _, c := range cells {
			if c.Spec.StashCapacity == 200 && c.Spec.Z != 2 {
				b.ReportMetric(c.DummyRate(), map[int]string{1: "Z1_dummy_ratio", 3: "Z3_dummy_ratio"}[c.Spec.Z])
			}
		}
	}
}

func BenchmarkFig08Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if best := Best(measure(b, explore.Fig8Grid(1<<12), 6<<12, 5)); best != nil {
			b.ReportMetric(float64(best.Spec.Z), "best_Z")
			b.ReportMetric(best.Overhead(), "best_overhead")
		}
	}
}

func BenchmarkFig09Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := measure(b, explore.Fig9Grid(1<<10, 1<<13), 6<<13, 9)
		b.ReportMetric(tree(b, cells[len(cells)/2:], 3, 0.5).Overhead(), "Z3_overhead_8k")
	}
}

func BenchmarkFig10Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		red, err := RunFig10(measure(b, explore.Fig10Grid(1<<12), 1<<14, 11)).ReductionVsBase("DZ3Pb32")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*red, "overhead_reduction_%")
	}
}

func BenchmarkFig11Placement(b *testing.B) {
	cfg := DefaultFig11()
	cfg.Settings = []Setting{DZ3Pb32}
	cfg.Channels = []int{2}
	cfg.Accesses = 24
	for i := 0; i < b.N; i++ {
		res, err := RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pt := res.Points[0]
		b.ReportMetric(pt.Naive/pt.Theoretical, "naive_vs_theory")
		b.ReportMetric(pt.Subtree/pt.Theoretical, "subtree_vs_theory")
	}
}

func BenchmarkDRAMPathReadSubtreeVsNaive(b *testing.B) {
	for _, strat := range []string{"naive", "subtree"} {
		b.Run(strat, func(b *testing.B) {
			var lastCycles float64
			for i := 0; i < b.N; i++ {
				res, err := RunFig11(Fig11Config{
					WorkingSet: PaperWorkingSet, Channels: []int{2},
					Settings: []Setting{DZ3Pb32}, Accesses: 16, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				pt := res.Points[0]
				if strat == "naive" {
					lastCycles = pt.Naive
				} else {
					lastCycles = pt.Subtree
				}
			}
			b.ReportMetric(lastCycles, "DRAMcycles/access")
		})
	}
}

func BenchmarkTable2Latency(b *testing.B) {
	cfg := DefaultTable2()
	cfg.Accesses = 24
	for i := 0; i < b.N; i++ {
		res, err := RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if row := res.Find("DZ3Pb32"); row != nil {
			b.ReportMetric(float64(row.ReturnCycles), "DZ3Pb32_return_cyc")
			b.ReportMetric(float64(row.FinishCycles), "DZ3Pb32_finish_cyc")
		}
	}
}

func BenchmarkFig12SPEC(b *testing.B) {
	cfg := DefaultFig12()
	cfg.Instructions = 50_000
	cfg.Warmup = 50_000
	cfg.Benchmarks = []string{"mcf", "libquantum", "hmmer"}
	for i := 0; i < b.N; i++ {
		res, err := RunFig12(cfg, smallRates())
		if err != nil {
			b.Fatal(err)
		}
		imp, err := res.ImprovementVsBase("DZ4Pb32+SB")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*imp, "improvement_%")
	}
}

func BenchmarkIntegrityOverhead(b *testing.B) {
	cfg := DefaultIntegrity()
	cfg.Accesses = 500
	for i := 0; i < b.N; i++ {
		res, err := RunIntegrity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HashReadsPerAccess, "hash_reads/access")
	}
}

// BenchmarkCPUSimulator measures the timing-model throughput itself, on
// Table 2's DZ3Pb32 latencies.
func BenchmarkCPUSimulator(b *testing.B) {
	ret, finish, err := Table2Latency()
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.ProfileByName("mcf").Generator(1)
	mem := &cpu.ORAMMemory{ReturnLat: ret, FinishLat: finish}
	b.ResetTimer()
	if _, err := cpu.Run(cpu.Default(), gen, mem, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N), "instructions")
}
