package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/membus"
)

// measure sweeps g at ops measured accesses per point.
func measure(tb testing.TB, g explore.Grid, ops int, seed int64) []Cell {
	tb.Helper()
	cells, err := Sweep(g, explore.Options{Ops: ops, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return cells
}

// find returns the first cell matching pred.
func find(tb testing.TB, cells []Cell, what string, pred func(Cell) bool) Cell {
	tb.Helper()
	for _, c := range cells {
		if pred(c) {
			return c
		}
	}
	tb.Fatalf("no cell for %s", what)
	return Cell{}
}

// tree finds the first (Z, utilization) point of a tree grid.
func tree(tb testing.TB, cells []Cell, z int, u float64) Cell {
	return find(tb, cells, fmt.Sprintf("Z=%d at %.0f%%", z, 100*u), func(c Cell) bool {
		return c.Spec.Z == z && math.Abs(c.Utilization()-u) < 0.005
	})
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Note: "n"}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestFig3SmallRun(t *testing.T) {
	cfg := DefaultFig3()
	cfg.WorkingSetBlocks = 1 << 10
	cfg.AccessesPerBlock = 6
	cfg.Zs = []int{2, 4}
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, h4 := res.Histograms[2], res.Histograms[4]
	if h2.Total() == 0 || h4.Total() == 0 {
		t.Fatal("no samples")
	}
	// The paper's core observation: smaller Z accumulates far more blocks
	// in the stash.
	if h2.Mean() <= h4.Mean() {
		t.Errorf("Z=2 mean occupancy %.1f not above Z=4 %.1f", h2.Mean(), h4.Mean())
	}
	// Z=4 should essentially never exceed a 100-block stash.
	if p := h4.TailProb(100); p > 1e-3 {
		t.Errorf("Z=4 P(>=100) = %v, want tiny", p)
	}
	if got := res.Table().String(); !strings.Contains(got, "Z=4") {
		t.Error("table missing Z=4 column")
	}
}

// TestFig3GoldenThroughSpec pins the mean occupancies RunFig3 produced
// while it still built core.ORAM by hand with an unbounded stash (recorded
// at the commit before the swap): the pathoram.New-built runner, whose
// "infinite" stash is a capacity no run can reach, reproduces them to the
// last printed digit, so the surface swap changed nothing.
func TestFig3GoldenThroughSpec(t *testing.T) {
	cfg := DefaultFig3()
	cfg.WorkingSetBlocks = 1 << 12
	cfg.Zs = []int{1, 2, 3}
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for z, want := range map[int]string{1: "413.504248", 2: "21.173578", 3: "0.422436"} {
		if got := fmt.Sprintf("%.6f", res.Histograms[z].Mean()); got != want {
			t.Errorf("Z=%d mean occupancy %s, want %s", z, got, want)
		}
	}
}

// TestFig4Golden pins a reduced Figure 4 to its printed digits, recorded
// while core still ran the insecure block-remapping drain itself: the drain
// in fig4.go draws the same stash indices from the same leaf source, so
// every mean, std and rate is unchanged by the move.
func TestFig4Golden(t *testing.T) {
	cfg := DefaultFig4()
	cfg.Experiments = 12
	cfg.Accesses = 1000
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want string
	}{
		{"secure mean", res.Secure.Mean(), "1.991486"},
		{"secure std", res.Secure.Std(), "0.032127"},
		{"insecure mean", res.Insecure.Mean(), "1.969083"},
		{"insecure std", res.Insecure.Std(), "0.023368"},
		{"congested mean", res.InsecureCongested.Mean(), "2.465410"},
		{"congested std", res.InsecureCongested.Std(), "0.037033"},
		{"secure dummy rate", res.SecureDummyRate, "0.291167"},
		{"insecure evict rate", res.InsecureEvictRate, "0.134667"},
	} {
		if got := fmt.Sprintf("%.6f", c.got); got != c.want {
			t.Errorf("%s %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFig4AttackSeparates(t *testing.T) {
	cfg := DefaultFig4()
	cfg.Experiments = 15
	cfg.Accesses = 1500
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Secure scheme: mean CPL near the uniform expectation (1.969 for
	// L=5), matching the paper's 1.979.
	if d := res.Secure.Mean() - res.Expected; d < -0.03 || d > 0.03 {
		t.Errorf("secure CPL %.4f not near expectation %.4f", res.Secure.Mean(), res.Expected)
	}
	// Insecure scheme under congestion: the attack statistic must deviate
	// strongly (the paper reports |bias| = 0.18; our implementation's
	// bias is positive — see EXPERIMENTS.md).
	bias := res.InsecureCongested.Mean() - res.Expected
	if bias < 0 {
		bias = -bias
	}
	if bias < 0.1 {
		t.Errorf("insecure congested CPL %.4f does not separate from %.4f",
			res.InsecureCongested.Mean(), res.Expected)
	}
	if res.SecureDummyRate <= 0 {
		t.Error("secure scheme issued no dummies in this tight config")
	}
	_ = res.Table().String()
}

func TestFig7RatiosOrdered(t *testing.T) {
	cells := measure(t, explore.Fig7Grid(1<<11), 8<<11, 3)
	ratio := func(z, stash int) float64 {
		c := find(t, cells, fmt.Sprintf("Z=%d C=%d", z, stash), func(c Cell) bool {
			return c.Spec.Z == z && c.Spec.StashCapacity == stash && !c.Infeasible()
		})
		return c.DummyRate()
	}
	// The paper's finding: Z=1 needs far more dummies than Z=2, Z=3.
	if ratio(1, 100) < 5*ratio(3, 100) || ratio(1, 100) == 0 {
		t.Errorf("Z=1 ratio %.3f not far above Z=3 %.3f", ratio(1, 100), ratio(3, 100))
	}
	// Z>=2 ratios are low.
	if ratio(3, 100) > 0.5 {
		t.Errorf("Z=3 ratio %.3f unexpectedly high", ratio(3, 100))
	}
	tab, _ := Figures["fig7"](cells)
	for _, want := range []string{"stash size", "Z=3", "800"} {
		if !strings.Contains(tab.String(), want) {
			t.Errorf("Figure 7 table missing %q:\n%s", want, tab)
		}
	}
}

func TestFig8ShapeAndBest(t *testing.T) {
	// At 2^13 blocks (a "1 MB-class" ORAM in paper terms) the paper's
	// qualitative findings already hold: moderate Z at moderate utilization
	// wins, Z=8 wastes bandwidth. (Z=3 only overtakes Z=2 at much larger
	// trees, Fig. 9.)
	const ws = 1 << 13
	g := explore.Fig8Grid(ws)
	g.Axes[0] = append(explore.TreeAxis([]uint64{ws}, []int{1}, 0.25, 0.50), // Z=1 at 80%: see below
		explore.TreeAxis([]uint64{ws}, []int{2, 3, 4, 8}, 0.25, 0.50, 0.80)...)
	cells := measure(t, g, 6*ws, 5)
	// The best point should be Z=2..4 at moderate utilization; Z=8 and
	// Z=1 must not win.
	best := Best(cells)
	if best == nil {
		t.Fatal("no feasible points")
	}
	if best.Spec.Z < 2 || best.Spec.Z > 4 {
		t.Errorf("best Z=%d at %.0f%%, expected Z in 2..4", best.Spec.Z, 100*best.Utilization())
	}
	// Z=8 carries much more overhead than Z=3 at 50%.
	z3, z8 := tree(t, cells, 3, 0.50), tree(t, cells, 8, 0.50)
	if z8.Overhead() < 1.5*z3.Overhead() {
		t.Errorf("Z=8 (%.0f) should be far above Z=3 (%.0f) at 50%%", z8.Overhead(), z3.Overhead())
	}
	// Low utilization costs more than moderate for Z=3 (longer paths).
	if z3lo := tree(t, cells, 3, 0.25); z3lo.Overhead() <= z3.Overhead() {
		t.Errorf("Z=3: 25%% util (%.0f) should cost more than 50%% (%.0f)",
			z3lo.Overhead(), z3.Overhead())
	}

	// Z=1 at 80% utilization must be infeasible (paper: missing bars) — a
	// row of the sweep, not a failed sweep — and render as a "-" in the
	// Z=1 column of the 80% row. An infeasible point ends on the engine's
	// livelock guard, 2^20 dummy accesses that each cost a path, so this
	// one is asserted on trees of 2^9 blocks, the stash scaled along.
	g = explore.Fig8Grid(1 << 9)
	g.Base += " -stash 32"
	g.Axes[0] = explore.TreeAxis([]uint64{1 << 9}, []int{1, 3}, 0.80)
	cells = measure(t, g, 6<<9, 5)
	if !tree(t, cells, 1, 0.80).Infeasible() {
		t.Error("Z=1 at 80% should be infeasible")
	}
	tab, _ := Figures["fig8"](cells)
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "80.0%" || tab.Rows[0][1] != "-" || tab.Rows[0][2] == "-" {
		t.Errorf("Figure 8's 80%% row should have Z=1 missing and Z=3 present:\n%s", tab)
	}
}

func TestFig9Scaling(t *testing.T) {
	g := explore.Fig9Grid(1<<9, 1<<13)
	g.Axes[0] = explore.TreeAxis([]uint64{1 << 9, 1 << 13}, []int{2, 3}, 0.5)
	cells := measure(t, g, 6<<13, 9)
	// Overhead grows roughly linearly in L: capacity x16 adds 4 levels,
	// so overhead must grow, but by far less than 2x.
	for _, z := range []int{2, 3} {
		small, big := tree(t, cells[:2], z, 0.5).Overhead(), tree(t, cells[2:], z, 0.5).Overhead()
		if big <= small {
			t.Errorf("Z=%d: overhead should grow with capacity (%.0f vs %.0f)", z, small, big)
		}
		if big > 2*small {
			t.Errorf("Z=%d: overhead grew superlinearly (%.0f vs %.0f)", z, small, big)
		}
	}
	tab, _ := Figures["fig9"](cells)
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "2^10" || tab.Rows[1][0] != "2^14" || len(tab.Header) != 3 {
		t.Errorf("Figure 9 table is not 2 capacities x 2 Zs:\n%s", tab)
	}
}

func TestFig10ReductionVsBase(t *testing.T) {
	res := RunFig10(smallFig10())
	if len(res.Rows) != 11 || res.Rows[10].Setting.Name != "baseORAM" || res.Find("DZ4Pb12") == nil {
		t.Fatalf("fig10 grid did not yield the paper's 11 settings: %+v", res.Rows)
	}
	red, err := res.ReductionVsBase("DZ3Pb32")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 41.8% for DZ3Pb32. Require the shape: >= 25%.
	if red < 0.25 {
		t.Errorf("DZ3Pb32 reduction %.1f%% below 25%% (paper: 41.8%%)", 100*red)
	}
	red4, err := res.ReductionVsBase("DZ4Pb32")
	if err != nil {
		t.Fatal(err)
	}
	if red4 < 0.15 {
		t.Errorf("DZ4Pb32 reduction %.1f%% below 15%% (paper: 35.0%%)", 100*red4)
	}
	// DZ3Pb32 must beat DZ4Pb32 (paper ordering).
	if red <= red4 {
		t.Errorf("DZ3Pb32 (%.1f%%) should beat DZ4Pb32 (%.1f%%)", 100*red, 100*red4)
	}
	_ = res.Table().String()
}

func TestFig11SubtreeBeatsNaive(t *testing.T) {
	cfg := DefaultFig11()
	cfg.WorkingSet = 1 << 18 // scaled tree, same structure
	cfg.Channels = []int{2, 4}
	cfg.Settings = []Setting{DZ3Pb32}
	cfg.Accesses = 24
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Subtree >= p.Naive {
			t.Errorf("%s ch=%d: subtree %.0f not faster than naive %.0f",
				p.Setting, p.Channels, p.Subtree, p.Naive)
		}
		if p.Subtree < p.Theoretical {
			t.Errorf("%s ch=%d: subtree %.0f beats the theoretical bound %.0f",
				p.Setting, p.Channels, p.Subtree, p.Theoretical)
		}
		// Paper: subtree within ~6-13% of theoretical; allow 35% at our
		// scaled size, naive must be clearly worse.
		if p.Subtree > 1.5*p.Theoretical {
			t.Errorf("%s ch=%d: subtree %.0f too far from theory %.0f",
				p.Setting, p.Channels, p.Subtree, p.Theoretical)
		}
	}
	// More channels must help.
	p2, p4 := res.Find("DZ3Pb32", 2), res.Find("DZ3Pb32", 4)
	if p4.Subtree >= p2.Subtree {
		t.Error("4 channels not faster than 2")
	}
	_ = res.Table().String()
}

func TestFig5PipelinedReturnsEarlier(t *testing.T) {
	res, err := RunFig5(DZ3Pb32, 1<<18, 2, 16, 31)
	if err != nil {
		t.Fatal(err)
	}
	if res.PipelinedReturn >= res.SeqReturn {
		t.Errorf("pipelined return %.0f not earlier than sequential %.0f",
			res.PipelinedReturn, res.SeqReturn)
	}
	if res.PipeFinish >= res.SeqFinish {
		t.Errorf("pipelined finish %.0f not earlier than sequential %.0f",
			res.PipeFinish, res.SeqFinish)
	}
	_ = res.Table().String()
}

// TestPipelinedReturnHonoursNaming checks the recursion's naming
// dependency under Figure 5(b): level i's leaf comes out of level i+1's
// read, so an access's data cannot return before every level's read
// latency has elapsed one after another.
func TestPipelinedReturnHonoursNaming(t *testing.T) {
	h, err := DZ3Pb32.Hierarchy(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	ret, _, st, err := replay(h, 2, membus.LayoutSubtree, false, n, 31)
	if err != nil {
		t.Fatal(err)
	}
	if st.PathReads != uint64(n*h.NumORAMs()) {
		t.Fatalf("%d path reads for %d accesses of %d ORAMs", st.PathReads, n, h.NumORAMs())
	}
	if perAccess := float64(st.ReadCycles) / n; ret < perAccess {
		t.Errorf("pipelined return %.1f below the summed level reads %.1f", ret, perAccess)
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := DefaultTable2() // paper scale: the DRAM replay never builds trees
	cfg.Accesses = 16
	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := res.Find("baseORAM")
	opt := res.Find("DZ3Pb32")
	if base == nil || opt == nil {
		t.Fatal("missing rows")
	}
	// The Table 2 ordering: DZ3Pb32 returns data much faster than
	// baseORAM (paper: 1892 vs 4868 cycles).
	if float64(opt.ReturnCycles) > 0.7*float64(base.ReturnCycles) {
		t.Errorf("DZ3Pb32 return %d not well below baseORAM %d", opt.ReturnCycles, base.ReturnCycles)
	}
	if opt.ReturnCycles >= opt.FinishCycles {
		t.Error("return data must precede finish access")
	}
	if base.NumORAMs != 3 {
		t.Errorf("baseORAM H=%d want 3", base.NumORAMs)
	}
	_ = res.Table().String()
}

func TestIntegrityOverheadBounds(t *testing.T) {
	cfg := DefaultIntegrity()
	cfg.Accesses = 400
	res, err := RunIntegrity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Measured sibling-hash reads: VerifyPath + UpdatePath each read at
	// most L per access.
	if res.HashReadsPerAccess > float64(2*cfg.LeafLevel) {
		t.Errorf("hash reads %.1f exceed 2L=%d", res.HashReadsPerAccess, 2*cfg.LeafLevel)
	}
	if res.HashWritesPerAccess > float64(cfg.LeafLevel+1) {
		t.Errorf("hash writes %.1f exceed L+1", res.HashWritesPerAccess)
	}
	// And the whole point: orders of magnitude below the strawman.
	if float64(res.StrawmanBound) < 10*res.HashReadsPerAccess {
		t.Errorf("strawman bound %d not >> measured %.1f", res.StrawmanBound, res.HashReadsPerAccess)
	}
	_ = res.Table().String()
}

func TestSettingHierarchyDZ3Pb32(t *testing.T) {
	h, err := DZ3Pb32.Hierarchy(1 << 25)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumORAMs() < 3 {
		t.Errorf("DZ3Pb32 H=%d want >=3 (paper: 4)", h.NumORAMs())
	}
}

func TestMeasureDummyRateSuperBlockCostsMore(t *testing.T) {
	// Section 3.2.3: statically merged super blocks behave like a smaller
	// Z, so they must need more dummy accesses at steady state.
	cells := smallSuperBlock()
	plain, err := dummyRate(cells, "DZ3Pb32")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := dummyRate(cells, "DZ3Pb32+SB")
	if err != nil {
		t.Fatal(err)
	}
	if sb <= plain {
		t.Errorf("super blocks dummy rate %.3f not above plain %.3f", sb, plain)
	}
}
