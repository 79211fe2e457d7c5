package exp

import (
	"fmt"
	"math"

	pathoram "repro"
	"repro/internal/analysis"
	"repro/internal/explore"
)

// The protocol figures (7-10) and the stash and super-block ablations are
// explore grids (internal/explore/figures.go); what this package adds is
// the paper's arithmetic on the measured rows — Equations 1 and 2 from
// internal/analysis at the paper's 128-byte blocks — and the table layout.

// Cell is one measured grid row joined with the Spec that produced it:
// the tree shape the sizing equations need sits in the Spec, the measured
// dummy rate in the row.
type Cell struct {
	Spec pathoram.Spec
	Row  explore.Row
}

// Cells joins rows measured on g with their Specs.
func Cells(g explore.Grid, rows []explore.Row) ([]Cell, error) {
	cells := make([]Cell, len(rows))
	for i, r := range rows {
		spec, err := g.Spec(r.Config)
		if err != nil {
			return nil, fmt.Errorf("exp: row %q: %w", r.Config, err)
		}
		cells[i] = Cell{spec, r}
	}
	return cells, nil
}

// Sweep measures g through explore.Run — the one loop that fills an ORAM
// and measures it — and joins the rows with their Specs.
func Sweep(g explore.Grid, opts explore.Options) ([]Cell, error) {
	rows, err := explore.Run(g, opts, nil)
	if err != nil {
		return nil, err
	}
	return Cells(g, rows)
}

// Infeasible reports a point whose dummy-access budget exploded (the
// paper's missing bars).
func (c Cell) Infeasible() bool { return c.Row.Metrics["infeasible"] != 0 }

// DummyRate is the measured steady-state DA/RA ratio, +Inf for an
// infeasible point.
func (c Cell) DummyRate() float64 {
	if c.Infeasible() {
		return math.Inf(1)
	}
	return c.Row.Metrics["dummy/real"]
}

func (c Cell) sizing() analysis.ORAMConfig {
	return analysis.ORAMConfig{
		LeafLevel: c.Spec.LeafLevel, Z: c.Spec.Z, BlockBytes: 128,
		ValidBlocks: c.Spec.Blocks, Scheme: analysis.SchemeCounter,
	}
}

// Utilization is the tree's achieved utilization.
func (c Cell) Utilization() float64 { return c.sizing().Utilization() }

// Overhead evaluates Equation 1 at the measured dummy rate.
func (c Cell) Overhead() float64 { return c.sizing().AccessOverhead(c.DummyRate()) }

// Best returns the feasible cell with the lowest Equation 1 overhead (nil
// if there is none).
func Best(cells []Cell) *Cell {
	var best *Cell
	for i := range cells {
		if c := &cells[i]; !c.Infeasible() && (best == nil || c.Overhead() < best.Overhead()) {
			best = c
		}
	}
	return best
}

// zTable renders one of the paper's Z-column figures (7, 8, 9): one row
// per distinct label, one column per distinct Z, both in first-seen order,
// with "-" where the point was infeasible (the paper's missing bars) or
// absent. shared describes what the cells have in common.
func zTable(title, rows string, shared func([]Cell) string, label, value func(Cell) string) func([]Cell) (*Table, error) {
	return func(cells []Cell) (*Table, error) {
		if len(cells) == 0 {
			return nil, fmt.Errorf("exp: %s: no cells", title)
		}
		t := &Table{Title: title, Header: []string{rows},
			Note: shared(cells) + "; '-' marks configurations whose dummy-access budget exploded (paper: missing bars)"}
		rowOf, colOf := map[string]int{}, map[int]int{}
		for _, c := range cells {
			if _, ok := colOf[c.Spec.Z]; !ok {
				colOf[c.Spec.Z] = len(t.Header)
				t.Header = append(t.Header, fmt.Sprintf("Z=%d", c.Spec.Z))
			}
			if _, ok := rowOf[label(c)]; !ok {
				rowOf[label(c)] = len(t.Rows)
				t.AddRow(label(c))
			}
		}
		for i := range t.Rows {
			for len(t.Rows[i]) < len(t.Header) {
				t.Rows[i] = append(t.Rows[i], "-")
			}
		}
		for _, c := range cells {
			if !c.Infeasible() {
				t.Rows[rowOf[label(c)]][colOf[c.Spec.Z]] = value(c)
			}
		}
		return t, nil
	}
}

// validBlocks describes the working sets the cells' trees realize: trees
// quantize, so one requested working set comes out as a slightly different
// valid-block count per (Z, utilization) (explore.TreeFor).
func validBlocks(cells []Cell) string {
	lo, hi := cells[0].Spec.Blocks, cells[0].Spec.Blocks
	for _, c := range cells {
		lo, hi = min(lo, c.Spec.Blocks), max(hi, c.Spec.Blocks)
	}
	if lo == hi {
		return fmt.Sprintf("%d valid blocks", lo)
	}
	return fmt.Sprintf("%d-%d valid blocks", lo, hi)
}

// capacity is a tree's size class, the paper's x axis in Figure 9: its
// Z*(2^(L+1)-1) block slots to the nearest power of two. The trees TreeFor
// builds for one working set and utilization share a class at every Z when
// their target is a power of two, as the presets' are.
func capacity(c Cell) string {
	slots := float64(c.Spec.Z) * float64(uint64(1)<<(c.Spec.LeafLevel+1)-1)
	return fmt.Sprintf("2^%.0f", math.Log2(slots))
}

func overhead(c Cell) string { return f1(c.Overhead()) }

// tabled adapts a runner whose result renders itself.
func tabled[R interface{ Table() *Table }](run func([]Cell) (R, error)) func([]Cell) (*Table, error) {
	return func(cells []Cell) (*Table, error) {
		res, err := run(cells)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

// Figures maps each figure preset of internal/explore to the renderer of
// its paper table.
var Figures = map[string]func([]Cell) (*Table, error){
	"fig7": zTable("Figure 7: dummy accesses / real accesses vs stash size", "stash size",
		func(cells []Cell) string {
			return fmt.Sprintf("%s at %.0f%% utilization", validBlocks(cells), 100*cells[0].Utilization())
		},
		func(c Cell) string { return fmt.Sprint(c.Spec.StashCapacity) },
		func(c Cell) string { return f3(c.DummyRate()) }),
	"fig8": zTable("Figure 8: access overhead vs utilization (Equation 1)", "utilization",
		func(cells []Cell) string {
			return fmt.Sprintf("%s, stash %d", validBlocks(cells), cells[0].Spec.StashCapacity)
		},
		func(c Cell) string { return fmt.Sprintf("%.1f%%", 100*c.Utilization()) },
		overhead),
	"fig9": zTable("Figure 9: access overhead vs capacity at fixed utilization", "capacity (block slots)",
		func(cells []Cell) string {
			return fmt.Sprintf("utilization %.0f%%, stash %d", 100*cells[0].Utilization(), cells[0].Spec.StashCapacity)
		},
		capacity, overhead),
	"fig10":             func(cells []Cell) (*Table, error) { return RunFig10(cells).Table(), nil },
	"ablate-stash":      tabled(RunStashAblation),
	"ablate-superblock": tabled(RunSuperBlockAblation),
}
