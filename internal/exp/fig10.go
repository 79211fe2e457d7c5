package exp

import "fmt"

// PaperWorkingSet is the scale the analytical hierarchies are sized at:
// 2^25 blocks = 4 GB of 128-byte blocks (Figures 10-12, Table 2).
const PaperWorkingSet uint64 = 1 << 25

// Fig10Row is one configuration's breakdown: the stack the paper plots
// is each ORAM's contribution to Equation 2.
type Fig10Row struct {
	Setting   Setting
	DummyRate float64
	Breakdown []float64 // per-ORAM contribution to Equation 2
	Total     float64
	NumORAMs  int
	PosMapKB  float64 // final on-chip map
	Err       string  // non-empty if the config failed to size
}

// Fig10Result holds all configurations.
type Fig10Result struct {
	Rows []Fig10Row
}

// RunFig10 sizes the hierarchy of every cell's setting analytically at
// paper scale (bit-exact) and evaluates Equation 2 at the dummy rate the
// fig10 grid measured on its scaled functional hierarchy.
func RunFig10(cells []Cell) *Fig10Result {
	res := &Fig10Result{}
	for _, c := range cells {
		row := Fig10Row{Setting: settingOf(c.Spec), DummyRate: c.DummyRate()}
		h, err := row.Setting.Hierarchy(PaperWorkingSet)
		switch {
		case err != nil:
			row.Err = err.Error()
		case c.Infeasible():
			row.Err = "infeasible: dummy-access budget exploded"
		default:
			row.Breakdown = h.OverheadBreakdown(row.DummyRate)
			row.Total = h.AccessOverhead(row.DummyRate)
			row.NumORAMs = h.NumORAMs()
			row.PosMapKB = float64(h.OnChipPosMapBits) / 8 / 1024
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders the Figure 10 stacked bars as columns per ORAM.
func (r *Fig10Result) Table() *Table {
	maxORAMs := 0
	for _, row := range r.Rows {
		if row.NumORAMs > maxORAMs {
			maxORAMs = row.NumORAMs
		}
	}
	t := &Table{
		Title:  "Figure 10: hierarchical access-overhead breakdown (Equation 2)",
		Header: []string{"config", "H", "DA/RA", "total"},
		Note:   "per-ORAM columns are each level's contribution; posmap KB is the final on-chip map",
	}
	for i := 1; i <= maxORAMs; i++ {
		t.Header = append(t.Header, fmt.Sprintf("ORAM%d", i))
	}
	t.Header = append(t.Header, "posmap KB")
	for _, row := range r.Rows {
		if row.Err != "" {
			t.AddRow(row.Setting.Name, "-", "-", "error: "+row.Err)
			continue
		}
		cells := []string{row.Setting.Name, fmt.Sprintf("%d", row.NumORAMs), f3(row.DummyRate), f1(row.Total)}
		for i := 0; i < maxORAMs; i++ {
			if i < len(row.Breakdown) {
				cells = append(cells, f1(row.Breakdown[i]))
			} else {
				cells = append(cells, "")
			}
		}
		cells = append(cells, f1(row.PosMapKB))
		t.AddRow(cells...)
	}
	return t
}

// Find returns the row for a named setting (nil if absent).
func (r *Fig10Result) Find(name string) *Fig10Row {
	for i := range r.Rows {
		if r.Rows[i].Setting.Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// ReductionVsBase returns 1 - overhead(name)/overhead(baseORAM), the
// paper's headline 41.8% metric.
func (r *Fig10Result) ReductionVsBase(name string) (float64, error) {
	base := r.Find("baseORAM")
	opt := r.Find(name)
	if base == nil || opt == nil || base.Err != "" || opt.Err != "" {
		return 0, fmt.Errorf("exp: missing rows for reduction (%q vs baseORAM)", name)
	}
	return 1 - opt.Total/base.Total, nil
}
