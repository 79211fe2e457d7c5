// Package exp regenerates every table and figure of the paper's
// evaluation (Sections 4 and 5) as a Table whose rows mirror what the paper
// plots; cmd/oram-explore prints them and this package's benchmarks attach
// their headline numbers. A figure is an internal/explore preset, rendered
// here from its measured rows (grids.go), unless it needs per-access
// observation (Figure 3), a policy Spec refuses (Figure 4), a counter no
// Client exports (Section 5) or paper-scale trees that cannot be
// materialized (Figures 5, 11, 12 and Table 2) — those keep a runner.
// Default problem sizes are scaled down from the paper's 4-8 GB ORAMs so
// the suite runs in seconds (see EXPERIMENTS.md for the scales used).
package exp

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func sci(v float64) string { return fmt.Sprintf("%.2e", v) }
