package exp

import (
	"fmt"

	pathoram "repro"
	"repro/internal/analysis"
	"repro/internal/membus"
)

// Setting names one hierarchical ORAM configuration from Section 4
// ("DZ3Pb32" = data ORAM Z=3, position-map ORAM blocks of 32 bytes).
type Setting struct {
	Name           string
	DataZ          int
	PosZ           int
	DataBlockBytes int
	PosBlockBytes  int
	Scheme         analysis.Scheme
	SuperBlock     int // 1 = off, 2 = the paper's static pairs
	// Layout selects the DRAM placement for latency studies (the zero
	// value is subtree; baseORAM lays out naively since it predates the
	// Section 3.3.4 optimization).
	Layout membus.Layout
	// SequentialOrder selects the Figure 5(a) per-ORAM read+write order
	// instead of the pipelined 5(b) order (baseORAM predates the Section
	// 3.3.2 optimization too).
	SequentialOrder bool
}

// The configurations evaluated in Figures 10-12 and Table 2.
var (
	// BaseORAM is the paper's baseline from the Ascend publication [3]:
	// three ORAMs, all with 128-byte blocks, Z=4, strawman encryption,
	// and the naive DRAM layout.
	BaseORAM = Setting{Name: "baseORAM", DataZ: 4, PosZ: 4,
		DataBlockBytes: 128, PosBlockBytes: 128, Scheme: analysis.SchemeStrawman,
		SuperBlock: 1, Layout: membus.LayoutNaive, SequentialOrder: true}
	DZ3Pb32 = Setting{Name: "DZ3Pb32", DataZ: 3, PosZ: 3,
		DataBlockBytes: 128, PosBlockBytes: 32, Scheme: analysis.SchemeCounter, SuperBlock: 1}
	DZ4Pb32 = Setting{Name: "DZ4Pb32", DataZ: 4, PosZ: 3,
		DataBlockBytes: 128, PosBlockBytes: 32, Scheme: analysis.SchemeCounter, SuperBlock: 1}
	DZ3Pb12 = Setting{Name: "DZ3Pb12", DataZ: 3, PosZ: 3,
		DataBlockBytes: 128, PosBlockBytes: 12, Scheme: analysis.SchemeCounter, SuperBlock: 1}
	DZ4Pb12 = Setting{Name: "DZ4Pb12", DataZ: 4, PosZ: 3,
		DataBlockBytes: 128, PosBlockBytes: 12, Scheme: analysis.SchemeCounter, SuperBlock: 1}
	// Super-block variants used in Figure 12.
	DZ3Pb32SB = Setting{Name: "DZ3Pb32+SB", DataZ: 3, PosZ: 3,
		DataBlockBytes: 128, PosBlockBytes: 32, Scheme: analysis.SchemeCounter, SuperBlock: 2}
	DZ4Pb32SB = Setting{Name: "DZ4Pb32+SB", DataZ: 4, PosZ: 3,
		DataBlockBytes: 128, PosBlockBytes: 32, Scheme: analysis.SchemeCounter, SuperBlock: 2}
)

// Hierarchy builds the bit-exact analytical hierarchy for a setting at the
// given working-set size (the paper's Figures 10-12 use 2^25 blocks = 4 GB).
func (s Setting) Hierarchy(wsBlocks uint64) (analysis.Hierarchy, error) {
	return analysis.BuildHierarchy(analysis.HierarchyConfig{
		WorkingSetBlocks: wsBlocks,
		DataUtilization:  0.5,
		DataZ:            s.DataZ,
		DataBlockBytes:   s.DataBlockBytes,
		PosZ:             s.PosZ,
		PosBlockBytes:    s.PosBlockBytes,
		DataScheme:       s.Scheme,
		PosScheme:        s.Scheme,
	})
}

// settingOf names the Section 4 setting a hierarchy grid point builds:
// baseORAM when it has baseORAM's shape, otherwise DZ<Z>Pb<bytes>, with
// "+SB" for the paper's static pairs and "+S<n>" for other group sizes.
func settingOf(spec pathoram.Spec) Setting {
	if spec.Z == BaseORAM.DataZ && spec.PosZ == BaseORAM.PosZ && spec.PosBlockSize == BaseORAM.PosBlockBytes {
		return BaseORAM
	}
	s := Setting{
		Name:  fmt.Sprintf("DZ%dPb%d", spec.Z, spec.PosBlockSize),
		DataZ: spec.Z, PosZ: spec.PosZ,
		DataBlockBytes: 128, PosBlockBytes: spec.PosBlockSize,
		Scheme: analysis.SchemeCounter, SuperBlock: max(1, spec.SuperBlockSize),
	}
	switch {
	case s.SuperBlock == 2:
		s.Name += "+SB"
	case s.SuperBlock > 2:
		s.Name += fmt.Sprintf("+S%d", s.SuperBlock)
	}
	return s
}
