package explore

import (
	"fmt"
	"math"
)

// The paper's protocol figures (Section 4.1) and the two protocol
// ablations are sweeps over Spec, so they are grids: each generator below
// returns the figure at a given working-set size, Presets registers them at
// the scaled default sizes (the paper's trees hold 2^25 blocks), and
// internal/exp renders the measured rows as the paper's tables. All of them
// are metadata-only and run the uniform workload: what they measure is the
// dummy-access rate, the dummy/real metric.

// TreeFor sizes a tree for a sweep point: the leaf level is chosen so the
// slot count Z*(2^(L+1)-1) is nearest wsBlocks/utilization in log space,
// and the valid-block count is then derived as utilization * slots, so the
// achieved utilization is exact. (Complete binary trees quantize capacity;
// the paper's utilization axis can only be realized this way — e.g. 80%
// at Z=1 has no power-of-two tree for a fixed working set.)
func TreeFor(wsBlocks uint64, utilization float64, z int) (leafLevel int, valid uint64) {
	if utilization <= 0 || utilization > 1 {
		utilization = 1
	}
	target := float64(wsBlocks) / utilization / float64(z) // desired bucket count
	l := int(math.Round(math.Log2(target + 1)))
	l = max(1, min(l, 30))
	leafLevel = l - 1
	slots := uint64(z) * (1<<uint(l) - 1)
	valid = uint64(math.Round(utilization * float64(slots)))
	return leafLevel, max(1, min(valid, slots))
}

// TreeAxis is the axis of TreeFor trees over working set x Z x
// utilization (utilization fastest). The three do not cross as flags —
// every combination has its own depth and block count, and Spec's own
// -utilization sizing only ever rounds the tree up, so it cannot hit 80% —
// hence one alternative per combination, spelling the tree out.
func TreeAxis(wss []uint64, zs []int, utilizations ...float64) []string {
	var alts []string
	for _, ws := range wss {
		for _, z := range zs {
			for _, u := range utilizations {
				l, valid := TreeFor(ws, u, z)
				alts = append(alts, fmt.Sprintf("-z %d -leaf-level %d -blocks %d", z, l, valid))
			}
		}
	}
	return alts
}

// treeGrid is a flat-tree figure at the paper's stash capacity C = 200
// (Section 4.1.2), which Figure 7's own stash axis overrides.
func treeGrid(axes ...[]string) Grid {
	return Grid{Base: "-blocksize 0 -stash 200", Axes: axes, Workloads: []string{"uniform"}}
}

// Fig7Grid is Figure 7: dummy/real ratio against stash size for Z = 1..3
// at 50% utilization (paper: 4 GB ORAM, 2 GB working set).
func Fig7Grid(ws uint64) Grid {
	return treeGrid(TreeAxis([]uint64{ws}, []int{1, 2, 3}, 0.5),
		[]string{"-stash 100", "-stash 200", "-stash 400", "-stash 800"})
}

// Fig8Grid is Figure 8: the utilization sweep for each Z at stash 200.
// Z=1 above ~2/3 utilization comes back infeasible — the paper's missing
// bars.
func Fig8Grid(ws uint64) Grid {
	return treeGrid(TreeAxis([]uint64{ws}, []int{1, 2, 3, 4, 8},
		0.02, 0.05, 0.125, 0.25, 0.50, 0.67, 0.75, 0.80))
}

// Fig9Grid is Figure 9: capacity against Z at 50% utilization (paper:
// 1 MB to 16 GB).
func Fig9Grid(wss ...uint64) Grid {
	return treeGrid(TreeAxis(wss, []int{1, 2, 3, 4}, 0.5))
}

// hierarchyGrid measures dummy rates on a scaled functional hierarchy:
// the rate depends on Z, utilization and stash headroom far more than on
// absolute capacity (Figure 9), so Figures 10 and 12 read it here and size
// the analytical hierarchy at paper scale. Position-map levels always
// carry payloads, so encryption is switched off by name.
func hierarchyGrid(ws uint64, setting string, axes ...[]string) Grid {
	return Grid{
		Base:      fmt.Sprintf("-blocks %d -blocksize 0 -encrypt none -posmap recursive -onchip-max 1024 %s", ws, setting),
		Axes:      axes,
		Workloads: []string{"uniform"},
	}
}

// Fig10Grid is the measured half of Figure 10: position-map block sizes
// {8,12,16,32,64} for data Z in {3,4} ("DZ3Pb32"), then baseORAM (Z=4
// everywhere, 128-byte position-map blocks).
func Fig10Grid(ws uint64) Grid {
	var settings []string
	for _, z := range []int{3, 4} {
		for _, pb := range []int{8, 12, 16, 32, 64} {
			settings = append(settings, fmt.Sprintf("-z %d -pos-z 3 -pos-block %d", z, pb))
		}
	}
	return hierarchyGrid(ws, "-stash 200", append(settings, "-z 4 -pos-z 4 -pos-block 128"))
}

// SuperBlockGrid is the protocol side of the super-block ablation
// (Section 3.2 fixes |S| = 2): DZ3Pb32 and DZ4Pb32 at |S| in {1,2,4}.
func SuperBlockGrid(ws uint64) Grid {
	return hierarchyGrid(ws, "-stash 200 -pos-z 3 -pos-block 32",
		[]string{"-z 3", "-z 4"}, []string{"-superblock 1", "-superblock 2", "-superblock 4"})
}

// StashGrid is the stash-capacity ablation on DZ3Pb32+SB, complementing
// Figure 7 at the hierarchy level (the paper picks C = 200).
func StashGrid(ws uint64) Grid {
	return hierarchyGrid(ws, "-z 3 -pos-z 3 -pos-block 32 -superblock 2",
		[]string{"-stash 120", "-stash 160", "-stash 200", "-stash 300", "-stash 400"})
}
