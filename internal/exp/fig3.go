package exp

import (
	"fmt"
	"math/rand"

	pathoram "repro"
	"repro/internal/explore"
	"repro/internal/stats"
)

// Fig3Config parameterizes the stash-occupancy study (Figure 3): an ORAM
// with an infinite stash and no background eviction, filled to the target
// utilization and then sampled after every access — per-access
// observation, which is why this figure is a runner and not a grid. The
// paper uses a 4 GB ORAM with a 2 GB working set; occupancy distributions
// depend on Z and utilization, not absolute capacity, so the default is
// scaled down.
type Fig3Config struct {
	WorkingSetBlocks uint64
	Utilization      float64
	Zs               []int
	// AccessesPerBlock: the paper simulates 10*N accesses.
	AccessesPerBlock int
	Thresholds       []int
	Seed             int64
}

// DefaultFig3 returns the scaled default configuration.
func DefaultFig3() Fig3Config {
	return Fig3Config{
		WorkingSetBlocks: 1 << 15,
		Utilization:      0.5,
		Zs:               []int{1, 2, 3, 4},
		AccessesPerBlock: 10,
		Thresholds:       []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
		Seed:             1,
	}
}

// Fig3Result carries the per-Z occupancy histograms.
type Fig3Result struct {
	Config     Fig3Config
	Histograms map[int]*stats.Histogram // by Z
}

// RunFig3 fills each ORAM, then samples stash occupancy after every access.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	res := &Fig3Result{
		Config:     cfg,
		Histograms: map[int]*stats.Histogram{},
	}
	for _, z := range cfg.Zs {
		leafLevel, valid := explore.TreeFor(cfg.WorkingSetBlocks, cfg.Utilization, z)
		// A stash that holds every block plus a path never reaches the
		// background-eviction threshold: the paper's infinite stash.
		o, err := pathoram.New(pathoram.Spec{
			Blocks: valid, LeafLevel: leafLevel, Z: z,
			StashCapacity: int(valid) + z*(leafLevel+1),
			Rand:          rand.New(rand.NewSource(cfg.Seed + int64(z))),
		})
		if err != nil {
			return nil, err
		}
		for b := uint64(0); b < valid; b++ {
			if err := o.Write(b, nil); err != nil {
				return nil, err
			}
		}
		h := stats.NewHistogram(1 << 16)
		rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(z)))
		n := int(valid) * cfg.AccessesPerBlock
		for i := 0; i < n; i++ {
			if err := o.Write(rng.Uint64()%valid, nil); err != nil {
				return nil, err
			}
			h.Observe(o.StashSize())
		}
		res.Histograms[z] = h
	}
	return res, nil
}

// Table renders P(stash occupancy >= m) per Z, the quantity Figure 3 plots.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:  "Figure 3: P(blocks in stash >= m), infinite stash, no background eviction",
		Header: []string{"m"},
		Note: fmt.Sprintf("~%d-block working set at %.0f%% utilization, %d accesses per block, steady state",
			r.Config.WorkingSetBlocks, 100*r.Config.Utilization, r.Config.AccessesPerBlock),
	}
	for _, z := range r.Config.Zs {
		t.Header = append(t.Header, fmt.Sprintf("Z=%d", z))
	}
	for _, m := range r.Config.Thresholds {
		row := []string{fmt.Sprintf("%d", m)}
		for _, z := range r.Config.Zs {
			row = append(row, sci(r.Histograms[z].TailProb(m)))
		}
		t.AddRow(row...)
	}
	return t
}
