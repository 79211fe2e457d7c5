package exp

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/treemath"
)

// Fig4Config parameterizes the common-path-length attack of Section 3.1.3:
// the adversary watches consecutive accessed paths and averages their CPL.
// Under the secure background-eviction scheme the average matches the
// uniform-leaf expectation 2 - 1/2^L regardless of workload; under the
// insecure block-remapping eviction it deviates measurably.
//
// Paper parameters: L=5, Z=1, threshold C - Z(L+1) = 2, 100 experiments.
// The magnitude (and even the sign) of the insecure bias depends on which
// blocks accumulate in the stash, which is implementation specific: the
// paper measures 1.79 (below the 1.969 expectation); our greedy eviction
// leaves recently-read path blocks congested, which biases the statistic
// upward instead. Either way |mean - expected| separates the schemes, which
// is the security claim. We therefore run two utilization regimes: the
// paper's low-utilization point (both schemes run; secure matches the
// expectation) and a congested point (insecure only — the secure scheme's
// dummy accesses cannot drain a 2-block threshold there) where the bias is
// unmistakable.
type Fig4Config struct {
	LeafLevel   int
	Z           int
	Headroom    int // threshold above Z(L+1)
	Experiments int
	Accesses    int // real accesses per experiment
	// Blocks is the low-utilization working set where both schemes run.
	Blocks uint64
	// CongestedBlocks is the high-utilization working set for the
	// insecure-only demonstration.
	CongestedBlocks uint64
	Seed            int64
}

// DefaultFig4 returns the paper's attack parameters. L=5 and Z=1 give 63
// slots; 24 blocks (38% utilization) keeps the secure scheme drainable
// with a 2-block threshold, 56 blocks (89%) is the congested regime.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		LeafLevel:       5,
		Z:               1,
		Headroom:        2,
		Experiments:     100,
		Accesses:        3000,
		Blocks:          24,
		CongestedBlocks: 56,
		Seed:            7,
	}
}

// Fig4Result aggregates per-experiment mean CPLs.
type Fig4Result struct {
	Config   Fig4Config
	Expected float64
	// Low-utilization regime (paper parameters).
	Secure, Insecure stats.Running
	// Congested regime, insecure scheme only.
	InsecureCongested stats.Running
	SecureDummyRate   float64
	InsecureEvictRate float64
}

// RunFig4 mounts the attack on both eviction schemes.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	tree := treemath.New(cfg.LeafLevel)
	res := &Fig4Result{Config: cfg, Expected: tree.ExpectedCPL()}
	var dumTot, evcTot, realTot float64
	for e := 0; e < cfg.Experiments; e++ {
		seed := cfg.Seed + int64(e)*17
		mean, real, dummies, err := runCPLExperiment(cfg, false, cfg.Blocks, seed)
		if err != nil {
			return nil, err
		}
		res.Secure.Observe(mean)
		dumTot += float64(dummies)
		realTot += float64(real)

		mean, _, evictions, err := runCPLExperiment(cfg, true, cfg.Blocks, seed)
		if err != nil {
			return nil, err
		}
		res.Insecure.Observe(mean)
		evcTot += float64(evictions)

		mean, _, _, err = runCPLExperiment(cfg, true, cfg.CongestedBlocks, seed)
		if err != nil {
			return nil, err
		}
		res.InsecureCongested.Observe(mean)
	}
	if realTot > 0 {
		res.SecureDummyRate = dumTot / realTot
		res.InsecureEvictRate = evcTot / realTot
	}
	return res, nil
}

// runCPLExperiment runs one experiment and returns the mean CPL between
// consecutive observed paths, the tree's real accesses (remapping accesses
// included), and the accesses eviction added: dummy accesses under the
// secure scheme, remapping accesses under the insecure one.
func runCPLExperiment(cfg Fig4Config, insecure bool, blocks uint64, seed int64) (mean float64, real, evictions uint64, err error) {
	tree := treemath.New(cfg.LeafLevel)
	var cpl stats.Running
	var prev uint64
	var havePrev bool
	p := core.Params{
		LeafLevel:          cfg.LeafLevel,
		Z:                  cfg.Z,
		Blocks:             blocks,
		StashCapacity:      cfg.Z*(cfg.LeafLevel+1) + cfg.Headroom,
		BackgroundEviction: !insecure,
		OnPathAccess: func(leaf uint64, kind core.AccessKind) {
			if havePrev {
				cpl.Observe(float64(tree.CommonPathLength(prev, leaf)))
			}
			prev, havePrev = leaf, true
		},
	}
	if insecure {
		// remapDrain holds the stash at Headroom between accesses; a stash
		// that fits every block never overflows while it works.
		p.StashCapacity = int(blocks) + cfg.Z*(cfg.LeafLevel+1)
	}
	o, src, err := buildMetaORAM(p, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < cfg.Accesses && err == nil; i++ {
		if _, err = o.Access(rng.Uint64()%blocks, core.OpWrite, nil); err == nil && insecure {
			var n uint64
			n, err = remapDrain(o, src, cfg.Headroom)
			evictions += n
		}
	}
	// A tripped livelock guard reports what was observed: the config is at
	// the edge.
	if err != nil && !errors.Is(err, core.ErrLivelock) {
		return 0, 0, 0, err
	}
	if !insecure {
		evictions = o.Stats().DummyAccesses
	}
	return cpl.Mean(), o.Stats().RealAccesses, evictions, nil
}

// remapDrain is the insecure block-remapping eviction of Section 3.1.3,
// here solely so the attack can be reproduced: while the stash holds more
// than headroom blocks, access a uniformly drawn stash block, which remaps
// it to a fresh leaf. That escapes congested paths but correlates
// consecutive accessed paths — the leak the attack detects. It returns the
// accesses it issued; core.DefaultMaxDummyRun of them in a row is
// core.ErrLivelock.
func remapDrain(o *core.ORAM, src core.LeafSource, headroom int) (n uint64, err error) {
	for o.StashSize() > headroom {
		if n >= core.DefaultMaxDummyRun {
			return n, core.ErrLivelock
		}
		addr := o.StashAddr(uniformIndex(src, o.StashSize()))
		if _, err := o.Access(addr, core.OpRead, nil); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// uniformIndex draws a uniform index in [0, n) from a power-of-two
// LeafSource by rejection sampling.
func uniformIndex(src core.LeafSource, n int) int {
	if n <= 1 {
		return 0
	}
	p := uint64(1) << bits.Len(uint(n-1)) // next power of two >= n
	for {
		if v := src.Leaf(p); v < uint64(n) {
			return int(v)
		}
	}
}

// Table renders the Figure 4 comparison.
func (r *Fig4Result) Table() *Table {
	bias := func(m float64) string { return fmt.Sprintf("%+.3f", m-r.Expected) }
	t := &Table{
		Title:  "Figure 4: average CPL between consecutively accessed paths",
		Header: []string{"scheme", "utilization", "mean CPL", "bias vs expected", "std"},
		Note: fmt.Sprintf("expected for uniform leaves: %.3f; L=%d, Z=%d, threshold=%d, %d experiments; "+
			"the paper's insecure bias is -0.18, ours is positive (see EXPERIMENTS.md) — both distinguishable",
			r.Expected, r.Config.LeafLevel, r.Config.Z, r.Config.Headroom, r.Config.Experiments),
	}
	lowU := fmt.Sprintf("%d/63 slots", r.Config.Blocks)
	hiU := fmt.Sprintf("%d/63 slots", r.Config.CongestedBlocks)
	t.AddRow("background eviction (secure)", lowU,
		f3(r.Secure.Mean()), bias(r.Secure.Mean()), f3(r.Secure.Std()))
	t.AddRow("block remapping (insecure)", lowU,
		f3(r.Insecure.Mean()), bias(r.Insecure.Mean()), f3(r.Insecure.Std()))
	t.AddRow("block remapping (insecure)", hiU,
		f3(r.InsecureCongested.Mean()), bias(r.InsecureCongested.Mean()), f3(r.InsecureCongested.Std()))
	return t
}

// buildMetaORAM wires a metadata-only ORAM with an on-chip map straight
// from core, returning the leaf source its remapping drain draws from: the
// insecure scheme is one Spec rightly cannot express.
func buildMetaORAM(p core.Params, seed int64) (*core.ORAM, core.LeafSource, error) {
	store, err := core.NewMemStore(p.LeafLevel, p.Z, 0)
	if err != nil {
		return nil, nil, err
	}
	src := core.NewMathLeafSource(rand.New(rand.NewSource(seed)))
	pos, err := core.NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	if err != nil {
		return nil, nil, err
	}
	o, err := core.New(p, store, pos, src)
	return o, src, err
}
