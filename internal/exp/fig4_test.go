package exp

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestInsecureRemapPolicyDrains(t *testing.T) {
	p := core.Params{
		LeafLevel: 5, Z: 1, BlockBytes: 0, Blocks: 48,
		StashCapacity: 48 + 1*(5+1), // holds every block; remapDrain bounds it
	}
	const headroom = 4
	var dummies int
	p.OnPathAccess = func(_ uint64, k core.AccessKind) {
		if k == core.KindDummy {
			dummies++
		}
	}
	o, src, err := buildMetaORAM(p, 19)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var evictions uint64
	for i := 0; i < 2000; i++ {
		if _, err := o.Access(rng.Uint64()%p.Blocks, core.OpWrite, nil); err != nil {
			t.Fatal(err)
		}
		n, err := remapDrain(o, src, headroom)
		if err != nil {
			t.Fatal(err)
		}
		evictions += n
		if o.StashSize() > headroom {
			t.Fatalf("stash above threshold under remap policy")
		}
	}
	if evictions == 0 {
		t.Error("remap policy never issued eviction accesses")
	}
	if dummies != 0 {
		t.Error("remap policy must not issue dummy accesses")
	}
}

func TestUniformIndex(t *testing.T) {
	src := core.NewMathLeafSource(rand.New(rand.NewSource(77)))
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		idx := uniformIndex(src, 5)
		if idx < 0 || idx >= 5 {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("index %d drawn %d times, want ~10000", v, c)
		}
	}
	if uniformIndex(src, 1) != 0 {
		t.Error("n=1 must return 0")
	}
}
