package core

import "testing"

func TestStatsMerge(t *testing.T) {
	a := Stats{
		RealAccesses: 10, DummyAccesses: 4, PaddingAccesses: 8,
		Stores: 2, StashPeak: 30, BlocksInORAM: 100, MaxDummyRun: 3,
	}
	b := Stats{
		RealAccesses: 5, DummyAccesses: 6, PaddingAccesses: 2,
		Stores: 1, StashPeak: 25, BlocksInORAM: 50, MaxDummyRun: 7,
	}
	m := a.Merge(b)
	want := Stats{
		RealAccesses: 15, DummyAccesses: 10, PaddingAccesses: 10,
		Stores: 3, StashPeak: 30, BlocksInORAM: 150, MaxDummyRun: 7,
	}
	if m != want {
		t.Errorf("Merge = %+v, want %+v", m, want)
	}
	if r := b.Merge(a); r != want {
		t.Errorf("Merge is not commutative: %+v vs %+v", r, want)
	}
	if z := (Stats{}).Merge(Stats{}); z != (Stats{}) {
		t.Errorf("zero merge = %+v", z)
	}
	// Merging a zero value is the identity.
	if id := a.Merge(Stats{}); id != a {
		t.Errorf("identity merge = %+v, want %+v", id, a)
	}
}

// ResetStats must preserve the BlocksInORAM occupancy gauge: zeroing it
// would let the next Load of a resident block underflow the counter.
func TestResetStatsPreservesOccupancy(t *testing.T) {
	p := Params{LeafLevel: 4, Z: 4, Blocks: 32, StashCapacity: 60, BackgroundEviction: true}
	o, _, _ := newTestORAM(t, p, 11)
	if _, err := o.Access(1, OpWrite, nil); err != nil {
		t.Fatal(err)
	}
	o.ResetStats()
	st := o.Stats()
	if st.BlocksInORAM != 1 {
		t.Fatalf("BlocksInORAM after reset = %d, want 1", st.BlocksInORAM)
	}
	if st.RealAccesses != 0 || st.StashPeak != 0 {
		t.Errorf("counters not cleared: %+v", st)
	}
	if _, _, _, err := o.Load(1); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().BlocksInORAM; got != 0 {
		t.Errorf("BlocksInORAM after Load = %d, want 0 (underflow if huge)", got)
	}
}
