package dram

import (
	"math/rand"
	"testing"
)

// Differential test of the production issue loop (Enqueue/Drain) against
// the verbatim pre-rewrite reference in sched_ref_test.go. Both the
// seeded property test and the fuzz target decode one byte string into a
// scheduler configuration and a sequence of batches, play it into a
// production system and a reference system, and require every observable
// to agree exactly.

// diffGeometry is deliberately tiny (8 columns, 4 banks) so that short
// runs of consecutive bursts keep crossing column, bank and row
// boundaries.
func diffGeometry(channels int) Geometry {
	return Geometry{Channels: channels, Banks: 4, RowBytes: 512, AccessBytes: 64}
}

type issue struct {
	idx       int
	arr, done uint64
}

// checkDrainEquivalence decodes data and compares the two loops. Layout:
// 4 header bytes (channels 1–4, queue depth 1–16, starvation cap 1–8,
// refresh on/off + 1–4 tags), then 5 bytes per run of consecutive bursts
// (start unit lo/hi, length 1–8 + write + tag, arrival advance 0–255,
// flags: start a new batch, jump the clock towards the next refresh).
// Start units wrap at four rows per bank so that row hits, conflicts and
// starvation forcing all occur. It returns the production system's
// closing counters.
func checkDrainEquivalence(t *testing.T, data []byte) Stats {
	t.Helper()
	if len(data) < 4 {
		return Stats{}
	}
	channels := 1 + int(data[0]%4)
	cfg := SchedConfig{Policy: SchedFRFCFS, QueueDepth: 1 + int(data[1]%16), StarvationCap: 1 + int(data[2]%8)}
	tm := DDR3Micron()
	if data[3]&1 == 0 {
		tm.TREFI = 0
	}
	ntags := 1 + int(data[3]>>1)%4
	g := diffGeometry(channels)

	build := func() *System {
		s, err := New(g, tm)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetSched(cfg); err != nil {
			t.Fatal(err)
		}
		return s
	}
	got, ref := build(), build()
	var gotTrace, refTrace []issue
	got.trace = func(i int, arr, done uint64) { gotTrace = append(gotTrace, issue{i, arr, done}) }
	ref.trace = func(i int, arr, done uint64) { refTrace = append(refTrace, issue{i, arr, done}) }

	unit := uint64(g.AccessBytes)
	space := uint64(channels * g.RowBytes / g.AccessBytes * g.Banks * 4)
	var at uint64
	var refReqs []refTimedRequest
	batch := 0
	flush := func() {
		t.Helper()
		gotTags := make([]Stats, ntags)
		refTags, refDone := make([]Stats, ntags), make([]uint64, ntags)
		gotTrace, refTrace = gotTrace[:0], refTrace[:0]
		d1 := got.Drain(gotTags)
		d2 := ref.refAccessAllTimed(refReqs, refDone, refTags)
		refReqs = refReqs[:0]
		if d1 != d2 {
			t.Fatalf("batch %d: Drain returned %d, reference %d", batch, d1, d2)
		}
		if len(gotTrace) != len(refTrace) {
			t.Fatalf("batch %d: issued %d requests, reference %d", batch, len(gotTrace), len(refTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != refTrace[i] {
				t.Fatalf("batch %d issue slot %d: (idx, arrival, done) = %+v, reference %+v", batch, i, gotTrace[i], refTrace[i])
			}
		}
		for tag := range gotTags {
			if gotTags[tag] != refTags[tag] {
				t.Fatalf("batch %d tag %d stats:\n got %+v\n ref %+v", batch, tag, gotTags[tag], refTags[tag])
			}
			if gotTags[tag].LastCompletionCycle != refDone[tag] {
				t.Fatalf("batch %d tag %d completion %d, reference tagDone %d", batch, tag, gotTags[tag].LastCompletionCycle, refDone[tag])
			}
		}
		if got.Stats() != ref.Stats() {
			t.Fatalf("batch %d system stats:\n got %+v\n ref %+v", batch, got.Stats(), ref.Stats())
		}
		batch++
	}
	for rec := data[4:]; len(rec) >= 5; rec = rec[5:] {
		if rec[4] < 32 {
			flush()
		}
		if rec[4]&0x40 != 0 {
			at += 3000
		}
		at += uint64(rec[3])
		addr := (uint64(rec[0]) | uint64(rec[1])<<8) % space * unit
		n, write, tag := 1+int(rec[2]&7), rec[2]&8 != 0, int(rec[2]>>4)%ntags
		got.Enqueue(at, addr, n, write, tag)
		for i := 0; i < n; i++ {
			refReqs = append(refReqs, refTimedRequest{Addr: addr + uint64(i)*unit, Write: write, At: at, Tag: tag})
		}
	}
	flush()

	// Bank and bus state: a follow-up access to every bank must complete
	// at the same cycle on both systems.
	got.trace, ref.trace = nil, nil
	at += 10000
	for ch := 0; ch < channels; ch++ {
		for b := 0; b < g.Banks; b++ {
			addr := uint64((1*g.Banks+b)*(g.RowBytes/g.AccessBytes)*channels+ch) * unit
			if d1, d2 := got.Access(at, addr, false), ref.refAccess(at, addr, false); d1 != d2 {
				t.Fatalf("probe channel %d bank %d completed at %d, reference %d", ch, b, d1, d2)
			}
		}
	}
	if got.Stats() != ref.Stats() {
		t.Fatalf("stats after probes:\n got %+v\n ref %+v", got.Stats(), ref.Stats())
	}
	return got.Stats()
}

// diffCase draws one random input for checkDrainEquivalence.
func diffCase(rng *rand.Rand) []byte {
	data := make([]byte, 4+5*(1+rng.Intn(120)))
	rng.Read(data)
	return data
}

func TestDrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sum Stats
	for i := 0; i < 2000; i++ {
		sum = sum.Merge(checkDrainEquivalence(t, diffCase(rng)))
	}
	if sum.RowHits == 0 || sum.RowMisses == 0 || sum.Refreshes == 0 || sum.StarvationForced == 0 ||
		sum.BankOverlapActs == 0 || sum.QueueOccupancyPeak != 16 {
		t.Fatalf("inputs left part of the loop unexercised: %+v", sum)
	}
}

func FuzzDrainEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 16; i++ {
		f.Add(diffCase(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDrainEquivalence(t, data) })
}
