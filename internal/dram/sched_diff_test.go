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
// 4 header bytes (channels 1–4, queue depth 1–16, starvation cap 1–8 and
// tCCD 2/4/6, refresh on/off + 1–4 tags), then 5 bytes per record (start
// unit lo/hi, length + write + tag, arrival advance 0–255, flags:
// path-shaped, start a new batch, jump the clock towards the next
// refresh). A plain record is a run of 1–8 consecutive bursts. A
// path-shaped one is what a packed subtree's bucket walk gives the
// controller: 4–64 bursts (rounded up to whole row spans) at one arrival,
// all in the row (on every channel) its start unit falls in, enqueued a
// row span per address in one Enqueue call; its flags byte carries its
// direction and tag. Start units wrap at four rows per bank so that row
// hits, conflicts and starvation forcing all occur, and so that path
// records keep meeting a row again with another direction or tag. It
// returns the production system's closing counters and the longest streak
// its issue loop took in one pass.
func checkDrainEquivalence(t *testing.T, data []byte) (Stats, uint64) {
	t.Helper()
	if len(data) < 4 {
		return Stats{}, 0
	}
	channels := 1 + int(data[0]%4)
	cfg := SchedConfig{Policy: SchedFRFCFS, QueueDepth: 1 + int(data[1]%16), StarvationCap: 1 + int(data[2]%8)}
	tm := DDR3Micron()
	tm.TCCD = 2 + 2*(int(data[2]>>3)%3) // below, at and above TBURST
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
	span := uint64(channels * g.RowBytes / g.AccessBytes) // units in one row of every channel
	var addrs []uint64
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
		addrs = append(addrs[:0], addr)
		if rec[4]&0x80 != 0 {
			n, write, tag = 4+int(rec[2])%61, rec[4]&1 != 0, int(rec[4]>>1)%ntags
			addr -= addr % (span * unit)
			addrs = addrs[:0]
			for left := n; left > 0; left -= int(span) {
				addrs = append(addrs, addr)
			}
			n = min(n, int(span))
		}
		got.Enqueue(at, addrs, n, write, tag)
		for _, a := range addrs {
			for i := 0; i < n; i++ {
				refReqs = append(refReqs, refTimedRequest{Addr: a + uint64(i)*unit, Write: write, At: at, Tag: tag})
			}
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
	return got.Stats(), got.longestStreak
}

// pathRecord encodes one path-shaped record for checkDrainEquivalence: n
// (4–64) bursts in the row of unit, arriving adv cycles (plus 3000 when
// jump) after the record before.
func pathRecord(unit uint16, n int, adv byte, jump, write bool, tag int) []byte {
	flags := byte(0x80 | tag<<1)
	if jump {
		flags |= 0x40
	}
	if write {
		flags |= 1
	}
	return []byte{byte(unit), byte(unit >> 8), byte(n - 4), adv, flags}
}

// TestStreakEdges puts the cases that end a streak, or must not, in front
// of the reference on every depth the window-admission raise binds at
// (1–3) and on one to three channels: a 64-burst path whose streak runs
// into the first refresh (TREFI 5200), and one row met again with the
// other direction and then another tag.
func TestStreakEdges(t *testing.T) {
	for channels := 1; channels <= 3; channels++ {
		for depth := 1; depth <= 3; depth++ {
			data := []byte{byte(channels - 1), byte(depth - 1), 3, 1 | 1<<1} // refresh on, two tags
			data = append(data, pathRecord(0, 64, 255, true, false, 0)...)   // arrives at 3255
			for i := 0; i < 6; i++ {
				data = append(data, 200, 0, 0x1b, 255, 32) // a 4-burst plain write to another row
			}
			data = append(data, pathRecord(0, 64, 255, false, false, 1)...) // arrives at 5040
			data = append(data, pathRecord(0, 64, 0, false, true, 1)...)
			data = append(data, pathRecord(0, 64, 0, false, true, 0)...)
			if _, longest := checkDrainEquivalence(t, data); channels < 3 && longest < 30 {
				t.Errorf("%d channels, depth %d: longest streak %d", channels, depth, longest)
			}
		}
	}
}

// diffCase draws one random input for checkDrainEquivalence.
func diffCase(rng *rand.Rand) []byte {
	data := make([]byte, 4+5*(1+rng.Intn(120)))
	rng.Read(data)
	return data
}

// TestDrainMatchesReference runs with the trace hook set, so its floor on
// the longest streak also shows that tracing leaves the streak path on.
func TestDrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sum Stats
	var longest uint64
	for i := 0; i < 2000; i++ {
		st, streak := checkDrainEquivalence(t, diffCase(rng))
		sum, longest = sum.Merge(st), max(longest, streak)
	}
	if sum.RowHits == 0 || sum.RowMisses == 0 || sum.Refreshes == 0 || sum.StarvationForced == 0 ||
		sum.BankOverlapActs == 0 || sum.QueueOccupancyPeak != 16 || longest < 30 {
		t.Fatalf("inputs left part of the loop unexercised: longest streak %d, %+v", longest, sum)
	}
}

func FuzzDrainEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 16; i++ {
		f.Add(diffCase(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDrainEquivalence(t, data) })
}
