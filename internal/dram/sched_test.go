package dram

import (
	"math/rand"
	"testing"
)

// schedSys builds a system with the given scheduling config.
func schedSys(t *testing.T, channels int, cfg SchedConfig) *System {
	t.Helper()
	s := newSys(t, channels)
	if err := s.SetSched(cfg); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomBatch builds a batch mixing row locality (runs within one row)
// with bank and row conflicts, across every channel.
func randomBatch(rng *rand.Rand, s *System, n int) []Request {
	g := s.Geometry()
	unit := uint64(g.AccessBytes)
	cols := uint64(g.RowBytes / g.AccessBytes)
	reqs := make([]Request, 0, n)
	for len(reqs) < n {
		// A short sequential run from a random aligned start.
		start := rng.Uint64() % (1 << 24) * unit
		run := 1 + rng.Intn(6)
		for j := 0; j < run && len(reqs) < n; j++ {
			addr := start + uint64(j)*unit*uint64(g.Channels)
			_ = cols
			reqs = append(reqs, Request{Addr: addr, Write: rng.Intn(2) == 0})
		}
	}
	return reqs
}

// TestFRFCFSQueueDepthOneBitReproducesInOrder pins the degenerate case:
// a one-entry window has nothing to reorder, so FR-FCFS at QueueDepth 1
// must replay the strict in-order chaining bit for bit — identical
// per-request (arrival, completion) pairs and identical timing counters.
func TestFRFCFSQueueDepthOneBitReproducesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inorder := schedSys(t, 2, SchedConfig{Policy: SchedInOrder})
	frfcfs := schedSys(t, 2, SchedConfig{Policy: SchedFRFCFS, QueueDepth: 1})

	// The drain order over channels differs (the timed path finishes one
	// channel before the next; the legacy loop interleaves), but every
	// request's own (arrival, completion) pair must be identical.
	type ev struct{ arr, done uint64 }
	var a, b map[int]ev
	inorder.trace = func(i int, arr, done uint64) { a[i] = ev{arr, done} }
	frfcfs.trace = func(i int, arr, done uint64) { b[i] = ev{arr, done} }

	var at uint64
	for batch := 0; batch < 20; batch++ {
		reqs := randomBatch(rng, inorder, 1+rng.Intn(40))
		a, b = map[int]ev{}, map[int]ev{}
		d1 := inorder.AccessAll(at, reqs)
		d2 := frfcfs.AccessAll(at, reqs)
		if d1 != d2 {
			t.Fatalf("batch %d: completion %d (inorder) != %d (frfcfs qd=1)", batch, d1, d2)
		}
		if len(a) != len(b) {
			t.Fatalf("batch %d: trace lengths differ: %d vs %d", batch, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("batch %d request %d: inorder %+v != frfcfs %+v", batch, i, a[i], b[i])
			}
		}
		at = d1
	}
	st1, st2 := inorder.Stats(), frfcfs.Stats()
	// The open queue tracks its own occupancy; everything else must match.
	st2.QueueOccupancyPeak = st1.QueueOccupancyPeak
	if st1 != st2 {
		t.Fatalf("stats diverged:\ninorder %+v\nfrfcfs  %+v", st1, st2)
	}
}

// TestFRFCFSDrainsSameMultiset is the conservation property: whatever
// order the open queue picks, it issues exactly the submitted requests —
// each index once — and moves exactly the same read/write traffic as the
// in-order drain of the same batch.
func TestFRFCFSDrainsSameMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inorder := schedSys(t, 2, SchedConfig{Policy: SchedInOrder})
	frfcfs := schedSys(t, 2, SchedConfig{Policy: SchedFRFCFS})

	for batch := 0; batch < 10; batch++ {
		reqs := randomBatch(rng, inorder, 64)
		issued := make([]int, len(reqs))
		frfcfs.trace = func(i int, arr, done uint64) { issued[i]++ }
		frfcfs.AccessAll(0, reqs)
		frfcfs.trace = nil
		for i, n := range issued {
			if n != 1 {
				t.Fatalf("batch %d: request %d issued %d times", batch, i, n)
			}
		}
		inorder.AccessAll(0, reqs)
	}
	st1, st2 := inorder.Stats(), frfcfs.Stats()
	if st1.Reads != st2.Reads || st1.Writes != st2.Writes ||
		st1.DataBusBusyCycles != st2.DataBusBusyCycles {
		t.Fatalf("traffic conservation violated:\ninorder %+v\nfrfcfs  %+v", st1, st2)
	}
}

// TestFRFCFSStarvationBound is the fairness property behind the cap: no
// request is bypassed forever. A request at arrival position k within
// its channel must issue within k + QueueDepth*(StarvationCap+1) issue
// slots, whatever row-hit traffic the window holds.
func TestFRFCFSStarvationBound(t *testing.T) {
	const (
		qd  = 4
		cap = 3
	)
	rng := rand.New(rand.NewSource(7))
	s := schedSys(t, 1, SchedConfig{Policy: SchedFRFCFS, QueueDepth: qd, StarvationCap: cap})
	g := s.Geometry()
	rowSpan := uint64(g.RowBytes) * uint64(g.Banks) // same bank, next row (1 channel)
	unit := uint64(g.AccessBytes)

	// Adversarial stream: long sequential runs (row hits the scheduler
	// loves) with rare row-conflict requests buried inside them.
	var reqs []Request
	for i := 0; i < 256; i++ {
		addr := uint64(i%64) * unit
		if i%17 == 0 {
			addr += rowSpan * uint64(1+rng.Intn(3))
		}
		reqs = append(reqs, Request{Addr: addr})
	}

	slot := 0
	s.trace = func(i int, arr, done uint64) {
		if wait := slot - i; wait > qd*(cap+1) {
			t.Fatalf("request %d issued at slot %d: waited %d slots, bound is %d",
				i, slot, wait, qd*(cap+1))
		}
		slot++
	}
	s.AccessAll(0, reqs)
	if s.Stats().StarvationForced == 0 {
		t.Fatal("adversarial stream never tripped the starvation cap; the bound was not exercised")
	}
}

// TestFRFCFSBeatsInOrderOnConflictingStreams is the performance claim in
// miniature: two interleaved sequential streams mapping to different
// rows of the same bank are worst-case for in-order issue (every access
// conflicts) and easy for the open queue (group each row's hits). FR-FCFS
// must finish sooner and with a strictly higher row-hit rate.
func TestFRFCFSBeatsInOrderOnConflictingStreams(t *testing.T) {
	inorder := schedSys(t, 1, SchedConfig{Policy: SchedInOrder})
	frfcfs := schedSys(t, 1, SchedConfig{Policy: SchedFRFCFS})
	g := inorder.Geometry()
	unit := uint64(g.AccessBytes)
	rowSpan := uint64(g.RowBytes) * uint64(g.Banks)

	var reqs []Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, Request{Addr: uint64(i) * unit})         // row 0
		reqs = append(reqs, Request{Addr: rowSpan + uint64(i)*unit}) // row 1, same bank
	}
	d1 := inorder.AccessAll(0, reqs)
	d2 := frfcfs.AccessAll(0, reqs)
	if d2 >= d1 {
		t.Fatalf("frfcfs completion %d not better than inorder %d", d2, d1)
	}
	if h1, h2 := inorder.RowHitRate(), frfcfs.RowHitRate(); h2 <= h1 {
		t.Fatalf("frfcfs row-hit rate %.3f not better than inorder %.3f", h2, h1)
	}
	if frfcfs.Stats().QueueOccupancyPeak != DefaultQueueDepth {
		t.Fatalf("queue occupancy peak %d, want the full window %d",
			frfcfs.Stats().QueueOccupancyPeak, DefaultQueueDepth)
	}
}

// TestQueueOccupancyPeakOnlyUnderFRFCFS pins the counter's documented
// meaning: the in-order policy holds one request per channel by
// construction and leaves the peak 0 however the batch is submitted,
// while FR-FCFS reports its window — 1 at depth 1, the full depth once a
// channel holds that many requests.
func TestQueueOccupancyPeakOnlyUnderFRFCFS(t *testing.T) {
	for _, tc := range []struct {
		cfg  SchedConfig
		want uint64
	}{
		{SchedConfig{Policy: SchedInOrder}, 0},
		{SchedConfig{Policy: SchedFRFCFS, QueueDepth: 1}, 1},
		{SchedConfig{Policy: SchedFRFCFS, QueueDepth: 5}, 5},
	} {
		s := schedSys(t, 1, tc.cfg)
		tags := make([]Stats, 1)
		s.Enqueue(0, []uint64{0}, 32, false, 0)
		s.Drain(tags)
		if got := s.Stats().QueueOccupancyPeak; got != tc.want {
			t.Errorf("%+v: system queue peak %d, want %d", tc.cfg, got, tc.want)
		}
		if got := tags[0].QueueOccupancyPeak; got != tc.want {
			t.Errorf("%+v: tag queue peak %d, want %d", tc.cfg, got, tc.want)
		}
		s.AccessAll(s.Stats().LastCompletionCycle, []Request{{Addr: 0}, {Addr: 64}})
		if got := s.Stats().QueueOccupancyPeak; got != tc.want {
			t.Errorf("%+v: queue peak %d after AccessAll, want %d", tc.cfg, got, tc.want)
		}
	}
}
