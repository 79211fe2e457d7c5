package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestCTScanCountInvariant pins the constant-time contract at the scan
// level: every lookup visits exactly window slots — a function of the
// stash capacity fixed at construction, never of where the block sits or
// whether it is present at all.
func TestCTScanCountInvariant(t *testing.T) {
	for _, window := range []int{16, 64} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			s := stash{slab: Slab{size: 16}}
			s.initCT(window)
			// Ten live entries at addresses 100..109.
			for i := 0; i < 10; i++ {
				s.add(uint64(100+i), 0)
			}
			scans := func(f func()) uint64 {
				before := s.scanSlots
				f()
				return s.scanSlots - before
			}
			dst := make([]byte, 16)
			cases := []struct {
				name string
				op   func()
			}{
				{"find-hit-first", func() { s.ctFind(100) }},
				{"find-hit-last", func() { s.ctFind(109) }},
				{"find-miss", func() { s.ctFind(999) }},
				{"read-hit-first", func() { s.ctReadInto(100, dst) }},
				{"read-hit-last", func() { s.ctReadInto(109, dst) }},
				{"read-miss", func() { s.ctReadInto(999, dst) }},
				{"write-hit-first", func() { s.ctWriteData(100, dst) }},
				{"write-hit-last", func() { s.ctWriteData(109, dst) }},
				{"write-miss", func() { s.ctWriteData(999, dst) }},
			}
			for _, c := range cases {
				if got := scans(c.op); got != uint64(window) {
					t.Errorf("%s scanned %d slots, want the full window %d", c.name, got, window)
				}
			}
		})
	}
}

// TestCTScanResults checks that the masked scans compute the same answers
// as the legacy early-exit scans they replace.
func TestCTScanResults(t *testing.T) {
	s := stash{slab: Slab{size: 8}}
	s.initCT(16)
	payload := []byte("01234567")
	for i := 0; i < 5; i++ {
		d := s.add(uint64(10+i), uint32(i))
		copy(d, payload)
		d[0] = byte('a' + i)
	}
	if got := s.ctFind(12); got != 2 {
		t.Errorf("ctFind(12) = %d, want 2", got)
	}
	if got := s.ctFind(99); got != -1 {
		t.Errorf("ctFind(99) = %d, want -1", got)
	}
	dst := bytes.Repeat([]byte{0xEE}, 8)
	if hit := s.ctReadInto(13, dst); hit != 1 || dst[0] != 'd' {
		t.Errorf("ctReadInto hit=%d dst=%q", hit, dst)
	}
	miss := bytes.Repeat([]byte{0xEE}, 8)
	if hit := s.ctReadInto(99, miss); hit != 0 || !bytes.Equal(miss, bytes.Repeat([]byte{0xEE}, 8)) {
		t.Errorf("ctReadInto miss touched dst: hit=%d dst=%q", hit, miss)
	}
	if hit := s.ctWriteData(11, []byte("ZZZZZZZZ")); hit != 1 {
		t.Errorf("ctWriteData hit = %d, want 1", hit)
	}
	out := make([]byte, 8)
	s.ctReadInto(11, out)
	if string(out) != "ZZZZZZZZ" {
		t.Errorf("payload after ctWriteData = %q", out)
	}
	if hit := s.ctWriteData(99, []byte("ZZZZZZZZ")); hit != 0 {
		t.Errorf("ctWriteData miss hit = %d, want 0", hit)
	}
	s.ctRemapRange(11, 14, 77)
	for i, e := range s.entries {
		want := uint32(i)
		if e.Addr >= 11 && e.Addr < 14 {
			want = 77
		}
		if e.Leaf != want {
			t.Errorf("entry %d (addr %d) leaf = %d, want %d", i, e.Addr, e.Leaf, want)
		}
	}
}

// TestCTCompactMatchesLegacy replays the same placement mask through
// compact and compactCT and requires identical surviving entries in
// identical order — the bit-identical evolution the equivalence replays
// rely on.
func TestCTCompactMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var legacy, ct stash
		ct.initCT(32)
		n := 1 + rng.Intn(20)
		placed := make([]int, n)
		for i := 0; i < n; i++ {
			addr, leaf := rng.Uint64()%1000, rng.Uint32()%64
			legacy.add(addr, leaf)
			ct.add(addr, leaf)
			placed[i] = rng.Intn(2)
		}
		legacy.compact(placed)
		ct.compactCT(placed)
		if legacy.len() != ct.len() {
			t.Fatalf("trial %d: legacy kept %d, ct kept %d", trial, legacy.len(), ct.len())
		}
		for i := range legacy.entries {
			l, c := legacy.entries[i], ct.entries[i]
			if l.Addr != c.Addr || l.Leaf != c.Leaf {
				t.Fatalf("trial %d entry %d: legacy {%d,%d} ct {%d,%d}",
					trial, i, l.Addr, l.Leaf, c.Addr, c.Leaf)
			}
		}
	}
}

// TestCTEquivalenceBitIdentical runs the same seeded workload through a
// legacy and a constant-time ORAM and requires every result — and the
// final external tree, byte for byte — to be identical: the constant-time
// mode changes how scans execute, never what they compute.
func TestCTEquivalenceBitIdentical(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		name := "sync"
		if deferred {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			build := func(ct bool) (*ORAM, *MemStore) {
				p := smallParams()
				p.ConstantTimeStash = ct
				if deferred {
					p.DeferWriteBack = true
					p.MaxDeferredWriteBacks = 4
				}
				o, store, _ := newTestORAM(t, p, 77)
				return o, store
			}
			legacy, legacyStore := build(false)
			ct, ctStore := build(true)
			rng := rand.New(rand.NewSource(78))
			dst := make([]byte, 16)
			for i := 0; i < 600; i++ {
				addr := rng.Uint64() % 128
				switch rng.Intn(4) {
				case 0:
					data := blockOf(byte(i), 16)
					if _, err := legacy.Access(addr, OpWrite, data); err != nil {
						t.Fatal(err)
					}
					if _, err := ct.Access(addr, OpWrite, data); err != nil {
						t.Fatal(err)
					}
				case 1:
					a, err := legacy.Access(addr, OpRead, nil)
					if err != nil {
						t.Fatal(err)
					}
					b, err := ct.Access(addr, OpRead, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("op %d: read(%d) diverged: % x vs % x", i, addr, a, b)
					}
				case 2:
					fa, err := legacy.ReadInto(addr, dst)
					if err != nil {
						t.Fatal(err)
					}
					got := append([]byte(nil), dst...)
					fb, err := ct.ReadInto(addr, dst)
					if err != nil {
						t.Fatal(err)
					}
					if fa != fb || !bytes.Equal(got, dst) {
						t.Fatalf("op %d: ReadInto(%d) diverged: found %v/%v, % x vs % x", i, addr, fa, fb, got, dst)
					}
				case 3:
					if deferred {
						if _, err := legacy.StepBackground(true); err != nil {
							t.Fatal(err)
						}
						if _, err := ct.StepBackground(true); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := legacy.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ct.Flush(); err != nil {
				t.Fatal(err)
			}
			type cell struct {
				addr uint64
				leaf uint32
				data string
			}
			dump := func(s *MemStore) []cell {
				var out []cell
				s.ForEachBlock(func(sl Slot, level int, pos uint64) {
					out = append(out, cell{sl.Addr, sl.Leaf, string(sl.Data)})
				})
				return out
			}
			a, b := dump(legacyStore), dump(ctStore)
			if len(a) != len(b) {
				t.Fatalf("tree block counts diverged: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("tree block %d diverged: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}
