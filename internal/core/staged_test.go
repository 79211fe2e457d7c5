package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// stagedParams is smallParams with the staged access path enabled.
func stagedParams(maxDefer int) Params {
	p := smallParams()
	p.DeferWriteBack = true
	p.MaxDeferredWriteBacks = maxDefer
	return p
}

// treeSnapshot flattens a MemStore into a comparable string: every block
// with its exact bucket position, in scan order.
func treeSnapshot(s *MemStore) string {
	var b bytes.Buffer
	s.ForEachBlock(func(sl Slot, level int, pos uint64) {
		fmt.Fprintf(&b, "%d@%d.%d leaf=%d data=%x\n", sl.Addr, level, pos, sl.Leaf, sl.Data)
	})
	return b.String()
}

// stashSnapshot flattens a stash into a comparable string: every block
// with its leaf and payload, in stash order (slab slot numbers are not
// part of the protocol state).
func stashSnapshot(o *ORAM) string {
	var b bytes.Buffer
	for i, e := range o.stash.entries {
		fmt.Fprintf(&b, "%d leaf=%d data=%x\n", e.Addr, e.Leaf, o.stash.payload(i))
	}
	return b.String()
}

// TestStagedBitIdenticalToSync is the strongest equivalence statement the
// staged design makes: because eviction placement is computed eagerly —
// only the write I/O is deferred — a staged ORAM that is flushed at the
// end consumes the same random draws and produces the *bit-identical*
// tree, stash and position map as the synchronous protocol, for the same
// seed and workload. (Idle-time StepBackground eviction would change the
// dummy schedule; this test exercises pure deferral.)
func TestStagedBitIdenticalToSync(t *testing.T) {
	for _, maxDefer := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("maxDefer=%d", maxDefer), func(t *testing.T) {
			const seed = 1234
			sync, syncStore, syncPos := newTestORAM(t, smallParams(), seed)
			staged, stagedStore, stagedPos := newTestORAM(t, stagedParams(maxDefer), seed)

			rng := rand.New(rand.NewSource(77))
			for i := 0; i < 2500; i++ {
				addr := rng.Uint64() % smallParams().Blocks
				op, data := rng.Intn(3), blockOf(byte(i), 16)
				run := func(o *ORAM) error {
					switch op {
					case 0:
						_, err := o.Access(addr, OpWrite, data)
						return err
					case 1:
						_, err := o.Access(addr, OpRead, nil)
						return err
					default:
						return o.Update(addr, func(d []byte) { d[0]++ })
					}
				}
				if err := run(sync); err != nil {
					t.Fatal(err)
				}
				if err := run(staged); err != nil {
					t.Fatal(err)
				}
			}
			if err := staged.Flush(); err != nil {
				t.Fatal(err)
			}
			if staged.PendingWriteBacks() != 0 {
				t.Fatalf("%d write-backs pending after Flush", staged.PendingWriteBacks())
			}
			if got, want := treeSnapshot(stagedStore), treeSnapshot(syncStore); got != want {
				t.Fatalf("trees diverge after flush:\nstaged:\n%s\nsync:\n%s", got, want)
			}
			if got, want := stashSnapshot(staged), stashSnapshot(sync); got != want {
				t.Fatalf("stashes diverge:\nstaged: %s\nsync:   %s", got, want)
			}
			for g := uint64(0); g < smallParams().Groups(); g++ {
				a, aok, _ := stagedPos.Peek(g)
				b, bok, _ := syncPos.Peek(g)
				if a != b || aok != bok {
					t.Fatalf("position maps diverge at group %d: %d/%v vs %d/%v", g, a, aok, b, bok)
				}
			}
			ss, ys := staged.Stats(), sync.Stats()
			if ss.RealAccesses != ys.RealAccesses || ss.DummyAccesses != ys.DummyAccesses ||
				ss.StashPeak != ys.StashPeak || ss.BlocksInORAM != ys.BlocksInORAM {
				t.Fatalf("protocol counters diverge:\nstaged: %+v\nsync:   %+v", ss, ys)
			}
			if ss.DeferredWriteBacks == 0 || ss.PendingWriteBackPeak == 0 {
				t.Errorf("staged run recorded no deferral: %+v", ss)
			}
			if max := ss.PendingWriteBackPeak; max > maxDefer {
				t.Errorf("pending peak %d exceeds cap %d", max, maxDefer)
			}
			checkInvariant(t, staged, stagedStore, stagedPos)
		})
	}
}

// TestStagedShadowModelWithBackgroundSteps replays a mixed workload —
// inclusive accesses, updates, exclusive load/store round trips — against
// a plain map while randomly interleaving StepBackground calls, so reads
// hit every combination of pending, partially flushed and idle-evicted
// state. This is the read-your-writes property of the write-buffer
// overlay.
func TestStagedShadowModelWithBackgroundSteps(t *testing.T) {
	p := stagedParams(6)
	o, store, pos := newTestORAM(t, p, 99)
	rng := rand.New(rand.NewSource(101))
	shadow := map[uint64][]byte{}
	expect := func(addr uint64) []byte {
		if d, ok := shadow[addr]; ok {
			return d
		}
		return make([]byte, 16)
	}
	for i := 0; i < 4000; i++ {
		addr := rng.Uint64() % p.Blocks
		if o.CheckedOut(addr) {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			d := blockOf(byte(rng.Intn(256)), 16)
			if _, err := o.Access(addr, OpWrite, d); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = d
		case 1:
			got, err := o.Access(addr, OpRead, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, expect(addr)) {
				t.Fatalf("op %d: read(%d) = %x, want %x (pending=%d)",
					i, addr, got, expect(addr), o.PendingWriteBacks())
			}
		case 2:
			if err := o.Update(addr, func(d []byte) { d[1]++ }); err != nil {
				t.Fatal(err)
			}
			d := append([]byte(nil), expect(addr)...)
			d[1]++
			shadow[addr] = d
		default:
			d, _, _, err := o.Load(addr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d, expect(addr)) {
				t.Fatalf("op %d: load(%d) = %x, want %x", i, addr, d, expect(addr))
			}
			d[2]++
			if err := o.Store(addr, d); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = append([]byte(nil), d...)
		}
		// Random idle behavior: sometimes fall behind entirely, sometimes
		// keep up, sometimes drain with evictions allowed.
		for steps := rng.Intn(4); steps > 0; steps-- {
			if _, err := o.StepBackground(rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
		if i%500 == 499 {
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			checkInvariant(t, o, store, pos)
		}
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, o, store, pos)
	for addr, want := range shadow {
		got, err := o.Access(addr, OpRead, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final read(%d) = %x, want %x", addr, got, want)
		}
	}
}

// TestStepBackgroundSemantics pins down the idle-work contract: pending
// write-backs drain first (and are never blocked by allowEviction=false),
// evictions only run when permitted and above the low-water mark, and
// BgNone means a quiescent engine.
func TestStepBackgroundSemantics(t *testing.T) {
	p := stagedParams(64)
	o, _, _ := newTestORAM(t, p, 7)
	for a := uint64(0); a < p.Blocks; a++ {
		if _, err := o.Access(a, OpWrite, blockOf(1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if o.PendingWriteBacks() == 0 {
		t.Fatal("workload left nothing pending; test needs deferred work")
	}
	for o.PendingWriteBacks() > 0 {
		w, err := o.StepBackground(false)
		if err != nil {
			t.Fatal(err)
		}
		if w != BgWriteBack {
			t.Fatalf("StepBackground = %v with %d write-backs pending, want BgWriteBack",
				w, o.PendingWriteBacks())
		}
	}
	// With write-backs drained and evictions forbidden, nothing to do.
	if w, _ := o.StepBackground(false); w != BgNone {
		t.Fatalf("StepBackground(false) = %v on drained queue, want BgNone", w)
	}
	// Allowed evictions drain the stash to the low-water mark (half the
	// inline threshold), each one deferring its own write-back.
	low := p.EvictionThreshold() / 2
	sawEviction := false
	for i := 0; ; i++ {
		if i > DefaultMaxDummyRun {
			t.Fatal("idle eviction never converged")
		}
		w, err := o.StepBackground(true)
		if err != nil {
			t.Fatal(err)
		}
		if w == BgNone {
			break
		}
		sawEviction = sawEviction || w == BgEviction
	}
	if st := o.Stats(); sawEviction {
		if o.StashSize() > low {
			t.Errorf("stash at %d after idle draining, want <= low-water %d", o.StashSize(), low)
		}
		if st.IdleEvictions == 0 {
			t.Error("IdleEvictions not counted")
		}
	} else if o.StashSize() > low {
		t.Errorf("no evictions ran yet stash (%d) is above low-water %d", o.StashSize(), low)
	}
	if o.PendingWriteBacks() != 0 {
		t.Errorf("%d write-backs pending after draining to BgNone", o.PendingWriteBacks())
	}
	// ResetStats must clear the new counters like any others.
	o.ResetStats()
	if st := o.Stats(); st.DeferredWriteBacks != 0 || st.IdleEvictions != 0 || st.PendingWriteBackPeak != 0 {
		t.Errorf("ResetStats left staged counters: %+v", st)
	}
}

// TestStagedQueueCapBoundsPending hammers an ORAM with a tiny deferral cap
// and no background stepping: the inline cap-drain must keep the queue at
// or below the cap at all times.
func TestStagedQueueCapBoundsPending(t *testing.T) {
	p := stagedParams(2)
	o, _, _ := newTestORAM(t, p, 5)
	for i := 0; i < 500; i++ {
		if _, err := o.Access(uint64(i)%p.Blocks, OpWrite, blockOf(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
		if n := o.PendingWriteBacks(); n > 2 {
			t.Fatalf("op %d: pending queue at %d, cap is 2", i, n)
		}
	}
	if st := o.Stats(); st.PendingWriteBackPeak > 2 {
		t.Errorf("pending peak %d exceeds cap 2", st.PendingWriteBackPeak)
	}
}
