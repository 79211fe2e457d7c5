package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// recordingTimer logs every charge so tests can pin the stage stream.
type timerEvent struct {
	leaf     uint64
	write    bool
	deferred bool
	skipped  int
}

type recordingTimer struct {
	events []timerEvent
}

func (r *recordingTimer) ReadPath(leaf uint64, skip []bool) {
	n := 0
	for _, s := range skip {
		if s {
			n++
		}
	}
	r.events = append(r.events, timerEvent{leaf: leaf, skipped: n})
}

func (r *recordingTimer) WritePath(leaf uint64, deferred bool) {
	r.events = append(r.events, timerEvent{leaf: leaf, write: true, deferred: deferred})
}

func timedParams(defer_ bool) Params {
	p := Params{
		LeafLevel: 4, Z: 4, BlockBytes: 8, Blocks: 48,
		StashCapacity: 80, BackgroundEviction: true,
	}
	p.DeferWriteBack = defer_
	return p
}

func buildTimed(t *testing.T, p Params, seed int64) (*ORAM, *MemStore, *recordingTimer) {
	t.Helper()
	ms, err := NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	timer := &recordingTimer{}
	ts, err := NewTimedStore(ms, timer)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMathLeafSource(rand.New(rand.NewSource(seed)))
	pos, err := NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(p, ts, pos, src)
	if err != nil {
		t.Fatal(err)
	}
	return o, ms, timer
}

func buildPlain(t *testing.T, p Params, seed int64) (*ORAM, *MemStore) {
	t.Helper()
	ms, err := NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMathLeafSource(rand.New(rand.NewSource(seed)))
	pos, err := NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(p, ms, pos, src)
	if err != nil {
		t.Fatal(err)
	}
	return o, ms
}

func snapshotTree(ms *MemStore) []string {
	var out []string
	ms.ForEachBlock(func(slot Slot, level int, pos uint64) {
		out = append(out, fmt.Sprintf("%d/%d:%d@%d=%x", level, pos, slot.Addr, slot.Leaf, slot.Data))
	})
	return out
}

// TestTimedStoreObservationOnly is the core equivalence property: a run
// through a TimedStore must leave the underlying MemStore byte-identical
// to an untimed run with the same seed — the timer observes, it never
// perturbs — in both synchronous and staged (deferred write-back) mode.
func TestTimedStoreObservationOnly(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		t.Run(fmt.Sprintf("defer=%v", deferred), func(t *testing.T) {
			p := timedParams(deferred)
			timed, timedMS, timer := buildTimed(t, p, 42)
			plain, plainMS := buildPlain(t, p, 42)
			rng := rand.New(rand.NewSource(77))
			buf := make([]byte, p.BlockBytes)
			for i := 0; i < 600; i++ {
				addr := rng.Uint64() % p.Blocks
				rng.Read(buf)
				var gt, gp []byte
				var et, ep error
				if i%3 == 0 {
					gt, et = timed.Access(addr, OpWrite, buf)
					gp, ep = plain.Access(addr, OpWrite, buf)
				} else {
					gt, et = timed.Access(addr, OpRead, nil)
					gp, ep = plain.Access(addr, OpRead, nil)
				}
				if et != nil || ep != nil {
					t.Fatalf("op %d: timed err %v, plain err %v", i, et, ep)
				}
				if !bytes.Equal(gt, gp) {
					t.Fatalf("op %d: timed read %x, plain read %x", i, gt, gp)
				}
				if deferred && i%17 == 0 {
					// Drain a bit mid-stream, like an idle worker would.
					if _, err := timed.StepBackground(false); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := timed.Flush(); err != nil {
				t.Fatal(err)
			}
			if deferred {
				if err := plain.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			ts, ps := snapshotTree(timedMS), snapshotTree(plainMS)
			if len(ts) != len(ps) {
				t.Fatalf("tree block counts diverge: timed %d, plain %d", len(ts), len(ps))
			}
			for i := range ts {
				if ts[i] != ps[i] {
					t.Fatalf("trees diverge at block %d: timed %q, plain %q", i, ts[i], ps[i])
				}
			}
			if len(timer.events) == 0 {
				t.Fatal("timer recorded nothing")
			}
		})
	}
}

// TestTimedStoreStageTagging pins the stage metadata: synchronous runs
// charge only inline write-backs, staged runs charge deferred ones (via
// WritePathDeferred) for every FIFO completion, and reads report their
// write-buffer skip counts.
func TestTimedStoreStageTagging(t *testing.T) {
	// Synchronous: strict read/write alternation, never deferred.
	p := timedParams(false)
	o, _, timer := buildTimed(t, p, 1)
	if _, err := o.Access(3, OpWrite, make([]byte, p.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	for i, ev := range timer.events {
		if ev.write != (i%2 == 1) {
			t.Fatalf("sync event %d: unexpected kind %+v", i, ev)
		}
		if ev.deferred {
			t.Fatalf("sync event %d tagged deferred", i)
		}
	}

	// Staged: the write-back arrives only when the FIFO is drained, tagged
	// deferred.
	p = timedParams(true)
	o, _, timer = buildTimed(t, p, 2)
	if _, err := o.Access(3, OpWrite, make([]byte, p.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range timer.events {
		if ev.write {
			t.Fatalf("staged access charged a write before any drain: %+v", timer.events)
		}
	}
	if w, err := o.StepBackground(false); err != nil || w != BgWriteBack {
		t.Fatalf("StepBackground = %v, %v", w, err)
	}
	last := timer.events[len(timer.events)-1]
	if !last.write || !last.deferred {
		t.Fatalf("drained write-back not tagged deferred: %+v", last)
	}

	// Overfill the queue so the cap drains inline: those completions still
	// come from the FIFO and must be tagged deferred too.
	p = timedParams(true)
	p.MaxDeferredWriteBacks = 2
	o, _, timer = buildTimed(t, p, 3)
	for a := uint64(0); a < 10; a++ {
		if _, err := o.Access(a, OpWrite, make([]byte, p.BlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	sawDeferred := false
	for _, ev := range timer.events {
		if ev.write {
			if !ev.deferred {
				t.Fatalf("staged run charged an inline write: %+v", ev)
			}
			sawDeferred = true
		}
	}
	if !sawDeferred {
		t.Fatal("queue cap never drained")
	}

	// Reads of pending paths must report write-buffer hits.
	skips := 0
	for _, ev := range timer.events {
		skips += ev.skipped
	}
	if skips == 0 {
		t.Error("no read ever skipped a write-buffer bucket (expected overlay hits)")
	}
}

// TestTimedStoreErrorsNotCharged: a failed path operation moved no modeled
// data, so the timer must not see it.
func TestTimedStoreErrorsNotCharged(t *testing.T) {
	ms, err := NewMemStore(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	timer := &recordingTimer{}
	ts, err := NewTimedStore(ms, timer)
	if err != nil {
		t.Fatal(err)
	}
	slots := NewSlotIO(ts, 4, 2, 0)
	if _, err := slots.ReadPath(1<<10, nil, nil); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
	if err := slots.WritePath(1<<10, make([][]Slot, 4)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if len(timer.events) != 0 {
		t.Errorf("failed ops were charged: %+v", timer.events)
	}
	if _, err := NewTimedStore(nil, timer); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewTimedStore(ms, nil); err == nil {
		t.Error("nil timer accepted")
	}
	if ts.Inner() != ms {
		t.Error("Inner() does not return the wrapped store")
	}
}
