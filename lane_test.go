package pathoram

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Tests named TestTimingLane* are a required suite of the CI race job.

// laneLog is a recording stub behind a lane: every replayed event becomes
// one line, and an optional gate holds the replay goroutine inside the
// stub so a test can look at the lane while it is provably behind.
type laneLog struct {
	mu    sync.Mutex
	lines []string
	gate  chan struct{} // nil: never block
}

func (g *laneLog) add(line string) {
	if g.gate != nil {
		<-g.gate
	}
	g.mu.Lock()
	g.lines = append(g.lines, line)
	g.mu.Unlock()
}

func (g *laneLog) snapshot() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.lines...)
}

type logTimer struct {
	log  *laneLog
	name string
}

func (t logTimer) ReadPath(leaf uint64, skip []bool) {
	t.log.add(fmt.Sprintf("%s read %d %v nil=%t", t.name, leaf, skip, skip == nil))
}

func (t logTimer) WritePath(leaf uint64, deferred bool) {
	t.log.add(fmt.Sprintf("%s write %d %t", t.name, leaf, deferred))
}

// newLoggedLane builds a lane over two stub timers and a stub round start.
func newLoggedLane(gate chan struct{}) (*timingLane, [2]core.PathTimer, *laneLog) {
	log := &laneLog{gate: gate}
	l := &timingLane{round: func(uint64) { log.add("round") }}
	return l, [2]core.PathTimer{l.attach(logTimer{log, "t0"}), l.attach(logTimer{log, "t1"})}, log
}

// waitFor polls cond, yielding, until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestTimingLaneReplaysInRecordOrder pushes many more events than the ring
// holds, of every kind and on both timers, and requires the replay side to
// see exactly the recorded sequence.
func TestTimingLaneReplaysInRecordOrder(t *testing.T) {
	l, rec, log := newLoggedLane(nil)
	direct := &laneLog{}
	want := [2]core.PathTimer{logTimer{direct, "t0"}, logTimer{direct, "t1"}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20*laneCap; i++ {
		leaf, k := rng.Uint64(), rng.Intn(2)
		switch rng.Intn(4) {
		case 0:
			l.roundStart()
			direct.add("round")
		case 1:
			var skip []bool
			if n := rng.Intn(32); n > 0 {
				skip = make([]bool, n-1)
				for d := range skip {
					skip[d] = rng.Intn(2) == 0
				}
			}
			rec[k].ReadPath(leaf, skip)
			want[k].ReadPath(leaf, skip)
		default:
			deferred := rng.Intn(2) == 0
			rec[k].WritePath(leaf, deferred)
			want[k].WritePath(leaf, deferred)
		}
	}
	l.close()
	if got := log.snapshot(); !reflect.DeepEqual(got, direct.lines) {
		t.Fatalf("replayed %d events, recorded %d, or their order differs", len(got), len(direct.lines))
	}
}

// TestTimingLaneCopiesSkipMask: core reuses one skip buffer across
// accesses, so the mask must be replayed as it was when recorded even if
// the caller has overwritten it by then.
func TestTimingLaneCopiesSkipMask(t *testing.T) {
	gate := make(chan struct{})
	l, rec, log := newLoggedLane(gate)
	skip := []bool{true, false, true}
	rec[0].ReadPath(7, skip)
	for d := range skip {
		skip[d] = !skip[d]
	}
	rec[0].ReadPath(8, nil)
	close(gate)
	l.close()
	want := []string{"t0 read 7 [true false true] nil=false", "t0 read 8 [] nil=true"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

// TestTimingLaneQuiesceWaitsForLastReplay holds the replay goroutine inside
// the last event's timer call: quiesce must not return while it is there.
func TestTimingLaneQuiesceWaitsForLastReplay(t *testing.T) {
	gate := make(chan struct{})
	l, rec, log := newLoggedLane(gate)
	for i := uint64(0); i < 3; i++ {
		rec[1].WritePath(i, false)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	waitFor(t, "two replays", func() bool { return len(log.snapshot()) == 2 })
	var quiesced atomic.Bool
	done := make(chan struct{})
	go func() {
		l.quiesce()
		quiesced.Store(true)
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	if quiesced.Load() {
		t.Fatal("quiesce returned while the last event was still inside its timer")
	}
	gate <- struct{}{}
	<-done
	if n := len(log.snapshot()); n != 3 {
		t.Fatalf("quiesce returned after %d of 3 replays", n)
	}
	l.close()
}

// TestTimingLaneFullRingBlocksRecorder stalls the replay side, lets the
// recorder run into the full ring, and checks that it waits there — and
// that once the replay resumes nothing was dropped or reordered.
func TestTimingLaneFullRingBlocksRecorder(t *testing.T) {
	gate := make(chan struct{})
	l, rec, log := newLoggedLane(gate)
	const total = laneCap + 40
	var recorded atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < total; i++ {
			rec[0].WritePath(i, false)
			recorded.Add(1)
		}
	}()
	limit := int64(laneCap)
	if runtime.GOMAXPROCS(0) == 1 {
		limit = laneYield
	}
	waitFor(t, "a full ring", func() bool { return recorded.Load() == limit })
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	if n := recorded.Load(); n != limit {
		t.Fatalf("recorder got %d events past a limit of %d with the replay stalled", n, limit)
	}
	close(gate)
	<-done
	l.close()
	got := log.snapshot()
	if len(got) != total {
		t.Fatalf("replayed %d of %d events", len(got), total)
	}
	for i, line := range got {
		if want := fmt.Sprintf("t0 write %d false", i); line != want {
			t.Fatalf("event %d replayed as %q, want %q", i, line, want)
		}
	}
}

// TestTimingLaneCloseDrainsThenStops: close returns with every event
// replayed and no replay goroutine left, and the lane still works after.
func TestTimingLaneCloseDrainsThenStops(t *testing.T) {
	base := runtime.NumGoroutine()
	l, rec, log := newLoggedLane(nil)
	for round := 1; round <= 2; round++ {
		for i := uint64(0); i < 100; i++ {
			rec[0].ReadPath(i, nil)
		}
		l.close()
		if n := len(log.snapshot()); n != 100*round {
			t.Fatalf("close %d returned with %d of %d events replayed", round, n, 100*round)
		}
		if l.replaying.Load() {
			t.Fatalf("close %d returned with the replay goroutine still owning the lane", round)
		}
		waitFor(t, "the replay goroutine to exit", func() bool { return runtime.NumGoroutine() <= base })
	}
}

// laneLeakSpec is a small timed recursive chain, the deepest user of a lane.
func laneLeakSpec(backend Backend) Spec {
	spec := Spec{
		Blocks: 512, BlockSize: 16, Encryption: EncryptNone,
		PosMap: PosMapRecursive, OnChipPosMapMax: 64,
		Backend: backend, Rand: rand.New(rand.NewSource(5)),
	}
	if backend == BackendDRAM {
		spec.Overlap, spec.DRAMSched = 2, MemSchedFRFCFS
	}
	return spec
}

// TestTimingLaneLeaksNoGoroutine: the goroutine count returns to its
// baseline after Close and — because the replay goroutine lives only while
// there is work — after an engine is simply dropped; an untimed engine
// never starts one.
func TestTimingLaneLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	drive := func(backend Backend) *ORAM {
		o, err := New(laneLeakSpec(backend))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		for a := uint64(0); a < 200; a++ {
			if err := o.Write(a, buf); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}

	if o := drive(BackendMem); o.lane != nil || runtime.NumGoroutine() > base {
		t.Fatalf("an untimed engine built a lane (%v) or started a goroutine (%d > %d)",
			o.lane != nil, runtime.NumGoroutine(), base)
	}

	o := drive(BackendDRAM)
	if o.lane == nil {
		t.Fatal("a BackendDRAM engine has no timing lane")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if o.lane.replaying.Load() {
		t.Fatal("Close returned with the replay goroutine still owning the lane")
	}
	waitFor(t, "the closed engine's replay goroutine to exit", func() bool { return runtime.NumGoroutine() <= base })
	// Close does not invalidate a volatile engine: the lane restarts.
	if err := o.Write(0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if ts, ok := o.TimingStats(); !ok || ts.PathWrites == 0 {
		t.Fatalf("timing after Close: %+v, %t", ts, ok)
	}

	drive(BackendDRAM) // dropped, never closed
	waitFor(t, "a dropped engine's replay goroutine to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// tapeEvent is one replayed charge as a tap between a lane and its real
// timer saw it (timer -1: a round start).
type tapeEvent struct {
	timer    int
	write    bool
	leaf     uint64
	skip     []bool
	deferred bool
}

// tapTimer logs what the replay side hands a real timer, then forwards.
type tapTimer struct {
	core.PathTimer
	index int
	tape  *[]tapeEvent
}

func (t tapTimer) ReadPath(leaf uint64, skip []bool) {
	ev := tapeEvent{timer: t.index, leaf: leaf}
	if skip != nil {
		ev.skip = append([]bool{}, skip...)
	}
	*t.tape = append(*t.tape, ev)
	t.PathTimer.ReadPath(leaf, skip)
}

func (t tapTimer) WritePath(leaf uint64, deferred bool) {
	*t.tape = append(*t.tape, tapeEvent{timer: t.index, write: true, leaf: leaf, deferred: deferred})
	t.PathTimer.WritePath(leaf, deferred)
}

// laneDiffSpecs are the differential test's engines: the benchmark's
// recursive chain, its in-order and flat relatives, and the two staged
// (AsyncEviction) forms, which are deterministic here because one goroutine
// drives them through StepBackground.
func laneDiffSpecs() map[string]Spec {
	rec := Spec{
		Blocks: 2048, BlockSize: 16, Encryption: EncryptNone,
		PosMap: PosMapRecursive, OnChipPosMapMax: 128,
		Backend: BackendDRAM, DRAMChannels: 2,
	}
	flat := rec
	flat.PosMap, flat.OnChipPosMapMax = PosMapOnChip, 0
	specs := map[string]Spec{"rec-inorder": rec, "flat-inorder": flat}
	rec.DRAMSched, flat.DRAMSched = MemSchedFRFCFS, MemSchedFRFCFS
	specs["flat-frfcfs"] = flat
	flat.AsyncEviction = true
	specs["flat-frfcfs-async"] = flat
	rec.PLBBytes, rec.Overlap = 1024, 2
	specs["rec-frfcfs-plb-overlap"] = rec
	rec.AsyncEviction = true
	specs["rec-frfcfs-plb-overlap-async"] = rec
	return specs
}

// laneDiffDrive runs the fixed seeded stream — 16-wide ReadBatches
// alternating with a Write and a ReadInto, one background step after each
// submission on staged engines — and returns the closing TimingStats. With
// lockstep set the lane is quiesced from the one inline hook there is,
// before every path access, and after every submission: the replay is then
// never more than one access's read and write-back behind, the closest an
// engine gets to the parent's inline timing.
func laneDiffDrive(t *testing.T, spec Spec, lockstep bool, tape *[]tapeEvent) TimingStats {
	t.Helper()
	var o *ORAM
	settle := func() {
		if lockstep {
			o.lane.quiesce()
		}
	}
	spec.Rand = rand.New(rand.NewSource(21))
	spec.OnPathAccess = func(_, _ int, _ uint64) { settle() }
	o, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if tape != nil {
		for i, real := range o.lane.timers {
			o.lane.timers[i] = tapTimer{real, i, tape}
		}
		round := o.lane.round
		o.lane.round = func(at uint64) { *tape = append(*tape, tapeEvent{timer: -1}); round(at) }
	}
	step := func() {
		settle()
		if spec.AsyncEviction {
			if _, err := o.StepBackground(true); err != nil {
				t.Fatal(err)
			}
			settle()
		}
	}
	rng := rand.New(rand.NewSource(22))
	buf, dst := make([]byte, spec.BlockSize), make([]byte, spec.BlockSize)
	addrs := make([]uint64, 16)
	for n := 0; n < 300; n++ {
		if n%2 == 0 {
			for j := range addrs {
				addrs[j] = rng.Uint64() % spec.Blocks
			}
			if _, err := o.ReadBatch(addrs); err != nil {
				t.Fatal(err)
			}
			step()
			continue
		}
		if err := o.Write(rng.Uint64()%spec.Blocks, buf); err != nil {
			t.Fatal(err)
		}
		step()
		if _, err := o.ReadInto(rng.Uint64()%spec.Blocks, dst); err != nil {
			t.Fatal(err)
		}
		step()
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	ts, ok := o.TimingStats()
	if !ok || ts.Cycles == 0 || (spec.AsyncEviction && (ts.DeferredWrites == 0 || ts.SkippedBuckets == 0)) {
		t.Fatalf("the stream did not exercise the model (deferred write-backs and skip masks on staged engines included): %+v, %t", ts, ok)
	}
	return ts
}

// TestTimingLaneLagIsUnobservable is the differential test behind "modeled
// time is replayed, not inline": one seeded op stream gives the same
// TimingStats through a free-running lane, through a lane quiesced at every
// path access, and — the parent's inline mode exactly — with the
// free-running engine's replayed event stream applied to a second engine's
// timers directly, no lane in between.
func TestTimingLaneLagIsUnobservable(t *testing.T) {
	for name, spec := range laneDiffSpecs() {
		t.Run(name, func(t *testing.T) {
			var tape []tapeEvent
			free := laneDiffDrive(t, spec, false, &tape)
			if stepped := laneDiffDrive(t, spec, true, nil); stepped != free {
				t.Errorf("lockstep lane diverged from the free-running one:\nfree     %+v\nlockstep %+v", free, stepped)
			}

			spec.Rand = rand.New(rand.NewSource(21))
			inline, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer inline.Close()
			for _, ev := range tape {
				switch timer := ev.timer; {
				case timer < 0:
					inline.lane.round(0)
				case ev.write:
					inline.lane.timers[timer].WritePath(ev.leaf, ev.deferred)
				default:
					inline.lane.timers[timer].ReadPath(ev.leaf, ev.skip)
				}
			}
			if got, _ := inline.TimingStats(); got != free {
				t.Errorf("inline application of the %d replayed events diverged:\nlane   %+v\ninline %+v", len(tape), free, got)
			}
		})
	}
}
