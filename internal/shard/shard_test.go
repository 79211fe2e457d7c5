package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeEngine is a deliberately non-thread-safe map engine: if the pool ever
// touched it from two goroutines, the race detector would fire. With
// deferring set, every operation enqueues one fake deferred write-back, so
// idle-work scheduling can be observed without a real ORAM.
type fakeEngine struct {
	blocks   map[uint64][]byte
	ops      []uint64 // addresses in execution order
	paddings int      // PaddingAccess calls
	delay    time.Duration
	failAddr uint64 // Read/Write of this address fails
	hasFail  bool

	deferring bool // ops enqueue fake deferred write-backs
	pending   int  // outstanding fake write-backs
	evictable int  // fake background-eviction budget
	wbDone    int  // write-backs completed via StepBackground
	evDone    int  // evictions performed via StepBackground
	flushes   int  // Flush calls: the pool must never make one
}

var errFake = errors.New("fake engine failure")

func newFakeEngine() *fakeEngine {
	return &fakeEngine{blocks: make(map[uint64][]byte)}
}

func (e *fakeEngine) Read(addr uint64) ([]byte, error) {
	e.noteOp(addr)
	if e.hasFail && addr == e.failAddr {
		return nil, errFake
	}
	return append([]byte(nil), e.blocks[addr]...), nil
}

func (e *fakeEngine) ReadInto(addr uint64, dst []byte) (bool, error) {
	e.noteOp(addr)
	if e.hasFail && addr == e.failAddr {
		return false, errFake
	}
	d, ok := e.blocks[addr]
	copy(dst, d)
	return ok, nil
}

func (e *fakeEngine) Write(addr uint64, data []byte) error {
	e.noteOp(addr)
	if e.hasFail && addr == e.failAddr {
		return errFake
	}
	e.blocks[addr] = append([]byte(nil), data...)
	return nil
}

func (e *fakeEngine) Update(addr uint64, fn func([]byte)) error {
	e.noteOp(addr)
	d := e.blocks[addr]
	fn(d)
	e.blocks[addr] = d
	return nil
}

func (e *fakeEngine) Load(addr uint64) ([]byte, bool, []core.Slot, error) {
	e.noteOp(addr)
	if e.hasFail && addr == e.failAddr {
		return nil, false, nil, errFake
	}
	d, ok := e.blocks[addr]
	delete(e.blocks, addr)
	return append([]byte(nil), d...), ok, nil, nil
}

func (e *fakeEngine) Store(addr uint64, data []byte) error {
	e.noteOp(addr)
	e.blocks[addr] = append([]byte(nil), data...)
	return nil
}

func (e *fakeEngine) PaddingAccess() error {
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	e.paddings++
	return nil
}

func (e *fakeEngine) StepBackground(allowEviction bool) (core.BackgroundWork, error) {
	if e.pending > 0 {
		e.pending--
		e.wbDone++
		return core.BgWriteBack, nil
	}
	if allowEviction && e.evictable > 0 {
		e.evictable--
		e.evDone++
		return core.BgEviction, nil
	}
	return core.BgNone, nil
}

func (e *fakeEngine) Flush() error {
	e.flushes++
	e.pending = 0
	return nil
}

func (e *fakeEngine) noteOp(addr uint64) {
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	e.ops = append(e.ops, addr)
	if e.deferring {
		e.pending++
	}
}

func newTestPool(t *testing.T, n int) (*Pool, []*fakeEngine) {
	t.Helper()
	return newConfiguredPool(t, n, Config{})
}

func newConfiguredPool(t *testing.T, n int, cfg Config) (*Pool, []*fakeEngine) {
	t.Helper()
	fakes := make([]*fakeEngine, n)
	engines := make([]Engine, n)
	for i := range fakes {
		fakes[i] = newFakeEngine()
		engines[i] = fakes[i]
	}
	p, err := NewPool(engines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, fakes
}

func val(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, Config{}); err == nil {
		t.Error("empty engine list accepted")
	}
	if _, err := NewPool([]Engine{nil}, Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	p, _ := newTestPool(t, 2)
	defer p.Close()
	if err := p.Do(5, &Request{Op: OpRead}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := p.DoBatch([]int{0, 1}, []*Request{{Op: OpRead}}); err == nil {
		t.Error("mismatched batch lengths accepted")
	}
}

func TestDoRoundTrip(t *testing.T) {
	p, _ := newTestPool(t, 3)
	defer p.Close()
	for i := uint64(0); i < 30; i++ {
		s := int(i % 3)
		if err := p.Do(s, &Request{Op: OpWrite, Addr: i, Data: val(i)}); err != nil {
			t.Fatal(err)
		}
		req := &Request{Op: OpRead, Addr: i}
		if err := p.Do(s, req); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(req.Out); got != i {
			t.Fatalf("read back %d, want %d", got, i)
		}
	}
	st := p.Stats()
	if st.SingleOps != 60 {
		t.Errorf("SingleOps = %d, want 60", st.SingleOps)
	}
	var executed uint64
	for _, n := range st.ExecutedPerShard {
		executed += n
	}
	if executed != 60 {
		t.Errorf("executed = %d, want 60", executed)
	}
}

func TestPerShardFIFO(t *testing.T) {
	p, fakes := newTestPool(t, 1)
	reqs := make([]*Request, 50)
	shards := make([]int, 50)
	for i := range reqs {
		reqs[i] = &Request{Op: OpWrite, Addr: uint64(i), Data: val(uint64(i))}
	}
	if err := p.DoBatch(shards, reqs); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, a := range fakes[0].ops {
		if a != uint64(i) {
			t.Fatalf("shard executed addr %d at position %d; a batch share is not FIFO", a, i)
		}
	}
}

func TestDoBatchOrderAndErrors(t *testing.T) {
	p, fakes := newTestPool(t, 4)
	defer p.Close()

	n := 40
	reqs := make([]*Request, n)
	shards := make([]int, n)
	for i := 0; i < n; i++ {
		shards[i] = i % 4
		reqs[i] = &Request{Op: OpWrite, Addr: uint64(i), Data: val(uint64(i))}
	}
	if err := p.DoBatch(shards, reqs); err != nil {
		t.Fatal(err)
	}

	// Read everything back in one batch; shard 2 now fails on addr 6
	// (global index 6 routes to shard 6%4 == 2).
	fakes[2].hasFail = true
	fakes[2].failAddr = 6
	rr := make([]*Request, n)
	for i := 0; i < n; i++ {
		rr[i] = &Request{Op: OpRead, Addr: uint64(i)}
	}
	err := p.DoBatch(shards, rr)
	var failures int
	for i, r := range rr {
		if shards[i] == 2 && r.Addr == 6 {
			if !errors.Is(r.Err, errFake) {
				t.Errorf("request %d: err = %v, want fake failure", i, r.Err)
			}
			failures++
			continue
		}
		if r.Err != nil {
			t.Errorf("request %d: unexpected error %v", i, r.Err)
			continue
		}
		if got := binary.LittleEndian.Uint64(r.Out); got != uint64(i) {
			t.Errorf("request %d: out of order result %d", i, got)
		}
	}
	if failures == 0 {
		t.Fatal("test never exercised the failing address")
	}
	if !errors.Is(err, errFake) {
		t.Errorf("batch error = %v, want the per-request failure surfaced", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	p, _ := newTestPool(t, 4)
	defer p.Close()
	const clients = 8
	const opsPer = 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client owns a disjoint address slice per shard.
			for i := 0; i < opsPer; i++ {
				addr := uint64(c*opsPer + i)
				s := int(addr % 4)
				if err := p.Do(s, &Request{Op: OpWrite, Addr: addr, Data: val(addr)}); err != nil {
					t.Errorf("client %d write: %v", c, err)
					return
				}
				req := &Request{Op: OpRead, Addr: addr}
				if err := p.Do(s, req); err != nil {
					t.Errorf("client %d read: %v", c, err)
					return
				}
				if got := binary.LittleEndian.Uint64(req.Out); got != addr {
					t.Errorf("client %d: read %d want %d", c, got, addr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestCloseDrainsAcceptedRequests(t *testing.T) {
	p, fakes := newTestPool(t, 2)
	for _, f := range fakes {
		f.delay = 100 * time.Microsecond
	}
	var accepted, closedErrs atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				addr := uint64(c*100 + i)
				err := p.Do(int(addr%2), &Request{Op: OpWrite, Addr: addr, Data: val(addr)})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrClosed):
					closedErrs.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(c)
	}
	time.Sleep(2 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Every accepted request must have executed: Close drains, never drops.
	executed := uint64(len(fakes[0].ops) + len(fakes[1].ops))
	if executed != accepted.Load() {
		t.Errorf("accepted %d requests but executed %d", accepted.Load(), executed)
	}
	if accepted.Load() == 0 {
		t.Error("test closed before any request was accepted")
	}
	// Second close is a harmless no-op.
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := p.Do(0, &Request{Op: OpRead}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	before := p.Stats()
	if err := p.DoBatch([]int{0}, []*Request{{Op: OpRead}}); !errors.Is(err, ErrClosed) {
		t.Errorf("DoBatch after Close = %v, want ErrClosed", err)
	}
	after := p.Stats()
	if after.Batches != before.Batches || after.BatchedOps != before.BatchedOps {
		t.Errorf("fully-rejected batch moved counters: %+v -> %+v", before, after)
	}
}

func TestInspectSerializesWithRequests(t *testing.T) {
	p, fakes := newTestPool(t, 1)
	var before int
	if err := p.Inspect(0, func() error { before = len(fakes[0].ops); return nil }); err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Errorf("inspect before work saw %d ops", before)
	}
	for i := uint64(0); i < 10; i++ {
		if err := p.Do(0, &Request{Op: OpWrite, Addr: i, Data: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var during int
	if err := p.Inspect(0, func() error { during = len(fakes[0].ops); return nil }); err != nil {
		t.Fatal(err)
	}
	if during != 10 {
		t.Errorf("inspect saw %d ops, want 10", during)
	}
	// After Close, Inspect falls back to direct (quiescent) access.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var after int
	if err := p.Inspect(0, func() error { after = len(fakes[0].ops); return nil }); err != nil {
		t.Fatal(err)
	}
	if after != 10 {
		t.Errorf("post-close inspect saw %d ops, want 10", after)
	}
	if err := p.Inspect(99, func() error { return nil }); err == nil {
		t.Error("post-close inspect accepted out-of-range shard")
	}
	// Concurrent post-close inspectors must stay serialized: the shard's
	// lock still provides the mutual exclusion after Close.
	var counter int
	var cwg sync.WaitGroup
	for g := 0; g < 8; g++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for k := 0; k < 50; k++ {
				if err := p.Inspect(0, func() error { counter++; return nil }); err != nil {
					t.Errorf("post-close inspect: %v", err)
					return
				}
			}
		}()
	}
	cwg.Wait()
	if counter != 400 {
		t.Errorf("post-close inspectors raced: counter = %d, want 400", counter)
	}
}

// TestLoadStoreOps covers the exclusive-checkout scheduler ops: OpLoad
// removes the block (results in Out/Found/Group) and OpStore returns it,
// both executing on the engine and counting as real traffic.
func TestLoadStoreOps(t *testing.T) {
	p, fakes := newTestPool(t, 2)
	defer p.Close()
	if err := p.Do(1, &Request{Op: OpWrite, Addr: 5, Data: val(5)}); err != nil {
		t.Fatal(err)
	}
	load := &Request{Op: OpLoad, Addr: 5}
	if err := p.Do(1, load); err != nil {
		t.Fatal(err)
	}
	if !load.Found || string(load.Out) != string(val(5)) {
		t.Fatalf("load: found=%v out=%x", load.Found, load.Out)
	}
	// The fake engine removed the block; a second load finds nothing.
	reload := &Request{Op: OpLoad, Addr: 5}
	if err := p.Do(1, reload); err != nil {
		t.Fatal(err)
	}
	if reload.Found {
		t.Error("load after checkout still found the block")
	}
	if err := p.Do(1, &Request{Op: OpStore, Addr: 5, Data: load.Out}); err != nil {
		t.Fatal(err)
	}
	back := &Request{Op: OpRead, Addr: 5}
	if err := p.Do(1, back); err != nil {
		t.Fatal(err)
	}
	if string(back.Out) != string(val(5)) {
		t.Fatalf("read after store: %x", back.Out)
	}
	st := p.Stats()
	if st.ExecutedPerShard[1] != 5 {
		t.Errorf("executed on shard 1 = %d, want 5 (load/store count as real traffic)", st.ExecutedPerShard[1])
	}
	if len(fakes[0].ops) != 0 {
		t.Error("shard 0 saw traffic")
	}
}

// TestInspectNeverFlushes pins the pool's one inspection path: with or
// without idle work, Inspect and InspectAll run fn on the engine as it
// stands — a caller that wants a written-back snapshot flushes inside fn —
// and an error from fn is returned and kept for Close.
func TestInspectNeverFlushes(t *testing.T) {
	for _, idle := range []bool{false, true} {
		p, fakes := newConfiguredPool(t, 2, Config{IdleWork: idle})
		for _, f := range fakes {
			f.deferring = true
		}
		if err := p.Do(0, &Request{Op: OpWrite, Addr: 1, Data: val(1)}); err != nil {
			t.Fatal(err)
		}
		nop := func() error { return nil }
		if err := p.Inspect(0, nop); err != nil {
			t.Fatal(err)
		}
		if err := p.InspectAll([]func() error{nop, nop}); err != nil {
			t.Fatal(err)
		}
		for i, f := range fakes {
			if f.flushes != 0 {
				t.Errorf("idle %v: engine %d flushed %d times by inspections", idle, i, f.flushes)
			}
		}
		if err := p.Inspect(1, func() error { return errFake }); !errors.Is(err, errFake) {
			t.Errorf("idle %v: Inspect returned %v, want fn's error", idle, err)
		}
		if err := p.Close(); !errors.Is(err, errFake) {
			t.Errorf("idle %v: Close returned %v, want the inspection's error", idle, err)
		}
	}
}

func TestInspectAllFansOut(t *testing.T) {
	p, fakes := newTestPool(t, 3)
	for i := uint64(0); i < 9; i++ {
		if err := p.Do(int(i%3), &Request{Op: OpWrite, Addr: i, Data: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int, 3)
	fns := make([]func() error, 3)
	for i := range fns {
		fns[i] = func() error { counts[i] = len(fakes[i].ops); return nil }
	}
	if err := p.InspectAll(fns); err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n != 3 {
			t.Errorf("shard %d: inspector saw %d ops, want 3", i, n)
		}
	}
	if err := p.InspectAll(fns[:2]); err == nil {
		t.Error("mismatched inspector count accepted")
	}
	// Inspections are monitoring, not load: counters must not move.
	st := p.Stats()
	if st.SingleOps != 9 {
		t.Errorf("SingleOps = %d, want 9 (inspects must not count)", st.SingleOps)
	}
	for i, n := range st.ExecutedPerShard {
		if n != 3 {
			t.Errorf("shard %d executed = %d, want 3 (inspects must not count)", i, n)
		}
	}
	// After Close, InspectAll reads the quiescent engines directly.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.InspectAll(fns); err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n != 3 {
			t.Errorf("post-close shard %d: inspector saw %d ops, want 3", i, n)
		}
	}
}

func TestUpdateOp(t *testing.T) {
	p, _ := newTestPool(t, 2)
	defer p.Close()
	if err := p.Do(1, &Request{Op: OpWrite, Addr: 3, Data: val(41)}); err != nil {
		t.Fatal(err)
	}
	err := p.Do(1, &Request{Op: OpUpdate, Addr: 3, Fn: func(d []byte) {
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)+1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Op: OpRead, Addr: 3}
	if err := p.Do(1, req); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(req.Out); got != 42 {
		t.Errorf("update result %d, want 42", got)
	}
	if err := p.Do(0, &Request{Op: Op(99)}); err == nil {
		t.Error("unknown op accepted")
	}
}

// TestPaddingOp checks the first-class dummy request: OpPadding reaches
// the engine's PaddingAccess and is tallied in Stats.PaddingOps — and
// ONLY there. ExecutedPerShard must count real client traffic alone, so
// padding-heavy schedules don't skew it as a load measure (regression:
// padding used to be double-counted into executed).
func TestPaddingOp(t *testing.T) {
	p, fakes := newTestPool(t, 2)
	defer p.Close()
	reqs := []*Request{
		{Op: OpWrite, Addr: 1, Data: val(1)},
		{Op: OpPadding},
		{Op: OpPadding},
	}
	if err := p.DoBatch([]int{0, 0, 1}, reqs); err != nil {
		t.Fatal(err)
	}
	if fakes[0].paddings != 1 || fakes[1].paddings != 1 {
		t.Errorf("engine padding calls = %d,%d, want 1,1", fakes[0].paddings, fakes[1].paddings)
	}
	st := p.Stats()
	if st.PaddingOps != 2 {
		t.Errorf("PaddingOps = %d, want 2", st.PaddingOps)
	}
	if fmt.Sprint(st.ExecutedPerShard) != "[1 0]" {
		t.Errorf("per-shard executed = %v, want [1 0] (padding must not count as executed)", st.ExecutedPerShard)
	}
	var executed uint64
	for _, n := range st.ExecutedPerShard {
		executed += n
	}
	if executed+st.PaddingOps != 3 {
		t.Errorf("executed %d + padding %d != 3 submitted requests", executed, st.PaddingOps)
	}
}

func TestPoolStatsCounters(t *testing.T) {
	p, _ := newTestPool(t, 2)
	defer p.Close()
	for i := 0; i < 5; i++ {
		if err := p.Do(0, &Request{Op: OpWrite, Addr: 1, Data: val(1)}); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []*Request{{Op: OpRead, Addr: 1}, {Op: OpRead, Addr: 1}}
	if err := p.DoBatch([]int{0, 1}, reqs); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.SingleOps != 5 || st.Batches != 1 || st.BatchedOps != 2 {
		t.Errorf("stats = %+v, want 5 single / 1 batch / 2 batched", st)
	}
	if fmt.Sprint(st.ExecutedPerShard) != "[6 1]" {
		t.Errorf("per-shard executed = %v, want [6 1]", st.ExecutedPerShard)
	}
}

// pendingTotal reads every engine's outstanding fake write-backs through
// the pool's inspection path (serialized with requests, no flush).
func pendingTotal(t *testing.T, p *Pool, fakes []*fakeEngine) int {
	t.Helper()
	counts := make([]int, len(fakes))
	fns := make([]func() error, len(fakes))
	for i := range fns {
		fns[i] = func() error { counts[i] = fakes[i].pending; return nil }
	}
	if err := p.InspectAll(fns); err != nil {
		t.Fatal(err)
	}
	var total int
	for _, n := range counts {
		total += n
	}
	return total
}

// TestAsyncIdleWorkDrainsWriteBacks submits deferring operations and
// checks that the idle pumps complete the deferred write-backs on their own
// between requests — no Flush, Inspect or Close involved.
func TestAsyncIdleWorkDrainsWriteBacks(t *testing.T) {
	p, fakes := newConfiguredPool(t, 2, Config{IdleWork: true})
	defer p.Close()
	for _, f := range fakes {
		f.deferring = true
	}
	for i := uint64(0); i < 20; i++ {
		if err := p.Do(int(i%2), &Request{Op: OpWrite, Addr: i, Data: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for pendingTotal(t, p, fakes) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle pumps never drained: %d write-backs still pending", pendingTotal(t, p, fakes))
		}
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.IdleWriteBacks == 0 {
		t.Error("IdleWriteBacks = 0; background work was not counted")
	}
}

// TestAsyncCloseOnlyFences checks that Close fences the shards and stops
// the pumps without calling an engine: the owed work is the owner's to
// complete afterwards through Inspect, and no pump steps in once Close has
// returned.
func TestAsyncCloseOnlyFences(t *testing.T) {
	p, fakes := newConfiguredPool(t, 2, Config{IdleWork: true})
	for _, f := range fakes {
		f.deferring = true
	}
	for i := uint64(0); i < 40; i++ {
		if err := p.Do(int(i%2), &Request{Op: OpWrite, Addr: i, Data: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	left := make([]int, len(fakes))
	for i, f := range fakes {
		if f.flushes != 0 {
			t.Errorf("engine %d: Close flushed it %d times", i, f.flushes)
		}
		left[i] = f.pending
	}
	time.Sleep(5 * time.Millisecond)
	for i, f := range fakes {
		var now int
		if err := p.Inspect(i, func() error { now = f.pending; return f.Flush() }); err != nil {
			t.Fatal(err)
		}
		if now != left[i] {
			t.Errorf("engine %d: %d write-backs pending at Close, %d later; a pump ran after Close", i, left[i], now)
		}
		if f.pending != 0 {
			t.Errorf("engine %d: %d write-backs pending after the owner's flush", i, f.pending)
		}
	}
}

// TestAsyncInspectionStartsNoIdleEviction is the deterministic form of the
// fuzzed "Flush on a quiescent client changed stats": the engine has idle
// eviction on offer (as a real one does while its stash sits between half
// its inline threshold and the threshold), and between two snapshots the
// pump is given every chance to take an idle step — the test waits for
// one. The pump only completes owed write-backs, so none comes.
func TestAsyncInspectionStartsNoIdleEviction(t *testing.T) {
	p, fakes := newConfiguredPool(t, 1, Config{IdleWork: true})
	f := fakes[0]
	f.evictable = 100
	if err := p.Do(0, &Request{Op: OpWrite, Addr: 1, Data: val(1)}); err != nil {
		t.Fatal(err)
	}
	snapshot := func() (evictions int) {
		t.Helper()
		if err := p.Inspect(0, func() error { evictions = f.evDone; return nil }); err != nil {
			t.Fatal(err)
		}
		return evictions
	}
	before := snapshot()
	time.Sleep(20 * time.Millisecond)
	if after := snapshot(); after != before {
		t.Errorf("%d idle evictions between two snapshots of an idle pool", after-before)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncPumpNeverEvicts checks that a pump completes every owed
// write-back and issues no background eviction, however much the engine
// has on offer and however long the pool sits idle.
func TestAsyncPumpNeverEvicts(t *testing.T) {
	p, fakes := newConfiguredPool(t, 1, Config{IdleWork: true})
	f := fakes[0]
	f.deferring, f.evictable = true, 100
	for i := uint64(0); i < 5; i++ {
		if err := p.Do(0, &Request{Op: OpWrite, Addr: i, Data: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for pendingTotal(t, p, fakes) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the pump never completed the owed write-backs")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if f.evDone != 0 || f.wbDone != 5 {
		t.Errorf("pump performed %d evictions and %d write-backs, want 0 and 5", f.evDone, f.wbDone)
	}
	if st := p.Stats(); st.IdleEvictions != 0 || st.IdleWriteBacks != 5 {
		t.Errorf("Stats idle evictions %d, write-backs %d; want 0 and 5", st.IdleEvictions, st.IdleWriteBacks)
	}
}

// TestSyncPoolNeverTouchesBackground checks that without IdleWork the pool
// never calls StepBackground or Flush — synchronous engines keep their
// exact pre-pipelining request behavior, and Close only fences.
// Completing deferred state (a position-map lookaside cache holds dirty
// labels even under the synchronous protocol) is the engine owner's.
func TestSyncPoolNeverTouchesBackground(t *testing.T) {
	p, fakes := newTestPool(t, 1)
	fakes[0].evictable = 5
	for i := uint64(0); i < 10; i++ {
		if err := p.Do(0, &Request{Op: OpWrite, Addr: i, Data: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	if fakes[0].flushes != 0 {
		t.Errorf("sync pool flushed mid-run: flushes=%d", fakes[0].flushes)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if fakes[0].evDone != 0 || fakes[0].wbDone != 0 {
		t.Errorf("sync pool ran background work: ev=%d wb=%d", fakes[0].evDone, fakes[0].wbDone)
	}
	if fakes[0].flushes != 0 {
		t.Errorf("Close ran %d flushes, want none", fakes[0].flushes)
	}
}

// ownerEngine fails the test if two goroutines are ever inside it at once,
// or if the pool calls it after Close returned. runs counts executions per
// request id (the address); it always has background work to offer.
type ownerEngine struct {
	t        *testing.T
	inFlight atomic.Int32
	sealed   atomic.Bool
	runs     []atomic.Int32
}

func (e *ownerEngine) enter(op string) func() {
	if n := e.inFlight.Add(1); n != 1 {
		e.t.Errorf("%s: %d goroutines inside one engine", op, n)
	}
	runtime.Gosched() // widen the window a second owner would need
	return func() { e.inFlight.Add(-1) }
}

func (e *ownerEngine) call(op string, addr uint64) {
	if e.sealed.Load() {
		e.t.Errorf("%s after Close returned", op)
	}
	defer e.enter(op)()
	if addr != ^uint64(0) {
		e.runs[addr].Add(1)
	}
}

func (e *ownerEngine) Read(addr uint64) ([]byte, error) { e.call("Read", addr); return nil, nil }
func (e *ownerEngine) ReadInto(addr uint64, _ []byte) (bool, error) {
	e.call("ReadInto", addr)
	return true, nil
}
func (e *ownerEngine) Write(addr uint64, _ []byte) error { e.call("Write", addr); return nil }
func (e *ownerEngine) Update(addr uint64, fn func([]byte)) error {
	e.call("Update", addr)
	fn(nil)
	return nil
}
func (e *ownerEngine) Load(addr uint64) ([]byte, bool, []core.Slot, error) {
	e.call("Load", addr)
	return nil, false, nil, nil
}
func (e *ownerEngine) Store(addr uint64, _ []byte) error { e.call("Store", addr); return nil }
func (e *ownerEngine) PaddingAccess() error              { e.call("PaddingAccess", ^uint64(0)); return nil }
func (e *ownerEngine) StepBackground(bool) (core.BackgroundWork, error) {
	e.call("StepBackground", ^uint64(0))
	return core.BgWriteBack, nil
}

// TestOwnerExclusive drives every way into a pool at once — concurrent Do,
// multi-shard DoBatch, Inspect, InspectAll and the IdleWork pump —
// and closes it mid-run: no engine ever has two goroutines inside it or a
// call after Close returned, every accepted request ran exactly once and
// every refused one never, and every request submitted after Close
// returned is refused with ErrClosed.
func TestOwnerExclusive(t *testing.T) {
	const shards, clients, perClient, batch = 3, 4, 300, 6
	const ids = clients * perClient * batch
	engines := make([]Engine, shards)
	owners := make([]*ownerEngine, shards)
	for i := range engines {
		owners[i] = &ownerEngine{t: t, runs: make([]atomic.Int32, ids)}
		engines[i] = owners[i]
	}
	p, err := NewPool(engines, Config{IdleWork: true})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	var closeReturned atomic.Bool
	accepted := make([]atomic.Int32, ids)
	record := func(id int, err error, closedBefore bool) {
		switch {
		case err == nil && closedBefore:
			t.Errorf("request %d submitted after Close returned was accepted", id)
		case err == nil:
			accepted[id].Store(1)
		case !errors.Is(err, ErrClosed):
			t.Errorf("request %d: %v", id, err)
		}
	}
	touch := func(i int) func() error {
		return func() error { defer owners[i].enter("inspector")(); return nil }
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				calls.Add(1)
				base := (c*perClient + k) * batch
				closedBefore := closeReturned.Load()
				switch k % 4 {
				case 0:
					err := p.Do(base%shards, &Request{Op: OpRead, Addr: uint64(base)})
					record(base, err, closedBefore)
				case 1:
					err := p.Do(base%shards, &Request{Op: OpUpdate, Addr: uint64(base), Fn: func([]byte) {}})
					record(base, err, closedBefore)
				case 2: // a batch across every shard
					reqs, routes := make([]*Request, batch), make([]int, batch)
					for j := range reqs {
						reqs[j], routes[j] = &Request{Op: OpWrite, Addr: uint64(base + j)}, j%shards
					}
					_ = p.DoBatch(routes, reqs)
					for j, r := range reqs {
						record(base+j, r.Err, closedBefore)
					}
				case 3: // monitoring: allowed before and after Close
					var err error
					if c%2 == 0 {
						err = p.Inspect(c%shards, touch(c%shards))
					} else {
						fns := make([]func() error, shards)
						for i := range fns {
							fns[i] = touch(i)
						}
						err = p.InspectAll(fns)
					}
					if err != nil {
						t.Errorf("inspection: %v", err)
					}
				}
			}
		}()
	}
	for calls.Load() < clients*perClient/3 {
		runtime.Gosched()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range owners {
		e.sealed.Store(true)
	}
	closeReturned.Store(true)
	wg.Wait()
	if err := p.Do(0, &Request{Op: OpRead}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	if err := p.DoBatch([]int{0, 1}, []*Request{{Op: OpRead}, {Op: OpRead}}); !errors.Is(err, ErrClosed) {
		t.Errorf("DoBatch after Close = %v, want ErrClosed", err)
	}
	var acc int32
	for id := 0; id < ids; id++ {
		var n int32
		for _, e := range owners {
			n += e.runs[id].Load()
		}
		if want := accepted[id].Load(); n != want {
			t.Fatalf("request %d ran %d times, accepted %d", id, n, want)
		}
		acc += n
	}
	if acc == 0 || acc == clients*perClient/4*(2+batch) {
		t.Errorf("Close did not land mid-run: %d requests accepted", acc)
	}
	if p.Stats().IdleWriteBacks == 0 {
		t.Error("the idle pump never ran")
	}
}
