package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pathoram "repro"
)

// loadClient is one closed-loop client: it submits its next request only
// after the previous one returned, with no think time.
type loadClient struct {
	gen    *stream
	tgt    target
	shadow []atomic.Uint32 // version last written per address of this client's tree
	sub    submission
	lo     []uint32
	meta   bool // metadata-only tree: nil payloads, nothing to verify

	slices    []sliceAcc
	attempted uint64
	failed    uint64
	firstErr  error
}

type sliceAcc struct {
	lat hist
	ops uint64
}

// newClients makes the workload's client goroutines' state. Clients of one
// tree share its shadow; each HTTP client has a tenant, and a shadow, of its
// own.
func newClients(inst *instance, seed int64) []*loadClient {
	w := inst.w
	clients := make([]*loadClient, w.clients)
	for i := range clients {
		c := &loadClient{
			gen: newStream(seed, w, i), tgt: inst.targets[i],
			shadow: inst.shadows[i%len(inst.shadows)],
			lo:     make([]uint32, w.batch),
			meta:   w.metaOnly,
		}
		c.sub.data = make([][]byte, w.batch)
		for j := range c.sub.data {
			if !c.meta {
				c.sub.data[j] = make([]byte, benchBlockSize)
			}
		}
		clients[i] = c
	}
	return clients
}

// prepare fills write payloads with the next version of each address, or
// notes the versions a read may not come back older than.
func (c *loadClient) prepare() {
	for i, a := range c.sub.addrs {
		v := c.shadow[a].Load()
		if c.sub.write && !c.meta {
			fillBlock(c.sub.data[i], a, v+1)
		}
		c.lo[i] = v
	}
}

// check verifies the reply against the shadow and publishes completed
// writes. A read must carry well-formed content of its address; of an
// address this client owns, exactly the shadow's version; of another
// client's, a version between the shadow before the call and one past the
// shadow after it (that writer may have completed a write it has not
// published yet).
func (c *loadClient) check(err error) {
	n := uint64(len(c.sub.addrs))
	c.attempted += n
	if err != nil {
		c.fail(n, err)
		return
	}
	if c.sub.write {
		for i, a := range c.sub.addrs {
			c.shadow[a].Store(c.lo[i] + 1)
		}
		return
	}
	if c.meta {
		return
	}
	if len(c.sub.out) != len(c.sub.addrs) {
		c.fail(n, fmt.Errorf("read returned %d blocks for %d addresses", len(c.sub.out), n))
		return
	}
	for i, a := range c.sub.addrs {
		got, ok := blockVersion(c.sub.out[i], a)
		lo, hi := c.lo[i], c.lo[i]
		if owner(a, c.gen.shards, c.gen.clients) != c.gen.client {
			hi = c.shadow[a].Load() + 1
		}
		if !ok || got < lo || got > hi {
			c.fail(1, fmt.Errorf("read of addr %d: version %d well-formed=%v, shadow allows [%d,%d]", a, got, ok, lo, hi))
		}
	}
}

func (c *loadClient) fail(n uint64, err error) {
	c.failed += n
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// step makes, submits and checks the client's next request and returns the
// submit call's start and end, the latency the client sees. With a lane it
// also records the loadgen.op span the HTTP wrappers hang theirs under.
func (c *loadClient) step(tr *tracer, l *lane) (t0, t1 time.Time) {
	c.gen.next(&c.sub)
	c.prepare()
	if l != nil {
		c.sub.id = tr.id()
	}
	t0 = time.Now()
	err := c.tgt.submit(&c.sub)
	t1 = time.Now()
	c.check(err)
	if l != nil {
		l.record("loadgen.op", c.sub.id, 0, tr.since(t0), tr.since(t1))
	}
	return t0, t1
}

// run drives the client from start until the last slice ends. An op is
// counted in the slice in which it completes.
func (c *loadClient) run(start time.Time, sliceDur time.Duration, slices int, tr *tracer) {
	c.slices = make([]sliceAcc, slices)
	end := start.Add(sliceDur * time.Duration(slices))
	var l *lane
	if tr != nil {
		l = tr.newLane(1 << 16)
	}
	for {
		t0, t1 := c.step(tr, l)
		i := min(int(t1.Sub(start)/sliceDur), slices-1)
		c.slices[i].lat.add(int64(t1.Sub(t0)))
		c.slices[i].ops += uint64(len(c.sub.addrs))
		if !t1.Before(end) {
			return
		}
	}
}

// counters is everything read from the public surface around a window.
type counters struct {
	stats   pathoram.Stats
	timing  pathoram.TimingStats
	timed   bool
	sched   pathoram.SchedulerStats
	paths   uint64
	wire    uint64
	mallocs uint64
}

type scheduled interface {
	SchedulerStats() pathoram.SchedulerStats
}

func (inst *instance) snapshot() counters {
	var c counters
	for _, o := range inst.orams {
		c.stats = c.stats.Merge(o.Stats())
		if t, ok := o.TimingStats(); ok {
			c.timing, c.timed = c.timing.Merge(t), true
		}
		if tc, ok := o.(*tracedClient); ok {
			o = tc.Client
		}
		if s, ok := o.(scheduled); ok {
			st := s.SchedulerStats()
			c.sched.SingleOps += st.SingleOps
			c.sched.Batches += st.Batches
			c.sched.BatchedOps += st.BatchedOps
			c.sched.IdleWriteBacks += st.IdleWriteBacks
			c.sched.IdleEvictions += st.IdleEvictions
			c.sched.ExecutedPerShard = append(c.sched.ExecutedPerShard, st.ExecutedPerShard...)
		}
	}
	c.paths = inst.paths.total()
	c.wire = inst.wire.Load()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs = m.Mallocs
	return c
}

// windowResult is one measured window: per-slice rates and latency, the
// whole-window histogram, and the counters accrued in it.
type windowResult struct {
	sliceOps  []uint64
	sliceSecs []float64
	sliceLat  []hist
	whole     hist
	ops       uint64
	wall      time.Duration
	attempted uint64
	failed    uint64
	firstErr  error
	pre, post counters
}

// runWindow drives every client for slices*sliceDur and, where the
// workload defers write-back, closes the window with a Flush that the last
// slice pays for. Protocol counters are reset at the start, so post holds
// the window's own (peaks included); cumulative ones are differenced
// against pre.
func runWindow(inst *instance, clients []*loadClient, sliceDur time.Duration, slices int, tr *tracer) (*windowResult, error) {
	for _, o := range inst.orams {
		o.ResetStats()
	}
	if tr != nil && inst.w.tenants > 0 {
		inst.trace.Store(newTraceState(tr, inst.w.tenants))
		defer inst.trace.Store(nil)
	}
	r := &windowResult{pre: inst.snapshot()}
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(start) {
			}
			c.run(start, sliceDur, slices, tr)
		}()
	}
	wg.Wait()
	if inst.w.async {
		for _, o := range inst.orams {
			if err := o.Flush(); err != nil {
				return nil, fmt.Errorf("closing flush: %w", err)
			}
		}
	}
	done := time.Now()
	r.wall = done.Sub(start)
	r.post = inst.snapshot()

	r.sliceOps = make([]uint64, slices)
	r.sliceSecs = make([]float64, slices)
	r.sliceLat = make([]hist, slices)
	for i := 0; i < slices; i++ {
		r.sliceSecs[i] = sliceDur.Seconds()
		for _, c := range clients {
			r.sliceOps[i] += c.slices[i].ops
			r.sliceLat[i].merge(&c.slices[i].lat)
		}
		r.ops += r.sliceOps[i]
		r.whole.merge(&r.sliceLat[i])
	}
	// The last slice runs until its last op returns and the Flush ends.
	r.sliceSecs[slices-1] = (done.Sub(start) - sliceDur*time.Duration(slices-1)).Seconds()
	for _, c := range clients {
		r.attempted += c.attempted
		r.failed += c.failed
		if r.firstErr == nil {
			r.firstErr = c.firstErr
		}
		c.attempted, c.failed, c.firstErr = 0, 0, nil
	}
	return r, nil
}

func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle finishes the first one's sweep
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// replayDigest is every modeled and protocol count after a fixed seeded
// stream; two set-ups with one seed must produce equal digests.
type replayDigest struct {
	stats  [2]uint64 // real and dummy accesses
	timing struct {
		cycles, reads, writes, rowHits, rowMisses, overlapActs, starved, pathReads, pathWrites, readCycles, writeCycles uint64
	}
	paths uint64
}

// replay runs a fixed number of seeded submissions on a fresh instance and
// digests its counters (prefill traffic included: it is seeded too).
func replay(inst *instance, seed int64) (replayDigest, error) {
	var d replayDigest
	c := newClients(inst, seed+1)[0]
	for i := 0; i < 128; i++ {
		c.step(nil, nil)
	}
	if c.firstErr != nil {
		return d, fmt.Errorf("%s: seeded replay: %w", inst.w.name, c.firstErr)
	}
	s := inst.snapshot()
	d.stats = [2]uint64{s.stats.RealAccesses, s.stats.DummyAccesses}
	t := s.timing
	d.timing.cycles, d.timing.reads, d.timing.writes = t.Cycles, t.DRAM.Reads, t.DRAM.Writes
	d.timing.rowHits, d.timing.rowMisses = t.DRAM.RowHits, t.DRAM.RowMisses
	d.timing.overlapActs, d.timing.starved = t.DRAM.BankOverlapActs, t.DRAM.StarvationForced
	d.timing.pathReads, d.timing.pathWrites = t.PathReads, t.PathWrites
	d.timing.readCycles, d.timing.writeCycles = t.ReadCycles, t.WriteCycles
	d.paths = s.paths
	return d, nil
}
