// Package shard implements the concurrency layer of the sharded ORAM
// serving stack: a pool of worker goroutines, one per shard, each owning a
// single-threaded ORAM engine exclusively and draining a buffered request
// queue.
//
// The Path ORAM protocol in internal/core is deliberately single-threaded
// and lock-free: an access mutates the stash, the position map, the bucket
// counters and the authentication tree together, so fine-grained locking
// inside one tree buys nothing but contention. Parallelism instead comes
// from running N independent trees (Stefanov et al. observe that disjoint
// trees are accessed independently without weakening obliviousness; Palermo
// builds its throughput on the same structure). The pool enforces the
// one-goroutine-per-tree ownership discipline: engines are handed over at
// construction and are only ever touched from their worker goroutine, which
// is what lets the whole stack stay mutex-free on the hot path.
//
// Requests are submitted either singly (Do: enqueue and wait) or as a batch
// (DoBatch: fan out across shards, join, preserve input order). Close
// drains every request already accepted before the workers exit, so no
// caller is ever left waiting on an abandoned request.
//
// With Config.IdleWork enabled the worker loop becomes a two-stage
// pipeline: after answering a request it performs the engine's deferred
// work — completing queued path write-backs and running background
// eviction — during idle queue time, yielding to the next request the
// moment one arrives. Close and Inspect flush first, so the engines are
// always observed (and left) in a fully written-back state.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/membus"
)

// Engine is one single-threaded ORAM instance. The pool takes exclusive
// ownership: after NewPool returns, an engine must only be used by its
// worker goroutine (or through Inspect requests, which run on the worker).
type Engine interface {
	// Read returns a copy of the block at addr.
	Read(addr uint64) ([]byte, error)
	// ReadInto reads the block at addr into the caller-provided dst,
	// avoiding Read's per-result allocation; found reports whether the
	// block was ever written. The worker writes into dst before completing
	// the request, so the caller may reuse dst as soon as Do returns.
	ReadInto(addr uint64, dst []byte) (found bool, err error)
	// Write replaces the block at addr.
	Write(addr uint64, data []byte) error
	// Update applies fn to the block in one read-modify-write access.
	Update(addr uint64, fn func(data []byte)) error
	// Load is the exclusive read of Section 3.3.1: one oblivious access
	// that removes the block (and its resident super-block group members)
	// from the engine and hands them to the caller. Addresses are
	// engine-local; the serving layer translates group members back to
	// global addresses.
	Load(addr uint64) (data []byte, found bool, group []core.Slot, err error)
	// Store returns a checked-out block straight into the engine's stash —
	// no path access.
	Store(addr uint64, data []byte) error
	// PaddingAccess performs one dummy access that is indistinguishable
	// from a real one to an observer of the engine's memory traffic. The
	// padded batch mode fills its fixed-shape schedule with these.
	PaddingAccess() error
	// StepBackground performs one unit of deferred work — completing one
	// pending path write-back, or (when allowEviction is set) issuing one
	// background-eviction dummy access — and reports which. Workers call
	// it in a loop during idle queue time; core.BgNone ends the loop.
	StepBackground(allowEviction bool) (core.BackgroundWork, error)
	// Flush completes every pending write-back and fully drains
	// background eviction, leaving the engine in a state the synchronous
	// protocol could have produced.
	Flush() error
}

// TimedEngine is an Engine whose storage backend charges a cycle-accurate
// memory model (a membus port behind a core.TimedStore). Engines report
// their port's modeled-timing counters so the pool can aggregate
// cycle/latency stats through the same serialized snapshot path as the
// protocol counters. The bool is false when the engine runs untimed (a
// plain in-memory backend), letting mixed pools skip those shards.
type TimedEngine interface {
	Engine
	TimingStats() (membus.Stats, bool)
}

// Op selects what a Request does on its shard's engine.
type Op int

const (
	// OpRead reads Addr; the result lands in Request.Out.
	OpRead Op = iota
	// OpWrite writes Data to Addr.
	OpWrite
	// OpUpdate applies Fn to Addr in a single oblivious access.
	OpUpdate
	// OpLoad is the exclusive read: the block (and its super-block group)
	// is removed from the engine; results land in Out, Found and Group.
	OpLoad
	// OpStore returns a checked-out block (Data) to Addr's stash slot.
	OpStore
	// OpPadding performs one dummy access (Engine.PaddingAccess): a real
	// random-path access that touches no block. Padded batches use it to
	// fill the dummy slots of their fixed shard schedule, so an observer
	// sees the same per-shard traffic regardless of which slots carried
	// real requests.
	OpPadding
	// OpInspect runs Run on the worker goroutine with exclusive access to
	// the engine and nothing else in flight on that shard. Used to take
	// consistent stats snapshots without stopping the world.
	OpInspect
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("shard: pool is closed")

// Request is one operation bound for a shard worker. The Op-specific input
// fields must be set before submission; Out and Err are written by the
// worker and must only be read after Do/DoBatch returns.
type Request struct {
	Op   Op
	Addr uint64            // engine-local address (OpRead/OpWrite/OpUpdate/OpLoad/OpStore)
	Data []byte            // OpWrite/OpStore payload
	Dst  []byte            // OpRead: when set, the result is written here (Engine.ReadInto) and Out stays nil
	Fn   func(data []byte) // OpUpdate mutator
	Run  func()            // OpInspect body
	Peek bool              // OpInspect: skip the consistency flush (observe deferred state as-is)

	Out   []byte      // OpRead/OpLoad result
	Found bool        // OpRead with Dst, OpLoad: the block had been written before
	Group []core.Slot // OpLoad: checked-out super-block group members (engine-local addresses)
	Err   error       // operation outcome

	wg *sync.WaitGroup
}

// Stats are the scheduler's own counters (the ORAM protocol counters live
// in the engines).
type Stats struct {
	// SingleOps counts requests submitted through Do.
	SingleOps uint64
	// Batches counts DoBatch calls; BatchedOps counts the requests they
	// carried.
	Batches    uint64
	BatchedOps uint64
	// PaddingOps counts OpPadding requests executed: the dummy accesses
	// injected by padded batches. They are deliberately NOT included in
	// ExecutedPerShard, so that ExecutedPerShard measures real client
	// traffic; PaddingPerShard carries the per-shard breakdown, and
	// on-the-wire per-shard traffic is executed plus padding.
	PaddingOps      uint64
	PaddingPerShard []uint64
	// IdleWriteBacks and IdleEvictions count the background work units the
	// workers performed during idle queue time (Config.IdleWork): deferred
	// path write-backs completed, and background-eviction dummy accesses
	// issued.
	IdleWriteBacks uint64
	IdleEvictions  uint64
	// ExecutedPerShard counts real (non-padding, non-inspect) requests
	// completed by each worker.
	ExecutedPerShard []uint64
}

// paddedCounter is an atomic counter padded to its own cache line so
// per-shard counters don't false-share under concurrent load.
type paddedCounter struct {
	atomic.Uint64
	_ [56]byte
}

// DefaultEvictionsPerIdle caps the background-eviction dummy accesses a
// worker issues per idle gap. The cap bounds how long a worker can be busy
// with speculative draining when a request arrives (it yields between
// units), and keeps an idle pool from endlessly polishing its stashes.
// Deferred write-backs are never capped: they are owed work, not
// speculation.
const DefaultEvictionsPerIdle = 4

// Config parameterizes a Pool.
type Config struct {
	// QueueDepth is the per-shard request buffer (default 128): deep
	// enough to absorb bursts, shallow enough to bound the work Close must
	// drain.
	QueueDepth int
	// IdleWork enables the idle-time background scheduler: after
	// answering a request, the worker completes deferred write-backs and
	// runs background eviction until the queue has work again. Close and
	// Inspect flush the engines first, so snapshots and the final state
	// are always fully written back.
	IdleWork bool
	// EvictionsPerIdle caps background-eviction dummy accesses per idle
	// gap (default DefaultEvictionsPerIdle; negative disables idle
	// eviction, leaving only write-back completion). Only a request opens
	// a gap's budget; an inspection spends it (evictionBudget).
	EvictionsPerIdle int
}

// Pool owns N engines and runs one worker goroutine per engine.
type Pool struct {
	engines []Engine
	queues  []chan *Request
	workers sync.WaitGroup

	idleWork         bool
	evictionsPerIdle int

	// mu guards closed against concurrent Close: submitters hold the read
	// lock across the channel send, so Close (write lock) cannot close a
	// channel out from under an in-flight send.
	mu     sync.RWMutex
	closed bool

	// inspectMu serializes post-Close direct inspections: once the workers
	// have exited, concurrent Inspect/InspectAll callers would otherwise
	// touch the engines from their own goroutines simultaneously.
	inspectMu sync.Mutex

	singleOps      atomic.Uint64
	batches        atomic.Uint64
	batchedOps     atomic.Uint64
	paddingOps     atomic.Uint64
	idleWriteBacks atomic.Uint64
	idleEvictions  atomic.Uint64
	executed       []paddedCounter
	padded         []paddedCounter

	// bgErrMu/bgErr record the first background-work or close-time flush
	// error; Close surfaces it (request errors travel with their requests,
	// but background work has no caller to report to).
	bgErrMu sync.Mutex
	bgErr   error
}

// NewPool starts one worker per engine.
func NewPool(engines []Engine, cfg Config) (*Pool, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("shard: pool needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("shard: engine %d is nil", i)
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.EvictionsPerIdle == 0 {
		cfg.EvictionsPerIdle = DefaultEvictionsPerIdle
	} else if cfg.EvictionsPerIdle < 0 {
		cfg.EvictionsPerIdle = 0
	}
	p := &Pool{
		engines:          engines,
		queues:           make([]chan *Request, len(engines)),
		executed:         make([]paddedCounter, len(engines)),
		padded:           make([]paddedCounter, len(engines)),
		idleWork:         cfg.IdleWork,
		evictionsPerIdle: cfg.EvictionsPerIdle,
	}
	for i := range engines {
		p.queues[i] = make(chan *Request, cfg.QueueDepth)
		p.workers.Add(1)
		go p.run(i)
	}
	return p, nil
}

// NumShards returns the number of engines.
func (p *Pool) NumShards() int { return len(p.engines) }

// handle applies one request to shard i's engine.
func (p *Pool) handle(i int, e Engine, req *Request) {
	switch req.Op {
	case OpRead:
		if req.Dst != nil {
			req.Found, req.Err = e.ReadInto(req.Addr, req.Dst)
		} else {
			req.Out, req.Err = e.Read(req.Addr)
		}
	case OpWrite:
		req.Err = e.Write(req.Addr, req.Data)
	case OpUpdate:
		req.Err = e.Update(req.Addr, req.Fn)
	case OpLoad:
		req.Out, req.Found, req.Group, req.Err = e.Load(req.Addr)
	case OpStore:
		req.Err = e.Store(req.Addr, req.Data)
	case OpPadding:
		req.Err = e.PaddingAccess()
		p.paddingOps.Add(1)
		p.padded[i].Add(1)
	case OpInspect:
		// Inspections observe a consistent snapshot: with idle work on,
		// deferred write-backs and pending evictions are flushed first, so
		// the snapshot matches what the synchronous path would show. Peek
		// inspections opt out to observe the deferred state itself. A
		// flush failure travels on the request AND is recorded for Close:
		// several snapshot callers (Stats, StashSize) have no error return
		// and would otherwise silently observe an engine holding deferred
		// state.
		if p.idleWork && !req.Peek {
			if req.Err = e.Flush(); req.Err != nil {
				p.noteBackgroundErr(req.Err)
			}
		}
		if req.Run != nil {
			req.Run()
		}
	default:
		req.Err = fmt.Errorf("shard: unknown op %d", req.Op)
	}
	if req.Op != OpInspect && req.Op != OpPadding {
		// Inspections are monitoring, not load, and padding is scheduler
		// overhead counted in PaddingOps: keeping both out means
		// ExecutedPerShard measures real client traffic per shard.
		p.executed[i].Add(1)
	}
	req.wg.Done()
}

// run is the worker loop: serially apply every request routed to shard i.
// Receiving from the queue makes Close-time draining automatic — receive
// only fails once the closed channel is empty. Between requests, idle-work
// pools run the engine's deferred write-backs and background eviction,
// yielding the moment the queue has a request (requests always win the
// select, so background work never delays an already-queued client).
func (p *Pool) run(i int) {
	defer p.workers.Done()
	e := p.engines[i]
	q := p.queues[i]
	for {
		req, ok := <-q
		if !ok {
			break
		}
		// Read before handle: a handled request is its submitter's again.
		left := p.evictionBudget(req)
		p.handle(i, e, req)
		if !p.idleWork {
			continue
		}
		// Yield before touching background work: the goroutine just
		// unblocked by the response must get the processor first, or —
		// with few processors — the response's delivery would silently
		// absorb the cost of the write-back it was supposed to skip.
		runtime.Gosched()
	idle:
		for {
			select {
			case req, ok := <-q:
				if !ok {
					break idle
				}
				left = p.evictionBudget(req)
				p.handle(i, e, req)
				runtime.Gosched()
			default:
				w, err := e.StepBackground(left > 0)
				if err != nil {
					p.noteBackgroundErr(err)
					break idle
				}
				switch w {
				case core.BgWriteBack:
					p.idleWriteBacks.Add(1)
				case core.BgEviction:
					p.idleEvictions.Add(1)
					left--
				default:
					break idle
				}
			}
		}
		// A break out of the idle loop with the queue still open simply
		// returns to the blocking receive above; if the queue was closed
		// the receive observes it and the worker exits through the drain
		// path below.
	}
	// Close-time drain: leave the engine fully written back. Unconditional
	// because deferred state is not exclusive to idle-work mode — engines
	// with a position-map lookaside cache hold dirty labels even under the
	// synchronous protocol; Flush is a cheap no-op when nothing is owed.
	if err := e.Flush(); err != nil {
		p.noteBackgroundErr(err)
	}
}

// evictionBudget is how many idle evictions the gap after req may issue.
// An inspection (Flush, a snapshot, a peek) spends the gap's budget, so an
// engine evicts nothing after one until its next request: DESIGN.md's
// "Flush is a barrier". Owed write-backs complete in every gap.
func (p *Pool) evictionBudget(req *Request) int {
	if req.Op == OpInspect {
		return 0
	}
	return p.evictionsPerIdle
}

func (p *Pool) noteBackgroundErr(err error) {
	p.bgErrMu.Lock()
	if p.bgErr == nil {
		p.bgErr = err
	}
	p.bgErrMu.Unlock()
}

// submit enqueues req on shard s. req.wg must be armed by the caller.
func (p *Pool) submit(s int, req *Request) error {
	if s < 0 || s >= len(p.queues) {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", s, len(p.queues))
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	// Blocking on a full queue while holding the read lock is safe: the
	// worker keeps draining, and Close merely waits until the send lands.
	p.queues[s] <- req
	return nil
}

// Do submits req to shard s and waits for the worker to complete it.
// The returned error is the request's own Err (nil on success), or
// ErrClosed if the pool no longer accepts work.
func (p *Pool) Do(s int, req *Request) error {
	var wg sync.WaitGroup
	return p.DoWith(s, req, &wg)
}

// DoWith is Do with a caller-supplied WaitGroup: throughput-sensitive
// callers recycle the request and its wait state together (e.g. through a
// sync.Pool), making single-operation submission allocation-free. wg must
// be idle (its counter at zero) and is left idle again on return.
func (p *Pool) DoWith(s int, req *Request, wg *sync.WaitGroup) error {
	wg.Add(1)
	req.wg = wg
	if err := p.submit(s, req); err != nil {
		wg.Done()
		req.Err = err
		return err
	}
	wg.Wait()
	if req.Op != OpInspect {
		p.singleOps.Add(1)
	}
	return req.Err
}

// DoBatch submits reqs[i] to shards[i] for all i, then waits for every
// request to finish. Results stay in input order because each request
// carries its own result slot. Per-request outcomes are in reqs[i].Err;
// the returned error is the first non-nil one (submission errors
// included), so callers with homogeneous batches can check one value.
func (p *Pool) DoBatch(shards []int, reqs []*Request) error {
	if len(shards) != len(reqs) {
		return fmt.Errorf("shard: %d shard routes for %d requests", len(shards), len(reqs))
	}
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	enqueued := 0
	for i, r := range reqs {
		r.wg = &wg
		if err := p.submit(shards[i], r); err != nil {
			// Nothing from i on was enqueued: fail the remainder locally
			// and release their waits so the join below still fires.
			for j := i; j < len(reqs); j++ {
				reqs[j].Err = err
				wg.Done()
			}
			break
		}
		enqueued++
	}
	wg.Wait()
	// Count only work that reached a worker, so BatchedOps stays
	// reconcilable with ExecutedPerShard even when submission fails.
	if enqueued > 0 {
		p.batches.Add(1)
		p.batchedOps.Add(uint64(enqueued))
	}
	for _, r := range reqs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Inspect runs fn on shard s's worker goroutine, serialized with that
// shard's request stream, giving fn exclusive access to the engine. If the
// pool is closed it waits for the workers to exit and then runs fn
// directly — the engine is quiescent either way.
func (p *Pool) Inspect(s int, fn func()) error { return p.inspect(s, fn, false) }

// Peek is Inspect without the idle-work consistency flush: fn observes
// (and may advance, e.g. via StepBackground) the engine's deferred state
// as-is. Background pumps and backlog gauges use it so observing the
// pipeline does not drain it.
func (p *Pool) Peek(s int, fn func()) error { return p.inspect(s, fn, true) }

func (p *Pool) inspect(s int, fn func(), peek bool) error {
	req := &Request{Op: OpInspect, Run: fn, Peek: peek}
	err := p.Do(s, req)
	if errors.Is(err, ErrClosed) {
		if s < 0 || s >= len(p.engines) {
			return fmt.Errorf("shard: shard %d out of range [0,%d)", s, len(p.engines))
		}
		// closed was observed, so Close already closed the queues; the
		// workers exit once drained. Wait, then run fn with the post-close
		// inspection lock so concurrent inspectors stay serialized.
		p.workers.Wait()
		p.inspectMu.Lock()
		fn()
		p.inspectMu.Unlock()
		return nil
	}
	return err
}

// InspectAll runs fns[i] on shard i's worker for every shard, fanned out
// concurrently (one queue wait in parallel per shard, not summed) while
// still serializing each fn with its shard's request stream. Shards whose
// submission raced with Close are handled like Inspect: wait for the
// drain, then run directly on the quiescent engine.
func (p *Pool) InspectAll(fns []func()) error { return p.inspectAll(fns, false) }

// PeekAll is InspectAll without the idle-work consistency flush: fns
// observe each engine's deferred state as-is (pending write-backs
// included). Monitoring that must not perturb the pipeline uses this.
func (p *Pool) PeekAll(fns []func()) error { return p.inspectAll(fns, true) }

func (p *Pool) inspectAll(fns []func(), peek bool) error {
	if len(fns) != len(p.engines) {
		return fmt.Errorf("shard: %d inspectors for %d shards", len(fns), len(p.engines))
	}
	var wg sync.WaitGroup
	backing := make([]Request, len(fns))
	var direct []int
	for i, fn := range fns {
		backing[i] = Request{Op: OpInspect, Run: fn, Peek: peek, wg: &wg}
		wg.Add(1)
		if err := p.submit(i, &backing[i]); err != nil {
			wg.Done()
			if errors.Is(err, ErrClosed) {
				direct = append(direct, i)
				continue
			}
			return err
		}
	}
	wg.Wait()
	if len(direct) > 0 {
		p.workers.Wait()
		p.inspectMu.Lock()
		for _, i := range direct {
			fns[i]()
		}
		p.inspectMu.Unlock()
	}
	// Surface per-shard flush failures (the inspections themselves cannot
	// fail): the snapshot still ran, but on an engine that may hold
	// deferred state.
	for i := range backing {
		if backing[i].Err != nil {
			return backing[i].Err
		}
	}
	return nil
}

// TimingStats merges every timed engine's modeled memory-timing counters
// (counters sum, the completion frontier takes the max). Snapshots are
// taken on the workers, serialized with each shard's request stream; under
// idle work the engines flush first, so deferred write-backs are charged
// before the snapshot — the numbers always describe a state the
// synchronous protocol could have produced. Like every other snapshot
// (Stats, StashSize), a pre-snapshot flush failure cannot be reported
// here: it is recorded and surfaced by Close, and the affected shard's
// stats may then be missing its still-deferred write-back charges. The
// bool is false when no engine is timed.
func (p *Pool) TimingStats() (membus.Stats, bool) {
	snaps := make([]membus.Stats, len(p.engines))
	timed := make([]bool, len(p.engines))
	fns := make([]func(), len(p.engines))
	for i, e := range p.engines {
		te, ok := e.(TimedEngine)
		if !ok {
			fns[i] = func() {}
			continue
		}
		i := i
		fns[i] = func() { snaps[i], timed[i] = te.TimingStats() }
	}
	_ = p.inspectAll(fns, false)
	var merged membus.Stats
	any := false
	for i := range snaps {
		if timed[i] {
			merged = merged.Merge(snaps[i])
			any = true
		}
	}
	return merged, any
}

// Stats returns a snapshot of the scheduler counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		SingleOps:        p.singleOps.Load(),
		Batches:          p.batches.Load(),
		BatchedOps:       p.batchedOps.Load(),
		PaddingOps:       p.paddingOps.Load(),
		IdleWriteBacks:   p.idleWriteBacks.Load(),
		IdleEvictions:    p.idleEvictions.Load(),
		ExecutedPerShard: make([]uint64, len(p.executed)),
		PaddingPerShard:  make([]uint64, len(p.padded)),
	}
	for i := range p.executed {
		s.ExecutedPerShard[i] = p.executed[i].Load()
		s.PaddingPerShard[i] = p.padded[i].Load()
	}
	return s
}

// Close stops accepting requests, waits for every already-accepted request
// to complete, flushes each engine's deferred work (idle-work pools), and
// stops the workers. It returns the first background-work or flush error
// encountered over the pool's lifetime — such errors have no request to
// travel with. Safe to call more than once; later calls wait for the
// drain and report the same error.
func (p *Pool) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, q := range p.queues {
			close(q)
		}
	}
	p.mu.Unlock()
	p.workers.Wait()
	p.bgErrMu.Lock()
	defer p.bgErrMu.Unlock()
	return p.bgErr
}
