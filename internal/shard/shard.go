// Package shard implements the concurrency layer of the sharded ORAM
// serving stack: N single-threaded ORAM engines, each owned exclusively by
// a per-shard lock, and a scheduler that runs every request on the
// goroutine that submits it.
//
// The Path ORAM protocol in internal/core is deliberately single-threaded
// and lock-free: an access mutates the stash, the position map, the bucket
// counters and the authentication tree together, so fine-grained locking
// inside one tree buys nothing but contention. Parallelism instead comes
// from running N independent trees (Stefanov et al. observe that disjoint
// trees are accessed independently without weakening obliviousness; Palermo
// builds its throughput on the same structure). That needs only exclusive
// ownership of each tree, not a goroutine per tree: the pool hands each
// engine to a lock at construction, and whoever holds the lock — a client's
// goroutine, an inspection, Close — is the engine's only user. As the
// processor's ORAM interface serves each last-level-cache miss itself, a
// request here pays no scheduler hand-off: it takes the shard's lock,
// runs, and releases it.
//
// Requests are submitted either singly (Do) or as a batch (DoBatch: one
// shard's share runs on the caller, every other share on a goroutine of
// its own; each share keeps slice order, and results keep input order).
// Close fences every shard — a request that got the lock first completes,
// one that did not fails with ErrClosed — and stops the pumps; it calls no
// engine, so completing deferred work and closing the engines is the
// owner's to do afterwards, through Inspect.
//
// With Config.IdleWork enabled each shard keeps one background goroutine,
// a pump: after a request releases the shard it completes the engine's
// owed path write-backs one unit per lock hold, stepping aside the moment
// a request waits for the lock. It never issues background eviction: that
// runs inline when a stash passes its threshold, or when a caller asks for
// it through StepBackground. Inspect runs its function on the engine as it
// stands, and a caller that wants a written-back engine flushes inside it.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Engine is one single-threaded ORAM instance. The pool takes exclusive
// ownership: after NewPool returns, an engine must only be used through the
// pool, which calls it only under its shard's lock.
type Engine interface {
	// Read returns a copy of the block at addr.
	Read(addr uint64) ([]byte, error)
	// ReadInto reads the block at addr into the caller-provided dst,
	// avoiding Read's per-result allocation; found reports whether the
	// block was ever written. dst is written before Do returns, so the
	// caller may reuse it as soon as Do does.
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
	// background-eviction dummy access — and reports which. The idle pump
	// calls it, without eviction, once per lock hold; core.BgNone ends the
	// gap.
	StepBackground(allowEviction bool) (core.BackgroundWork, error)
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
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("shard: pool is closed")

// Request is one operation bound for a shard. The Op-specific input fields
// must be set before submission; Out and Err are written while the request
// runs and must only be read after Do/DoBatch returns.
type Request struct {
	Op   Op
	Addr uint64            // engine-local address (OpRead/OpWrite/OpUpdate/OpLoad/OpStore)
	Data []byte            // OpWrite/OpStore payload
	Dst  []byte            // OpRead: when set, the result is written here (Engine.ReadInto) and Out stays nil
	Fn   func(data []byte) // OpUpdate mutator

	Out   []byte      // OpRead/OpLoad result
	Found bool        // OpRead with Dst, OpLoad: the block had been written before
	Group []core.Slot // OpLoad: checked-out super-block group members (engine-local addresses)
	Err   error       // operation outcome
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
	// IdleWriteBacks counts the deferred path write-backs the idle pumps
	// completed between requests (Config.IdleWork). IdleEvictions is
	// always 0: a pump issues no eviction. It stays for the benchmark
	// harness, which sums it.
	IdleWriteBacks uint64
	IdleEvictions  uint64
	// ExecutedPerShard counts real (non-padding) requests completed on
	// each shard.
	ExecutedPerShard []uint64
}

// lockSpin is how long a request yield-spins for a busy shard before it
// blocks, so that it seldom pays a futex sleep and wake (50-100µs on a
// VM). It is the timing lane's laneSpin rather than one access because a
// holder's client may take the shard again for its next op: on flat-enc
// (2-vCPU VM) a 20µs spin left p99 near 105µs and 100µs brought it to
// 42-55µs.
const lockSpin = 100 * time.Microsecond

// Config parameterizes a Pool.
type Config struct {
	// IdleWork enables the idle-time write-back scheduler: after each
	// lock hold, the shard's pump completes deferred write-backs until
	// none is owed or a request waits for the shard again.
	IdleWork bool
}

// owner is one shard: the engine and the lock that owns it, the idle-work
// state that lock guards, and the shard's counters. Padded so that two
// shards' locks never share a cache line.
type owner struct {
	mu     sync.Mutex
	engine Engine
	// waiting counts requests spinning or blocked on mu; the pump steps
	// aside while it is non-zero.
	waiting atomic.Int32
	// kick wakes the pump after a lock hold (IdleWork only).
	kick     chan struct{}
	executed atomic.Uint64
	padded   atomic.Uint64
	_        [64]byte
}

// lock takes the shard for a request: at once when it is free, otherwise
// by yield-spinning for lockSpin before blocking.
func (o *owner) lock() {
	if o.mu.TryLock() {
		return
	}
	o.waiting.Add(1)
	for start := time.Now(); time.Since(start) < lockSpin; {
		runtime.Gosched()
		if o.mu.TryLock() {
			o.waiting.Add(-1)
			return
		}
	}
	o.mu.Lock()
	o.waiting.Add(-1)
}

// Pool owns N engines, one lock each.
type Pool struct {
	owners   []owner
	idleWork bool

	// closed is set by Close before it fences the shards and read under a
	// shard's lock, so a request either finishes before the fence or sees
	// it.
	closed  atomic.Bool
	closeMu sync.Mutex    // serializes Close
	done    chan struct{} // closed by Close: the pumps exit
	pumps   sync.WaitGroup

	singleOps      atomic.Uint64
	batches        atomic.Uint64
	batchedOps     atomic.Uint64
	paddingOps     atomic.Uint64
	idleWriteBacks atomic.Uint64

	// bgErrMu/bgErr record the first background-work or inspection error;
	// Close surfaces it (request errors travel with their requests, but
	// background work has no caller to report to).
	bgErrMu sync.Mutex
	bgErr   error
}

// NewPool takes ownership of engines; with cfg.IdleWork it starts one
// idle pump per engine.
func NewPool(engines []Engine, cfg Config) (*Pool, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("shard: pool needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("shard: engine %d is nil", i)
		}
	}
	p := &Pool{owners: make([]owner, len(engines)), idleWork: cfg.IdleWork}
	for i, e := range engines {
		p.owners[i].engine = e
	}
	if p.idleWork {
		p.done = make(chan struct{})
		for i := range p.owners {
			p.owners[i].kick = make(chan struct{}, 1)
			p.pumps.Add(1)
			go p.pump(&p.owners[i])
		}
	}
	return p, nil
}

// NumShards returns the number of engines.
func (p *Pool) NumShards() int { return len(p.owners) }

func (p *Pool) owner(s int) (*owner, error) {
	if s < 0 || s >= len(p.owners) {
		return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", s, len(p.owners))
	}
	return &p.owners[s], nil
}

// acquire takes o for a request, or reports false — with the lock
// released — once the pool is closed.
func (p *Pool) acquire(o *owner) bool {
	o.lock()
	if p.closed.Load() {
		o.mu.Unlock()
		return false
	}
	return true
}

// release ends a lock hold and kicks the pump to complete what the hold
// left owed.
func (p *Pool) release(o *owner) {
	o.mu.Unlock()
	if !p.idleWork {
		return
	}
	select {
	case o.kick <- struct{}{}:
	default:
	}
}

// handle applies one request to o's engine; the caller holds o.mu.
func (p *Pool) handle(o *owner, req *Request) {
	e := o.engine
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
		// Padding is scheduler overhead, counted apart so that
		// ExecutedPerShard measures real client traffic per shard.
		req.Err = e.PaddingAccess()
		p.paddingOps.Add(1)
		o.padded.Add(1)
		return
	default:
		req.Err = fmt.Errorf("shard: unknown op %d", req.Op)
	}
	o.executed.Add(1)
}

// pump is one shard's idle worker (IdleWork): woken after each lock hold,
// it completes the engine's owed write-backs one StepBackground unit per
// hold of the lock, and stops when none is left or a request waits — the
// request's release wakes it again.
func (p *Pool) pump(o *owner) {
	defer p.pumps.Done()
	for {
		select {
		case <-p.done:
			return
		case <-o.kick:
		}
		for o.waiting.Load() == 0 && o.mu.TryLock() {
			if p.closed.Load() {
				o.mu.Unlock()
				return
			}
			w, err := o.engine.StepBackground(false)
			if err != nil {
				p.noteBackgroundErr(err)
			} else if w == core.BgWriteBack {
				p.idleWriteBacks.Add(1)
			}
			o.mu.Unlock()
			if err != nil || w != core.BgWriteBack {
				break
			}
		}
	}
}

func (p *Pool) noteBackgroundErr(err error) {
	p.bgErrMu.Lock()
	if p.bgErr == nil {
		p.bgErr = err
	}
	p.bgErrMu.Unlock()
}

// Do runs req on shard s from the calling goroutine. The returned error is
// the request's own Err (nil on success), or ErrClosed if the pool no
// longer accepts work.
func (p *Pool) Do(s int, req *Request) error {
	o, err := p.owner(s)
	if err != nil {
		req.Err = err
		return err
	}
	if !p.acquire(o) {
		req.Err = ErrClosed
		return ErrClosed
	}
	p.handle(o, req)
	p.release(o)
	p.singleOps.Add(1)
	return req.Err
}

// DoBatch runs reqs[i] on shards[i] for all i and returns when every
// request has finished. The share of the first request's shard runs on
// the caller, every other shard's share on a goroutine of its own, each
// in slice order under one hold of its shard's lock. Results stay in
// input order because each request carries its own result slot.
// Per-request outcomes are in reqs[i].Err; the returned error is the first
// non-nil one, so callers with homogeneous batches can check one value.
func (p *Pool) DoBatch(shards []int, reqs []*Request) error {
	if len(shards) != len(reqs) {
		return fmt.Errorf("shard: %d shard routes for %d requests", len(shards), len(reqs))
	}
	if len(reqs) == 0 {
		return nil
	}
	spread := false
	for _, s := range shards {
		if _, err := p.owner(s); err != nil {
			for _, r := range reqs {
				r.Err = err
			}
			return err
		}
		spread = spread || s != shards[0]
	}
	var ran uint64
	if spread {
		ran = p.fanOut(shards, reqs)
	} else {
		ran = p.runShare(shards[0], shards, reqs)
	}
	// Count only work that reached an engine, so BatchedOps stays
	// reconcilable with ExecutedPerShard even when Close intervenes.
	if ran > 0 {
		p.batches.Add(1)
		p.batchedOps.Add(ran)
	}
	for _, r := range reqs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// fanOut runs a multi-shard batch: the first request's shard's share on
// the caller, every other shard's on a goroutine of its own. It returns
// how many requests ran.
func (p *Pool) fanOut(shards []int, reqs []*Request) uint64 {
	var ran atomic.Uint64
	var wg sync.WaitGroup
	seen := make([]bool, len(p.owners))
	seen[shards[0]] = true
	for _, s := range shards {
		if !seen[s] {
			seen[s] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				ran.Add(p.runShare(s, shards, reqs))
			}()
		}
	}
	ran.Add(p.runShare(shards[0], shards, reqs))
	wg.Wait()
	return ran.Load()
}

// runShare runs shard s's requests of a batch in slice order under one
// hold of its lock, and returns how many ran: none once the pool is
// closed, when each fails with ErrClosed.
func (p *Pool) runShare(s int, shards []int, reqs []*Request) uint64 {
	o := &p.owners[s]
	if !p.acquire(o) {
		for i, r := range reqs {
			if shards[i] == s {
				r.Err = ErrClosed
			}
		}
		return 0
	}
	var n uint64
	for i, r := range reqs {
		if shards[i] == s {
			p.handle(o, r)
			n++
		}
	}
	p.release(o)
	return n
}

// Inspect runs fn under shard s's lock, serialized with that shard's
// requests, giving fn exclusive access to the engine as it stands: no
// flush, and the idle pump's owed write-backs wait their turn. An error
// from fn is returned AND recorded for Close, since several snapshot
// callers have no error return. After Close fn runs on the quiescent
// engine: the pumps are stopped and no request gets in.
func (p *Pool) Inspect(s int, fn func() error) error {
	o, err := p.owner(s)
	if err != nil {
		return err
	}
	o.lock()
	err = fn()
	p.release(o)
	if err != nil {
		p.noteBackgroundErr(err)
	}
	return err
}

// InspectAll runs fns[i] as Inspect(i, fns[i]) for every shard, in shard
// order, and returns the first error.
func (p *Pool) InspectAll(fns []func() error) error {
	if len(fns) != len(p.owners) {
		return fmt.Errorf("shard: %d inspectors for %d shards", len(fns), len(p.owners))
	}
	var first error
	for i, fn := range fns {
		if err := p.Inspect(i, fn); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns a snapshot of the scheduler counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		SingleOps:        p.singleOps.Load(),
		Batches:          p.batches.Load(),
		BatchedOps:       p.batchedOps.Load(),
		PaddingOps:       p.paddingOps.Load(),
		IdleWriteBacks:   p.idleWriteBacks.Load(),
		ExecutedPerShard: make([]uint64, len(p.owners)),
		PaddingPerShard:  make([]uint64, len(p.owners)),
	}
	for i := range p.owners {
		s.ExecutedPerShard[i] = p.owners[i].executed.Load()
		s.PaddingPerShard[i] = p.owners[i].padded.Load()
	}
	return s
}

// Close stops accepting requests: it fences every shard by taking its
// lock — a request that got the lock first completes, every later one
// fails with ErrClosed — and stops the idle pumps. It calls no engine:
// whatever work the engines still owe is the owner's to complete, through
// Inspect. It returns the first background-work or inspection error
// recorded over the pool's lifetime — such errors have no request to
// travel with. Safe to call more than once; later calls wait for the
// first to finish and report the same error.
func (p *Pool) Close() error {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if !p.closed.Load() {
		p.closed.Store(true)
		for i := range p.owners {
			// The hold is the fence: a request holding the lock finishes
			// first, and every later one sees closed.
			p.owners[i].mu.Lock()
			p.owners[i].mu.Unlock()
		}
		if p.done != nil {
			close(p.done)
			p.pumps.Wait()
		}
	}
	p.bgErrMu.Lock()
	defer p.bgErrMu.Unlock()
	return p.bgErr
}
