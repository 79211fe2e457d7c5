package core

import "fmt"

// PathTimer is the seam between the protocol and a cycle-accurate storage
// cost model: it charges path-granularity I/O — every bucket read and
// write the protocol performs — against modeled hardware time without ever
// touching the data. internal/membus implements it with a shared DDR3
// timing model; tests implement it with recording stubs.
//
// The two methods carry the staged protocol's stage metadata
// (see ORAM.pathAccess):
//
//	ReadPath  — stage 2, the path read. skip has the same meaning as in
//	            PathStore.ReadPathInto: a set flag marks a bucket whose live
//	            content sits in a pending deferred write-back, so its read
//	            is served from the write buffer and generates NO storage
//	            traffic. skip is only valid for the duration of the call.
//	WritePath — stage 5, the path write-back. deferred reports whether the
//	            write was issued from the deferred FIFO (the modeled memory
//	            controller's write buffer, drained by StepBackground/Flush
//	            or the queue-full inline drain) rather than inline during
//	            the access. Cost models use the flag to attribute write
//	            traffic to the flush schedule instead of the access itself.
//
// Implementations must be safe for use from the single goroutine owning
// the ORAM; cross-ORAM serialization (many shards charging one shared
// memory system) is the model's own business — internal/membus takes a bus
// lock per charge. A charge is a submission, not a completion: the model
// may buffer the stage and retire it later in event order (membus queues
// stages per port and drains them in global arrival order), so modeled
// clocks observed through the model's query surface are only current at
// those queries' quiesce points.
type PathTimer interface {
	ReadPath(leaf uint64, skip []bool)
	WritePath(leaf uint64, deferred bool)
}

// TimedStore wraps a PathStore and charges every completed path read and
// write to a PathTimer. Timing is observation-only: the wrapped store sees
// exactly the same call sequence it would see unwrapped — same leaves,
// same skip masks, same bucket contents, same read/write pairing (so an
// encrypt.Store's outstanding-path multiset is untouched) — and therefore
// the protocol's logical state evolves bit-identically to an untimed run.
// Failed operations are not charged: a path that never landed moved no
// modeled data.
type TimedStore struct {
	inner PathStore
	timer PathTimer
}

// NewTimedStore wraps inner so every successful path operation is charged
// to timer.
func NewTimedStore(inner PathStore, timer PathTimer) (*TimedStore, error) {
	if inner == nil || timer == nil {
		return nil, fmt.Errorf("core: timed store needs both a store and a timer")
	}
	return &TimedStore{inner: inner, timer: timer}, nil
}

// Inner returns the wrapped store (tests compare tree contents through it).
func (t *TimedStore) Inner() PathStore { return t.inner }

// ReadPathInto implements PathStore: forward, then charge the stage-2
// read.
func (t *TimedStore) ReadPathInto(leaf uint64, skip []bool, dst BlockSink) error {
	if err := t.inner.ReadPathInto(leaf, skip, dst); err != nil {
		return err
	}
	t.timer.ReadPath(leaf, skip)
	return nil
}

// WritePathFrom implements PathStore: forward, then charge an inline
// stage-5 write-back.
func (t *TimedStore) WritePathFrom(leaf uint64, p *Path) error {
	if err := t.inner.WritePathFrom(leaf, p); err != nil {
		return err
	}
	t.timer.WritePath(leaf, false)
	return nil
}

// WritePathDeferred is WritePathFrom for write-backs issued from the
// deferred FIFO: the ORAM calls it (through the deferredWriter interface)
// instead of WritePathFrom when completing a queued entry, so the cost
// model sees the write as write-buffer drain traffic. The wrapped store
// cannot tell the difference — it receives a plain WritePathFrom either
// way.
func (t *TimedStore) WritePathDeferred(leaf uint64, p *Path) error {
	if err := t.inner.WritePathFrom(leaf, p); err != nil {
		return err
	}
	t.timer.WritePath(leaf, true)
	return nil
}
