package pathoram

import (
	"errors"
	"fmt"
	"testing"
)

// failingCloseEngine wraps a real engine, closes it for real, but reports
// an injected backend error — simulating a shard whose tree file fails
// its final checkpoint.
type failingCloseEngine struct {
	clientEngine
	err error
}

func (e failingCloseEngine) Close() error {
	cerr := e.clientEngine.Close()
	if e.err != nil {
		return e.err
	}
	return cerr
}

// TestShardedCloseSurfacesFirstEngineError pins the close-error contract
// of the serving layer: when several shards fail their backend close, the
// FIRST failure is the one reported — and it is reported even though
// later shards (including shard 3, which closes cleanly) are still all
// closed. cmd/oram-serve and cmd/oram-server turn this error into a
// non-zero exit, so a dropped final checkpoint can never look clean.
func TestShardedCloseSurfacesFirstEngineError(t *testing.T) {
	errShard1 := errors.New("shard 1: injected close failure")
	errShard2 := errors.New("shard 2: injected close failure")
	closed := make([]bool, 4)
	s, err := NewSharded(Spec{Blocks: 64, BlockSize: 16, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sharded.Close closes s.engines; the pool keeps driving the real ones.
	for i, e := range s.engines {
		var injected error
		switch i {
		case 1:
			injected = errShard1
		case 2:
			injected = errShard2
		}
		s.engines[i] = failingCloseEngine{clientEngine: trackClose{e, &closed[i]}, err: injected}
	}
	// Touch every shard so the close path drains real in-flight state.
	for addr := uint64(0); addr < 8; addr++ {
		if err := s.Write(addr, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Close()
	if !errors.Is(err, errShard1) {
		t.Fatalf("Close returned %v, want the first failing shard's error %v", err, errShard1)
	}
	if errors.Is(err, errShard2) {
		t.Fatalf("Close joined later errors into %v; the contract is first-error-wins", err)
	}
	for i, ok := range closed {
		if !ok {
			t.Fatalf("shard %d was not closed; a failing earlier shard must not stop the sweep", i)
		}
	}
}

// trackClose records that the underlying engine's Close actually ran.
type trackClose struct {
	clientEngine
	done *bool
}

func (e trackClose) Close() error {
	*e.done = true
	return e.clientEngine.Close()
}

// TestShardedCloseIdempotentKeepsEngineError pins re-close semantics:
// Close is idempotent at the pool layer, and a repeated Close still
// surfaces the engines' (sticky) backend failure rather than silently
// reporting success once the workers are gone.
func TestShardedCloseIdempotentKeepsEngineError(t *testing.T) {
	errEngine := errors.New("engine: injected close failure")
	s, err := NewSharded(Spec{Blocks: 16, BlockSize: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range s.engines {
		s.engines[i] = failingCloseEngine{clientEngine: e, err: fmt.Errorf("%w (shard %d)", errEngine, i)}
	}
	if err := s.Close(); !errors.Is(err, errEngine) {
		t.Fatalf("first Close returned %v, want the injected engine error", err)
	}
	// Close is idempotent at the pool layer; the engines report their
	// (sticky) failure again rather than being silently skipped.
	if err := s.Close(); !errors.Is(err, errEngine) {
		t.Fatalf("second Close returned %v, want the engine error again", err)
	}
}
