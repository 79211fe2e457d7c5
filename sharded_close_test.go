package pathoram

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// failingCloseStorage is a tree's durable storage whose final checkpoint
// fails: placed in a real engine's persists, it makes that engine's own
// Close path report err (nil: close cleanly), and records that the close
// ran. Only Sync and Close are ever called on a persists entry.
type failingCloseStorage struct {
	storage.Storage
	err  error
	done *bool
}

func (f *failingCloseStorage) Sync() error { return nil }

func (f *failingCloseStorage) Close() error {
	if f.done != nil {
		*f.done = true
	}
	return f.err
}

// TestShardedCloseSurfacesFirstEngineError pins the close-error contract
// of the serving layer: when several shards fail their backend close, the
// FIRST failure is the one reported — and it is reported even though
// later shards (including shard 3, which closes cleanly) are still all
// closed. The explorer fails its sweep on this error and cmd/oram-server
// exits non-zero on it, so a dropped final checkpoint can never look clean.
func TestShardedCloseSurfacesFirstEngineError(t *testing.T) {
	errShard1 := errors.New("shard 1: injected close failure")
	errShard2 := errors.New("shard 2: injected close failure")
	closed := make([]bool, 4)
	s, err := NewSharded(Spec{Blocks: 64, BlockSize: 16, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range s.engines {
		var injected error
		switch i {
		case 1:
			injected = errShard1
		case 2:
			injected = errShard2
		}
		e.persists = append(e.persists, &failingCloseStorage{err: injected, done: &closed[i]})
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

// TestShardedCloseIdempotentKeepsEngineError pins re-close semantics:
// Close is idempotent at the pool layer, and a repeated Close still
// surfaces the engines' (sticky) backend failure rather than silently
// reporting success once the pool is closed.
func TestShardedCloseIdempotentKeepsEngineError(t *testing.T) {
	errEngine := errors.New("engine: injected close failure")
	s, err := NewSharded(Spec{Blocks: 16, BlockSize: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range s.engines {
		e.persists = append(e.persists, &failingCloseStorage{err: fmt.Errorf("%w (shard %d)", errEngine, i)})
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
