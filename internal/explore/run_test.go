package explore

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	pathoram "repro"
)

// useOpener swaps the runner's client constructor for the test's duration.
func useOpener(t *testing.T, wrap func(pathoram.Client) pathoram.Client) {
	t.Helper()
	prev := open
	t.Cleanup(func() { open = prev })
	open = func(spec pathoram.Spec) (pathoram.Client, error) {
		c, err := pathoram.Open(spec)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
}

var errCheckpoint = errors.New("final checkpoint failed")

// failingClose is a client whose Close reports a failed final checkpoint.
type failingClose struct{ pathoram.Client }

func (c failingClose) Close() error {
	if err := c.Client.Close(); err != nil {
		return err
	}
	return errCheckpoint
}

// TestRunReportsCloseError: a point whose Close fails — a file point's last
// checkpoint or msync — fails the sweep with that error rather than
// reporting rows measured on state that never became durable.
func TestRunReportsCloseError(t *testing.T) {
	useOpener(t, func(c pathoram.Client) pathoram.Client { return failingClose{c} })
	g := Grid{Base: "-blocks 256 -blocksize 16 -backend file -wal", Workloads: []string{"uniform"}}
	rows, err := Run(g, Options{Ops: 64, Warmup: 16, Seed: 1}, t.Logf)
	if !errors.Is(err, errCheckpoint) {
		t.Fatalf("Run = %d rows, %v; want the Close error", len(rows), err)
	}
}

// countingClient counts the single-op submissions that reach the client.
type countingClient struct {
	pathoram.Client
	ops *atomic.Int64
}

func (c countingClient) Read(addr uint64) ([]byte, error) {
	c.ops.Add(1)
	return c.Client.Read(addr)
}

func (c countingClient) Write(addr uint64, data []byte) error {
	c.ops.Add(1)
	return c.Client.Write(addr, data)
}

// TestExploreClientsDRAM: four closed-loop clients on a 4-shard timed point
// (CI runs it under -race) submit exactly the measured ops between them,
// the uneven split included, and their rows carry the client count beside
// the modeled and pooled-latency metrics.
func TestExploreClientsDRAM(t *testing.T) {
	var ops atomic.Int64
	useOpener(t, func(c pathoram.Client) pathoram.Client { return countingClient{c, &ops} })
	const blocks, warmup, measured = 1024, 32, 258
	g := Grid{Base: "-blocks 1024 -blocksize 32 -shards 4 -backend dram", Workloads: []string{"uniform", "scan"}}
	rows, err := Run(g, Options{Ops: measured, Warmup: warmup, Clients: 4, Seed: 1}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 1 point x 2 workloads", len(rows))
	}
	for _, r := range rows {
		m := r.Metrics
		if r.Ops != measured || m["clients"] != 4 || m["cycles/op"] <= 0 || m["p50-ns"] <= 0 || m["p99-ns"] < m["p50-ns"] {
			t.Errorf("%s: ops %d, metrics %v", r.Workload, r.Ops, m)
		}
	}
	if got, want := ops.Load(), int64(blocks+len(rows)*(warmup+measured)); got != want {
		t.Errorf("%d ops reached the client, want fill %d + %d x (warm-up %d + measured %d) = %d",
			got, blocks, len(rows), warmup, measured, want)
	}
}

// TestExploreClientsPooledLatencies: closedLoop hands every submission to
// exactly one client, in contiguous shares, and pools every client's
// latencies into the one slice the percentiles read; a failing client's
// error is returned.
func TestExploreClientsPooledLatencies(t *testing.T) {
	const n, clients = 103, 4
	lats := make([]time.Duration, n)
	owner := make([]int, n) // disjoint indices per client: race-free
	subs := make([]func(int) error, clients)
	for c := range subs {
		subs[c] = func(i int) error {
			if owner[i] != 0 {
				return fmt.Errorf("submission %d issued twice", i)
			}
			owner[i] = c + 1
			time.Sleep(time.Microsecond)
			return nil
		}
	}
	if err := closedLoop(lats, subs); err != nil {
		t.Fatal(err)
	}
	for c := range clients {
		for i := c * n / clients; i < (c+1)*n/clients; i++ {
			if lats[i] <= 0 || owner[i] != c+1 {
				t.Errorf("submission %d: latency %v from client %d, want a latency from client %d", i, lats[i], owner[i]-1, c)
			}
		}
	}

	errStop := errors.New("client failed")
	ok := func(int) error { return nil }
	fail := func(int) error { return errStop }
	if err := closedLoop(make([]time.Duration, n), []func(int) error{ok, fail, ok}); !errors.Is(err, errStop) {
		t.Errorf("closedLoop = %v, want the failing client's error", err)
	}
}
