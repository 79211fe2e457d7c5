package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	pathoram "repro"
	"repro/internal/core"
	"repro/internal/membus"
)

// Options are the measurement knobs shared by every point in a sweep.
type Options struct {
	Ops     int   // measured operations per (point, workload)
	Warmup  int   // unmeasured operations run first to reach steady state
	Batch   int   // submission batch size for padded points
	Clients int   // closed-loop clients the measured phase fans out over (default 1)
	Seed    int64 // base seed; points, workloads and clients derive their own
}

// Row is one measured (configuration, workload) cell: the axis-encoded
// config name, the leakage class SECURITY.md assigns the composition,
// and the metric map (same key conventions as cmd/oram-benchjson
// metrics). Pareto is set by MarkPareto.
type Row struct {
	Config   string             `json:"config"`
	Workload string             `json:"workload"`
	Leakage  string             `json:"leakage"`
	Ops      int                `json:"ops"`
	Metrics  map[string]float64 `json:"metrics"`
	Pareto   bool               `json:"pareto"`
}

// Run measures every (point, workload) cell of the grid. Each point is
// opened and pre-filled once and reused across all workloads — the
// construction and fill dominate small sweeps, and the paper's
// comparisons want neighboring workloads over identical steady-state
// instances. Workload boundaries re-establish a clean baseline anyway:
// deferred write-backs are settled before the stats reset and the timing
// snapshot, so no cell is charged for its predecessor's debt. A point
// whose background eviction cannot keep up is reported, not fatal: see
// dummyBudget; a point whose Close fails (a file point's last checkpoint
// or msync) fails the sweep. logf (optional) receives one progress line per point.
//
// With opts.Clients > 1 each cell's measured phase runs on that many
// concurrent closed-loop clients (closedLoop). Their interleaving is the
// goroutine scheduler's, so such rows are not reproducible run to run;
// with one client every metric but the wall-clock ones is a function of
// the seed.
func Run(g Grid, opts Options, logf func(format string, args ...any)) ([]Row, error) {
	if opts.Ops <= 0 {
		opts.Ops = 2048
	}
	if opts.Warmup < 0 {
		opts.Warmup = 0
	}
	if opts.Batch <= 0 {
		opts.Batch = 16
	}
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	points, err := g.Points(opts.Seed, logf)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for pi, p := range points {
		logf("[%d/%d] %s", pi+1, len(points), p.Name)
		prs, err := runPoint(g, p, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		rows = append(rows, prs...)
	}
	return rows, nil
}

// open builds a point's client; tests substitute it to inject failures.
var open = pathoram.Open

func runPoint(g Grid, p Point, opts Options) (rows []Row, err error) {
	spec, err := p.Spec()
	if err != nil {
		return nil, err
	}
	if spec.Backend == pathoram.BackendFile {
		// Fresh directory per point: tree files carry no client state
		// (position map, stash), so a point must never decode another
		// run's leftovers. Removed when the point completes.
		dir, err := os.MkdirTemp(spec.Dir, "oram-point-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		spec.Dir = dir
	}
	client, err := open(spec)
	if err != nil {
		return nil, err
	}
	defer func() {
		// A file point's final checkpoint and msync run here: if they fail,
		// the measured state never became durable, and the point must not
		// report clean. An engine that tripped the livelock guard reports
		// the trip again; its rows already say infeasible.
		tripped := len(rows) > 0 && rows[len(rows)-1].Metrics["infeasible"] == 1
		if cerr := client.Close(); cerr != nil && err == nil && !tripped {
			rows, err = nil, fmt.Errorf("close: %w", cerr)
		}
	}()
	leak := spec.LeakageClass().String()

	// Pre-fill the whole working set so every workload measures steady
	// state, not cold-map behavior. One access at a time: a fill that
	// livelocks must stop at its first guard trip, and a batch would run
	// every address it holds into the guard before reporting.
	buf := make([]byte, spec.BlockSize)
	err = unmeasured(client, spec, int(spec.Blocks), func(a int) error {
		return client.Write(uint64(a), buf)
	})
	if err != nil && !infeasible(err) {
		return nil, fmt.Errorf("fill: %w", err)
	}

	for wi, wname := range g.Workloads {
		var row Row
		if err == nil {
			w, seed := WorkloadByName(wname), opts.Seed+int64(wi)*104729+1
			row, err = runCell(client, spec, func(c int) Gen {
				return w.New(rand.New(rand.NewSource(seed+int64(c)*7919)), spec.Blocks)
			}, opts)
		}
		// Once the point has tripped, its remaining cells are infeasible
		// too: the engine that livelocked stays failed.
		if infeasible(err) {
			row = Row{Ops: opts.Ops, Metrics: map[string]float64{"infeasible": 1}}
		} else if err != nil {
			return nil, fmt.Errorf("workload %s: %w", wname, err)
		}
		row.Config = p.Name
		row.Workload = wname
		row.Leakage = leak
		rows = append(rows, row)
	}
	return rows, nil
}

// dummyBudget is the paper's "so inefficient that we cannot finish"
// line (Section 4.1.3, the missing bars of Figure 8): a phase — the fill,
// a warm-up, a measured run — whose dummy accesses exceed this many per
// real access (per budgetWindow real accesses if it made fewer, so one
// early burst does not condemn a point), or that trips the engine's
// livelock guard, makes the point a row whose only metric is infeasible: 1
// instead of being run to the end or failing the sweep.
const (
	dummyBudget  = 50
	budgetWindow = 1024
)

var errInfeasible = errors.New("explore: dummy-access budget exhausted")

func infeasible(err error) bool {
	return errors.Is(err, errInfeasible) || errors.Is(err, core.ErrLivelock)
}

// overBudget holds the accesses made since base against the dummy budget.
func overBudget(st, base pathoram.Stats) error {
	if st.DummyAccesses-base.DummyAccesses > dummyBudget*max(st.RealAccesses-base.RealAccesses, budgetWindow) {
		return errInfeasible
	}
	return nil
}

// settle completes the deferred work of an AsyncEviction client, so that
// the counters read next are access-complete: a snapshot observes the
// engines as they stand. Each call is a point in the op stream — a timed
// point's write buffers drain there — so the points are fixed: every
// budget read, the cell's baseline and its close.
func settle(client pathoram.Client, spec pathoram.Spec) error {
	if !spec.AsyncEviction {
		return nil
	}
	return client.Flush()
}

// unmeasured runs steps 0..n-1 of the fill or a warm-up, checking the
// budget every budgetWindow steps and at the end: a fixed cadence, so the
// same seed condemns the same points on every host, and one that cuts a
// hopeless phase off after a window rather than after the whole phase.
// Each check settles a deferred-eviction engine, which is why the measured
// phase is checked only once, by the Stats it ends with.
func unmeasured(client pathoram.Client, spec pathoram.Spec, n int, step func(i int) error) error {
	if err := settle(client, spec); err != nil {
		return err
	}
	base := client.Stats()
	for i := 0; i < n; i++ {
		if err := step(i); err != nil {
			return err
		}
		if (i+1)%budgetWindow == 0 || i == n-1 {
			if err := settle(client, spec); err != nil {
				return err
			}
			if err := overBudget(client.Stats(), base); err != nil {
				return err
			}
		}
	}
	return nil
}

// runCell measures one workload against an already-filled client:
// warm-up phase, baseline reset (settled first, charging any warm-up debt
// before measurement), then the measured phase with per-submission
// latencies. gen(c) is closed-loop client c's address
// stream; client 0's runs the warm-up and carries on into the measurement.
func runCell(client pathoram.Client, spec pathoram.Spec, gen func(c int) Gen, opts Options) (Row, error) {
	payload := make([]byte, spec.BlockSize)
	warm := gen(0)
	if err := unmeasured(client, spec, opts.Warmup, func(i int) error {
		return step(client, warm, i, payload)
	}); err != nil {
		return Row{}, err
	}
	if err := settle(client, spec); err != nil {
		return Row{}, err
	}
	client.ResetStats()
	preTiming, timed := client.TimingStats()

	measured, submissions := opts.Ops, opts.Ops
	if spec.Padded {
		// Batches round up to whole submissions.
		submissions = (opts.Ops + opts.Batch - 1) / opts.Batch
		measured = submissions * opts.Batch
	}
	subs := make([]func(n int) error, opts.Clients)
	for c := range subs {
		g := warm
		if c > 0 {
			g = gen(c)
		}
		subs[c] = submitter(client, spec, g, opts, payload)
	}
	lats := make([]time.Duration, submissions)
	start := time.Now()
	if err := closedLoop(lats, subs); err != nil {
		return Row{}, err
	}
	// Before the clock stops: settling charges every deferred write-back
	// the traffic owed, and the timing snapshot replays what the timing
	// lanes still hold, so ns/op prices the whole simulator, not only its
	// recording half.
	if err := settle(client, spec); err != nil {
		return Row{}, err
	}
	var postTiming pathoram.TimingStats
	if timed {
		postTiming, _ = client.TimingStats()
	}
	wall := time.Since(start)

	st := client.Stats()
	if err := overBudget(st, pathoram.Stats{}); err != nil {
		return Row{}, err
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return float64(lats[int(q*float64(len(lats)-1))])
	}
	m := map[string]float64{
		"ns/op":      float64(wall.Nanoseconds()) / float64(measured),
		"p50-ns":     pct(0.50),
		"p95-ns":     pct(0.95),
		"p99-ns":     pct(0.99),
		"onchip-B":   float64(client.OnChipBytes()),
		"dummy/real": st.DummyPerReal(),
		"pad/real":   st.PaddingPerReal(),
		"stash-peak": float64(st.StashPeak),
	}
	if logical := spec.Blocks * uint64(spec.BlockSize); logical > 0 {
		// A metadata-only point stores no payload to blow up.
		m["ext-blowup"] = float64(client.ExternalMemoryBytes()) / float64(logical)
	}
	if spec.Padded {
		m["batch"] = float64(opts.Batch)
	}
	if opts.Clients > 1 {
		m["clients"] = float64(opts.Clients)
	}
	if st.ChainSamples > 0 {
		// Mean posmap-chain length per op: H with no PLB, shrinking toward
		// 1.0 as hits skip levels (or pinned at H under constant shape). A
		// recursive point whose map already fits on chip is the flat engine
		// and samples no chain; it omits the column rather than report an
		// impossible 0-length chain.
		m["chain-len"] = st.MeanChainLength()
	}
	if spec.PLBBytes > 0 {
		m["plb-hit"] = st.PLBHitRate()
	}
	if timed {
		// Diff against the post-warm-up snapshot so the modeled columns
		// describe the measured traffic only.
		d := postTiming.Delta(preTiming)
		m["cycles/op"] = float64(d.Cycles) / float64(measured)
		m["row-hit"] = d.RowHitRate()
		if d.Cycles > 0 {
			// Throughput on the modeled clock: how many ops fit in one
			// second of DDR3 bus time — wall-clock ns/op measures the
			// simulator, this measures the modeled machine.
			m["ops/modeled-s"] = float64(measured) * membus.CyclesPerSecond / float64(d.Cycles)
		}
	}
	return Row{Ops: measured, Metrics: m}, nil
}

// submitter returns one closed-loop client's submit function over gen:
// submission n is op opts.Warmup+n or, on a padded point, the batch of
// opts.Batch ops from op opts.Warmup+n*opts.Batch — padded mode pads batch
// schedules, so only whole batches engage it. A batch's first op decides
// read or write, and its latency is the batch's.
func submitter(client pathoram.Client, spec pathoram.Spec, gen Gen, opts Options, payload []byte) func(n int) error {
	if !spec.Padded {
		return func(n int) error { return step(client, gen, opts.Warmup+n, payload) }
	}
	addrs := make([]uint64, opts.Batch)
	data := make([][]byte, opts.Batch)
	for j := range data {
		data[j] = payload
	}
	return func(n int) error {
		var write bool
		for j := range addrs {
			a, w := gen(opts.Warmup + n*opts.Batch + j)
			addrs[j] = a
			if j == 0 {
				write = w
			}
		}
		if write {
			return client.WriteBatch(addrs, data)
		}
		_, err := client.ReadBatch(addrs)
		return err
	}
}

// closedLoop runs submissions 0..len(lats)-1 split into len(subs)
// contiguous shares: client c issues its share back to back through
// subs[c] on its own goroutine (client 0 on the caller's, so one client is
// a plain loop) and records submission n's latency in lats[n]. A client
// stops at its first error; the others finish their shares.
func closedLoop(lats []time.Duration, subs []func(n int) error) error {
	errs := make([]error, len(subs))
	run := func(c int) {
		for n := c * len(lats) / len(subs); n < (c+1)*len(lats)/len(subs); n++ {
			t0 := time.Now()
			if err := subs[c](n); err != nil {
				errs[c] = err
				return
			}
			lats[n] = time.Since(t0)
		}
	}
	var wg sync.WaitGroup
	for c := 1; c < len(subs); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(c)
		}()
	}
	run(0)
	wg.Wait()
	return errors.Join(errs...)
}

func step(client pathoram.Client, gen Gen, i int, payload []byte) error {
	addr, write := gen(i)
	if write {
		return client.Write(addr, payload)
	}
	_, err := client.Read(addr)
	return err
}
