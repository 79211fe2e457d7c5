package explore

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	pathoram "repro"
	"repro/internal/membus"
)

// Options are the measurement knobs shared by every point in a sweep.
type Options struct {
	Ops    int   // measured operations per (point, workload)
	Warmup int   // unmeasured operations run first to reach steady state
	Batch  int   // submission batch size for padded points
	Seed   int64 // base seed; points and workloads derive their own
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
// stats reset and the timing snapshot flushes deferred write-backs, so
// no cell is charged for its predecessor's debt. logf (optional)
// receives one progress line per point.
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

func runPoint(g Grid, p Point, opts Options) ([]Row, error) {
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
	client, err := pathoram.Open(spec)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	leak := spec.LeakageClass().String()

	// Pre-fill the whole working set so every workload measures steady
	// state, not cold-map behavior.
	buf := make([]byte, spec.BlockSize)
	const chunk = 1024
	for lo := uint64(0); lo < spec.Blocks; lo += chunk {
		hi := min(lo+chunk, spec.Blocks)
		addrs := make([]uint64, 0, chunk)
		data := make([][]byte, 0, chunk)
		for a := lo; a < hi; a++ {
			addrs = append(addrs, a)
			data = append(data, buf)
		}
		if err := client.WriteBatch(addrs, data); err != nil {
			return nil, err
		}
	}

	var rows []Row
	for wi, wname := range g.Workloads {
		w := WorkloadByName(wname)
		rng := rand.New(rand.NewSource(opts.Seed + int64(wi)*104729 + 1))
		gen := w.New(rng, spec.Blocks)
		row, err := runCell(client, spec, gen, opts)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", wname, err)
		}
		row.Config = p.Name
		row.Workload = wname
		row.Leakage = leak
		rows = append(rows, row)
	}
	return rows, nil
}

// runCell measures one workload against an already-filled client:
// warm-up phase, baseline reset (the timing snapshot flushes, charging
// any warm-up debt before measurement), then the measured phase with
// per-submission latencies.
func runCell(client pathoram.Client, spec pathoram.Spec, gen Gen, opts Options) (Row, error) {
	payload := make([]byte, spec.BlockSize)
	i := 0
	for ; i < opts.Warmup; i++ {
		if err := step(client, gen, i, payload); err != nil {
			return Row{}, err
		}
	}
	client.ResetStats()
	preTiming, timed := client.TimingStats()

	var lats []time.Duration
	start := time.Now()
	if spec.Padded {
		// Padded mode pads batch schedules; submit whole batches so the
		// padding machinery actually engages. Latencies are per batch.
		addrs := make([]uint64, opts.Batch)
		data := make([][]byte, opts.Batch)
		for j := range data {
			data[j] = payload
		}
		for done := 0; done < opts.Ops; done += opts.Batch {
			var write bool
			for j := range addrs {
				a, w := gen(i)
				addrs[j] = a
				if j == 0 {
					write = w
				}
				i++
			}
			t0 := time.Now()
			if write {
				if err := client.WriteBatch(addrs, data); err != nil {
					return Row{}, err
				}
			} else if _, err := client.ReadBatch(addrs); err != nil {
				return Row{}, err
			}
			lats = append(lats, time.Since(t0))
		}
	} else {
		for n := 0; n < opts.Ops; n++ {
			t0 := time.Now()
			if err := step(client, gen, i, payload); err != nil {
				return Row{}, err
			}
			lats = append(lats, time.Since(t0))
			i++
		}
	}
	wall := time.Since(start)
	measured := opts.Ops
	if spec.Padded {
		// Batches round up to whole submissions.
		measured = (opts.Ops + opts.Batch - 1) / opts.Batch * opts.Batch
	}

	st := client.Stats()
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
		"ext-blowup": float64(client.ExternalMemoryBytes()) / float64(spec.Blocks*uint64(spec.BlockSize)),
		"dummy/real": st.DummyPerReal(),
		"pad/real":   st.PaddingPerReal(),
		"stash-peak": float64(st.StashPeak),
	}
	if spec.Padded {
		m["batch"] = float64(opts.Batch)
	}
	if spec.PosMap == pathoram.PosMapRecursive {
		// Mean posmap-chain length per op: H with no PLB, shrinking toward
		// 1.0 as hits skip levels (or pinned at H under constant shape).
		m["chain-len"] = st.MeanChainLength()
		if spec.PLBBytes > 0 {
			m["plb-hit"] = st.PLBHitRate()
		}
	}
	if timed {
		// Diff against the post-warm-up snapshot so the modeled columns
		// describe the measured traffic only; the closing snapshot
		// flushes first, charging every deferred write-back the traffic
		// owed.
		post, _ := client.TimingStats()
		d := post.Delta(preTiming)
		m["cycles/op"] = float64(d.Cycles) / float64(measured)
		m["row-hit"] = d.RowHitRate()
		if d.Cycles > 0 {
			// Throughput on the modeled clock: how many ops fit in one
			// second of DDR3 bus time. The headline metric for the paced
			// closed loop — wall-clock ns/op measures the simulator, this
			// measures the modeled machine.
			m["ops/modeled-s"] = float64(measured) * membus.CyclesPerSecond / float64(d.Cycles)
		}
	}
	return Row{Ops: measured, Metrics: m}, nil
}

func step(client pathoram.Client, gen Gen, i int, payload []byte) error {
	addr, write := gen(i)
	if write {
		return client.Write(addr, payload)
	}
	_, err := client.Read(addr)
	return err
}
