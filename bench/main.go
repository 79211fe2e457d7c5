// Command bench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root). It drives five
// named workloads (four declared there, and the disk-bound wal-async, which
// no bound can hold) through pathoram.Open and internal/service from outside,
// checks every read against a shadow copy, and reports the end-to-end
// metrics (-trace 0) or the per-layer ledger (-trace 1) by name and unit.
//
//	bash bench/run.sh -workload flat-enc -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh                      # all workloads, both runs, out/result.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the run's sizes. The contract fixes the measured window in
// seconds, so the issue's "3 reps of a fixed op count" became "reps time
// slices of one window"; sizing() says so in every result file.
type options struct {
	seed    int64
	seconds float64
	reps    int // slices of the measured window; each yields one value per rate and latency metric
	setups  int // set-ups timed per run at least; setup_s is their median
	calls   int // calls per direct layer measurement
	ops     int // ops per ladder rung
	outDir  string
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// setupBudget is how long a run keeps adding set-ups beyond o.setups.
func (o options) setupBudget() time.Duration { return o.window() / 2 }

func (o options) sizing() string {
	return fmt.Sprintf("window %.3gs in %d slices (contract: time-bounded runs; the issue's 3 reps x fixed ops would not fit 92 runs in 3420s), "+
		"at least %d set-ups per run (more while they fit in window/2), warm-up window/10, ladder rungs %d ops capped at %v, %d calls per direct measurement",
		o.seconds, o.reps, o.setups, o.ops, rungBudget, o.calls)
}

// specPath is the benchmark's declaration, seen from bench/, where run.sh
// and go test both run.
var specPath = filepath.Join("..", "BENCHMARK.json")

func main() {
	var (
		o       options
		name    = flag.String("workload", "", "run one workload (default: all five, untraced then traced)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		smoke   = flag.Bool("smoke", false, "tiny sizes: every workload and the traced run in a few seconds")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of address streams, op mix and, where allowed, Spec.Rand")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&o.reps, "reps", 5, "slices of the measured window (never below 3)")
	flag.StringVar(&o.outDir, "out", outDir, "directory for result.json and the span files")
	flag.Parse()
	o.setups, o.calls, o.ops = 3, 4000, 20000

	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *smoke {
		o = smokeOptions(o)
	}
	if o.reps < 3 {
		fatal(fmt.Errorf("-reps %d: the median needs at least 3", o.reps))
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		res, err := runOne(w, o, *trace != 0)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout, spec)
		line, err := res.contractLine(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		if !res.Correct {
			os.Exit(3)
		}
		return
	}

	file := resultFile{Host: hostInfo(o.outDir), Commit: gitCommit(".."), Seed: o.seed, Seconds: o.seconds, Reps: o.reps, Sizing: o.sizing()}
	ok := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, o, traced)
			if err != nil {
				fatal(err)
			}
			res.print(os.Stdout, spec)
			if _, err := res.contractLine(spec); err != nil {
				fatal(err)
			}
			ok = ok && res.Correct
			file.Runs = append(file.Runs, res)
		}
	}
	file.printGaps(os.Stdout)
	path := filepath.Join(o.outDir, "result.json")
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
	if !ok {
		os.Exit(3)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// smokeOptions shrinks every size so the whole matrix runs in seconds.
func smokeOptions(o options) options {
	benchBlocks = 2048
	o.seconds, o.reps, o.setups, o.calls, o.ops = 0.15, 3, 3, 64, 256
	return o
}

// runResult is one run of one workload: what the contract's result line
// and the result file are made from.
type runResult struct {
	Workload  string             `json:"workload"`
	HostBound bool               `json:"host_bound,omitempty"` // not declared in BENCHMARK.json
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = summary{Median: v, Min: v, Max: v, Reps: 1}
}

// contractLine renders the one JSON object the driver reads last.
func (r *runResult) contractLine(spec *benchSpec) (string, error) {
	metrics, err := spec.declared(r.Traced, r.Metrics)
	if err != nil {
		return "", fmt.Errorf("%s: %w", r.Workload, err)
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(raw), err
}

// print lists every measured metric by name with unit, median, spread over
// repetitions and sample count.
func (r *runResult) print(w *os.File, spec *benchSpec) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced run"
	}
	if r.HostBound {
		kind += "; follows the host's disk, not declared in BENCHMARK.json"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d, correct %v\n", r.Workload, kind, r.Attempted, r.Failed, r.Correct)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "   first error: %s\n", r.FirstErr)
	}
	for _, d := range spec.decls(r.Traced) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue // a layer outside this workload's stack
		}
		fmt.Fprintf(w, "   %-34s %14.4f %-8s", d.Name, m.Median, d.Unit)
		if m.Reps > 1 {
			fmt.Fprintf(w, " min %.4f max %.4f over %d reps", m.Min, m.Max, m.Reps)
		}
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
}

// runOne sets the workload up, runs it and returns its metrics: the
// end-to-end ones with tracing off, or the per-layer ledger from a traced
// run. Everything is measured on the first instance the process builds; the
// set-ups after it are only timed (and, on seeded workloads, replayed), so
// the measured window never depends on how many set-ups came before it.
func runOne(w *workload, o options, traced bool) (*runResult, error) {
	res := &runResult{Workload: w.name, HostBound: w.hostBound, Traced: traced, Correct: true, Metrics: map[string]summary{}}
	inst, first, err := buildInstance(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	measure := res.endToEnd
	if traced {
		measure = res.perLayer
	}
	err = measure(inst, o)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil || traced {
		return res, err
	}
	secs, err := res.moreSetups(w, o, first)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = summarize(secs, 1)
	return res, nil
}

// moreSetups times further set-ups after the first: o.setups in all, and
// more while the run has spent under setupBudget on them, so that cheap
// set-ups, which one noisy second distorts most, get a median over more.
// The instances are thrown away; seeded ones first replay a fixed stream,
// and two identically seeded replays must agree on every count.
func (r *runResult) moreSetups(w *workload, o options, first time.Duration) ([]float64, error) {
	secs := []float64{first.Seconds()}
	spent := first
	var digests []replayDigest
	for len(secs) < o.setups || spent < o.setupBudget() {
		runtime.GC() // the previous instance's trees
		inst, d, err := buildInstance(w, o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		secs = append(secs, d.Seconds())
		spent += d
		if w.seeded {
			dg, err := replay(inst, o.seed)
			if err != nil {
				inst.close() //nolint:errcheck // the replay error is the one to report
				return nil, err
			}
			digests = append(digests, dg)
		}
		if err := inst.close(); err != nil {
			return nil, err
		}
	}
	for _, dg := range digests[min(1, len(digests)):] {
		if dg != digests[0] {
			r.Correct = false
			r.FirstErr = fmt.Sprintf("identically seeded replays differ: %+v vs %+v", digests[0], dg)
		}
	}
	return secs, nil
}

// warmUp runs the workload for a tenth of the window; only its failures
// are kept.
func (r *runResult) warmUp(inst *instance, clients []*loadClient, o options) error {
	warm, err := runWindow(inst, clients, o.window()/10, 1, nil)
	if err != nil {
		return err
	}
	r.account(warm)
	return nil
}

// endToEnd warms up, then measures the window in o.reps slices with
// tracing off.
func (r *runResult) endToEnd(inst *instance, o options) error {
	clients := newClients(inst, o.seed)
	if err := r.warmUp(inst, clients, o); err != nil {
		return err
	}
	win, err := runWindow(inst, clients, o.window()/time.Duration(o.reps), o.reps, nil)
	if err != nil {
		return err
	}
	r.account(win)
	var rate, p50, p99 []float64
	var n uint64
	for i := range win.sliceOps {
		rate = append(rate, float64(win.sliceOps[i])/win.sliceSecs[i])
		p50 = append(p50, win.sliceLat[i].quantile(0.50)/1e3)
		p99 = append(p99, win.sliceLat[i].quantile(0.99)/1e3)
		n = max(n, win.sliceLat[i].n)
	}
	r.Metrics["ops_per_s"] = summarize(rate, win.ops/uint64(o.reps))
	r.Metrics["op_p50_us"] = summarize(p50, n)
	r.Metrics["op_p99_us"] = summarize(p99, n)
	r.set("paths_per_op", float64(win.post.paths-win.pre.paths)/float64(win.ops))
	r.set("heap_mb", heapInuseMB())
	return nil
}

// perLayer is the traced run: counters from an untraced window half the run
// long, spans from a traced one a quarter of it long, then the layers of the
// workload's stack measured directly.
func (r *runResult) perLayer(inst *instance, o options) error {
	w := inst.w
	clients := newClients(inst, o.seed)
	if err := r.warmUp(inst, clients, o); err != nil {
		return err
	}
	plain, err := runWindow(inst, clients, o.window()/2, 1, nil)
	if err != nil {
		return err
	}
	r.account(plain)
	for name, v := range layerCounters(inst, plain) {
		r.set(name, v)
	}
	tr := newTracer()
	spanned, err := runWindow(inst, clients, o.window()/4, 1, tr)
	if err != nil {
		return err
	}
	r.account(spanned)
	perOp := func(w *windowResult) float64 { return w.wall.Seconds() / float64(w.ops) }
	r.set("trace.overhead_frac", perOp(spanned)/perOp(plain)-1)

	lr := &layerRun{tr: tr, seed: o.seed, calls: o.calls, ops: o.ops, out: map[string]float64{}}
	for _, layer := range w.layers {
		if err := layerFuncs[layer](lr, inst); err != nil {
			return fmt.Errorf("%s: layer %s: %w", w.name, layer, err)
		}
	}
	if err := lr.loadgen(inst, o.seed); err != nil {
		return err
	}
	for name, v := range lr.out {
		r.set(name, v)
	}
	r.SpanFile = filepath.Join(o.outDir, "trace-"+w.name+".ndjson")
	return writeSpans(r.SpanFile, tr.all())
}

// account adds a window's attempts and failures to the run's.
func (r *runResult) account(w *windowResult) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	if w.failed > 0 {
		r.Correct = false
		if r.FirstErr == "" && w.firstErr != nil {
			r.FirstErr = w.firstErr.Error()
		}
	}
}

// resultFile is what a full run writes to out/result.json and -compare reads.
type resultFile struct {
	Host    map[string]string `json:"host"`
	Commit  string            `json:"commit"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Reps    int               `json:"reps"`
	Sizing  string            `json:"sizing"`
	Runs    []*runResult      `json:"runs"`
}

func (f *resultFile) find(workload string, traced bool) *runResult {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func (f *resultFile) metric(workload string, traced bool, name string) float64 {
	if r := f.find(workload, traced); r != nil {
		return r.Metrics[name].Median
	}
	return 0
}

// printGaps sets the ladder's subtractions beside the end-to-end gaps they
// should explain.
func (f *resultFile) printGaps(w *os.File) {
	fmt.Fprintln(w, "== ladder subtraction vs end-to-end op_p50_us gap (ns)")
	for _, g := range []struct{ over, base, top, bottom string }{
		{"http-closed", "flat-enc", "ladder.http_ns", "ladder.sched_ns"},
		{"wal-async", "flat-enc", "ladder.wal_async_ns", "ladder.counter_ns"},
	} {
		gap := (f.metric(g.over, false, "op_p50_us") - f.metric(g.base, false, "op_p50_us")) * 1e3
		sub := f.metric(g.over, true, g.top) - f.metric(g.over, true, g.bottom)
		fmt.Fprintf(w, "   %s - %s: end-to-end %.0f, %s - %s = %.0f (%.0f%% of the gap)\n",
			g.over, g.base, gap, g.top, g.bottom, sub, 100*ratio(sub, gap))
	}
}
