package main

import (
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

func streamOf(seed int64, w *workload, client, n int) []submission {
	s := newStream(seed, w, client)
	out := make([]submission, n)
	for i := range out {
		s.next(&out[i])
	}
	return out
}

func sameStream(a, b []submission) bool {
	for i := range a {
		if a[i].write != b[i].write || len(a[i].addrs) != len(b[i].addrs) {
			return false
		}
		for j := range a[i].addrs {
			if a[i].addrs[j] != b[i].addrs[j] {
				return false
			}
		}
	}
	return true
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamOf(7, w, 0, 500), streamOf(7, w, 0, 500), streamOf(8, w, 0, 500)
		if !sameStream(a, b) {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if sameStream(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if w.clients > 1 && sameStream(a, streamOf(7, w, 1, 500)) {
			t.Errorf("%s: clients 0 and 1 share a stream", w.name)
		}
	}
}

// Every address has one writer, and each writer's writes still land on
// every shard evenly.
func TestSingleWriterOwnershipCoversShards(t *testing.T) {
	w, err := findWorkload("flat-enc")
	if err != nil {
		t.Fatal(err)
	}
	shards, clients := uint64(w.shards), uint64(w.clients)
	writers := map[uint64]uint64{}
	for c := uint64(0); c < clients; c++ {
		perShard := make([]int, shards)
		writes := 0
		for _, s := range streamOf(3, w, int(c), 20000) {
			if !s.write {
				continue
			}
			for _, a := range s.addrs {
				if a >= benchBlocks {
					t.Fatalf("address %d out of range", a)
				}
				if owner(a, shards, clients) != c {
					t.Fatalf("client %d writes addr %d owned by %d", c, a, owner(a, shards, clients))
				}
				if prev, ok := writers[a]; ok && prev != c {
					t.Fatalf("addr %d written by clients %d and %d", a, prev, c)
				}
				writers[a] = c
				perShard[a%shards]++
				writes++
			}
		}
		for sh, n := range perShard {
			if share := float64(n) / float64(writes); math.Abs(share-1/float64(shards)) > 0.03 {
				t.Errorf("client %d sends %.3f of its writes to shard %d", c, share, sh)
			}
		}
	}
}

func TestBlockContentDetectsDamage(t *testing.T) {
	b := make([]byte, benchBlockSize)
	fillBlock(b, 4242, 17)
	if v, ok := blockVersion(b, 4242); !ok || v != 17 {
		t.Fatalf("round trip: version %d ok=%v", v, ok)
	}
	if _, ok := blockVersion(b, 4243); ok {
		t.Error("content accepted for another address")
	}
	b[40] ^= 1
	if _, ok := blockVersion(b, 4242); ok {
		t.Error("flipped payload bit accepted")
	}
}

func TestHistQuantilesTrackExactOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	v := make([]float64, 200000)
	for i := range v {
		ns := int64(math.Exp(rng.NormFloat64()*0.8 + 10)) // log-normal around 22 µs
		v[i] = float64(ns)
		h.add(ns)
	}
	sort.Float64s(v)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := v[int(q*float64(len(v)))-1]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f", q, got, exact)
		}
	}
	var m hist
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Error("merging a histogram with itself moved its median")
	}
	for _, x := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345} {
		if lo, hi := histBounds(histIndex(x)); x < lo || x >= hi {
			t.Errorf("value %d filed under [%d,%d)", x, lo, hi)
		}
	}
}

func TestMedianAndSummary(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	s := summarize([]float64{5, 1, 3}, 9)
	if s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Reps != 3 || s.N != 9 {
		t.Errorf("summary %+v", s)
	}
}

// Self time is the span minus what its children cover, overlap counted once
// and children clipped to the parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{"request", 1, 0, 0, 100},
		{"handler", 2, 1, 10, 70},
		{"client_op", 3, 2, 20, 50},
		{"sibling", 4, 1, 60, 90},    // overlaps handler on [60,70)
		{"straggler", 5, 1, 95, 130}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - (60 + 20 + 5), 2: 30, 3: 30, 4: 30, 5: 35}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if m, n := medianBy(spans, "handler", func(s span) int64 { return s.end - s.start }); m != 60 || n != 1 {
		t.Errorf("medianBy = %v over %d", m, n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.08
	lower := metricDecl{Name: "op_p50_us", Better: "lower", Bound: &bound}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: &bound}
	tight := func(m float64) summary { return summary{Median: m, Min: m * 0.99, Max: m * 1.01, Reps: 5} }
	wide := func(m float64) summary { return summary{Median: m, Min: m * 0.9, Max: m * 1.1, Reps: 5} }
	for _, c := range []struct {
		d    metricDecl
		a, b summary
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(110), "worse"},
		{lower, tight(100), tight(50), "ok"},
		{higher, tight(100), tight(90), "worse"},
		{higher, tight(100), tight(130), "ok"},
		{lower, wide(100), tight(104), "unresolved"},
		{lower, wide(100), tight(60), "ok"}, // every rep of b beats every rep of a
		{higher, wide(100), tight(150), "ok"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// The declaration and the program agree: names are well-formed and unique,
// the workload table matches (wal-async, which follows the host's disk, is
// implemented but not declared), and a smoke pass over every workload,
// untraced and traced, measures exactly the declared metrics — each
// end-to-end one on every workload, each per-layer one on at least one.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, group := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range group {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: end-to-end bound missing or outside (0, 0.25]", d.Name)
		}
	}
	var declared []*workload
	for _, w := range workloads {
		if !w.hostBound {
			declared = append(declared, w)
		}
	}
	if len(spec.Workloads) != len(declared) {
		t.Fatalf("%d workloads declared, %d implemented that are not host-bound", len(spec.Workloads), len(declared))
	}
	for i, d := range spec.Workloads {
		if !nameRE.MatchString(d.Name) || d.Name != declared[i].name || d.Why != declared[i].why {
			t.Errorf("workload %d: declared %q, implemented %q (or their why differs)", i, d.Name, declared[i].name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}

	saved := benchBlocks
	defer func() { benchBlocks = saved }()
	o := smokeOptions(options{seed: 5, outDir: t.TempDir()})
	measured := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.name, traced, res.Correct, res.Attempted, res.Failed, res.FirstErr)
			}
			if _, err := res.contractLine(spec); err != nil {
				t.Error(err)
			}
			for name, m := range res.Metrics {
				measured[name] = true
				if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
					t.Errorf("%s: %s = %v", w.name, name, m.Median)
				}
				if !traced && m.Median <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Median)
				}
			}
			if traced {
				if fi, err := os.Stat(res.SpanFile); err != nil || fi.Size() == 0 {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
	for _, d := range spec.PerLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}
