package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchSpec is BENCHMARK.json: the declaration of every workload and metric
// this program emits. The program keeps no second table of names, units,
// directions or bounds; it reads them here and refuses to emit a metric the
// file does not declare, or to leave a declared one out.
type benchSpec struct {
	Paths     []string       `json:"paths"`
	Workloads []workloadDecl `json:"workloads"`
	EndToEnd  []metricDecl   `json:"end_to_end"`
	PerLayer  []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// bound is how far the metric may worsen, as a share of the parent's median
// (0 for per-layer metrics, which have none).
func (d metricDecl) bound() float64 {
	if d.Bound == nil {
		return 0
	}
	return *d.Bound
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) decls(trace bool) []metricDecl {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// value is one metric as the contract's result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared maps measured values onto the declared metric list. Every
// measured name must be declared. A declared per-layer metric the run did
// not measure — its layer is not in this workload's stack — reads 0; an
// end-to-end metric must always be measured.
func (s *benchSpec) declared(trace bool, measured map[string]summary) (map[string]value, error) {
	out := map[string]value{}
	for _, d := range s.decls(trace) {
		m, ok := measured[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = value{m.Median, d.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// layerCounters derives the "S" per-layer metrics: public counters read
// after an untraced window, divided by the window's logical ops.
func layerCounters(inst *instance, r *windowResult) map[string]float64 {
	w := inst.w
	ops := float64(r.ops)
	st := r.post.stats // reset at the window's start
	out := map[string]float64{
		"pathoram.op_p999_us":     r.whole.quantile(0.999) / 1e3,
		"pathoram.stash_peak":     float64(st.StashPeak),
		"pathoram.dummy_per_real": ratio(float64(st.DummyAccesses), float64(st.RealAccesses)),
		"core.deferred_per_op":    float64(st.DeferredWriteBacks) / ops,
		"core.pending_wb_peak":    float64(st.PendingWriteBackPeak),
	}
	for _, o := range inst.orams {
		out["pathoram.onchip_bytes"] += float64(o.OnChipBytes())
		out["pathoram.external_bytes"] += float64(o.ExternalMemoryBytes())
	}
	allocs := float64(r.post.mallocs-r.pre.mallocs) / ops
	if w.tenants > 0 {
		out["service.allocs_per_req"] = allocs
		out["service.wire_bytes_per_req"] = float64(r.post.wire-r.pre.wire) / ops
	} else {
		out["pathoram.allocs_per_op"] = allocs
	}

	var most, sum float64
	for i, n := range r.post.sched.ExecutedPerShard {
		d := float64(n - r.pre.sched.ExecutedPerShard[i])
		most, sum = max(most, d), sum+d
	}
	out["shard.imbalance"] = ratio(most*float64(len(r.post.sched.ExecutedPerShard)), sum)
	out["shard.idle_writebacks_per_op"] = float64(r.post.sched.IdleWriteBacks-r.pre.sched.IdleWriteBacks) / ops

	if st.ChainSamples > 0 {
		out["hierarchy.chain_len"] = float64(st.ChainLevels) / float64(st.ChainSamples)
		out["hierarchy.plb_hit_rate"] = ratio(float64(st.PLBHits), float64(st.PLBHits+st.PLBMisses))
		out["hierarchy.plb_writebacks_per_op"] = float64(st.PLBWriteBacks) / ops
		if h, ok := inst.orams[0].(interface{ NumORAMs() int }); ok {
			out["hierarchy.levels"] = float64(h.NumORAMs())
		}
	}
	if r.post.timed {
		t := r.post.timing.Delta(r.pre.timing)
		requests := float64(t.DRAM.Reads + t.DRAM.Writes)
		out["membus.cycles_per_op"] = float64(t.Cycles) / ops
		out["membus.read_cycles_per_path"] = t.MeanReadCycles()
		out["membus.write_cycles_per_path"] = t.MeanWriteCycles()
		out["membus.bytes_per_cycle"] = t.BytesPerCycle()
		out["membus.skipped_buckets_per_op"] = float64(t.SkippedBuckets) / ops
		out["dram.row_hit_rate"] = t.DRAM.RowHitRate()
		out["dram.reads_per_op"] = float64(t.DRAM.Reads) / ops
		out["dram.writes_per_op"] = float64(t.DRAM.Writes) / ops
		out["dram.bank_overlap_acts_per_op"] = float64(t.DRAM.BankOverlapActs) / ops
		out["dram.starvation_forced_per_kop"] = float64(t.DRAM.StarvationForced) / ops * 1e3
		out["dram.queue_peak"] = float64(r.post.timing.DRAM.QueueOccupancyPeak)
		out["dram.host_ns_per_request"] = ratio(float64(r.wall.Nanoseconds()), requests)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
