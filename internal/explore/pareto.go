package explore

import (
	"sort"
	"strings"
)

// Objectives is the default frontier the paper's design-space argument
// is made over: client-visible tail latency, modeled memory cycles per
// operation, and the trusted on-chip provision. Lower is better for all
// explorer metrics, so dominance needs no per-objective direction.
var Objectives = []string{"p99-ns", "cycles/op", "onchip-B"}

// MarkPareto sets Row.Pareto on every non-dominated row, comparing rows
// within comparison groups: rows compete only against rows of the same
// workload that carry the same subset of the requested objectives.
// (Untimed points have no cycles/op; comparing them against timed points
// on a frontier that ignores cycles would crown them for free, so they
// form their own group over the objectives they do have.) Infeasible rows
// and rows carrying none of the objectives are left unmarked.
func MarkPareto(rows []Row, objectives []string) {
	groups := map[string][]int{}
	for i, r := range rows {
		var have []string
		for _, o := range objectives {
			if _, ok := r.Metrics[o]; ok {
				have = append(have, o)
			}
		}
		if len(have) == 0 || r.Metrics["infeasible"] != 0 {
			rows[i].Pareto = false
			continue
		}
		key := r.Workload + "|" + strings.Join(have, ",")
		groups[key] = append(groups[key], i)
	}
	for key, idxs := range groups {
		objs := strings.Split(strings.SplitN(key, "|", 2)[1], ",")
		for _, i := range idxs {
			dominated := false
			for _, j := range idxs {
				if i != j && dominates(rows[j], rows[i], objs) {
					dominated = true
					break
				}
			}
			rows[i].Pareto = !dominated
		}
	}
}

// dominates reports whether a is at least as good as b on every
// objective and strictly better on at least one (lower is better).
func dominates(a, b Row, objectives []string) bool {
	strict := false
	for _, o := range objectives {
		av, bv := a.Metrics[o], b.Metrics[o]
		if av > bv {
			return false
		}
		if av < bv {
			strict = true
		}
	}
	return strict
}

// Frontier returns the Pareto-marked rows sorted by workload then by the
// first objective, for the human-readable frontier table.
func Frontier(rows []Row) []Row {
	var out []Row
	for _, r := range rows {
		if r.Pareto {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metrics[Objectives[0]] < out[j].Metrics[Objectives[0]]
	})
	return out
}
