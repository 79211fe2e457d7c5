// Command oram-benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON file and gates the allocation budget of the hot
// serving path. CI pipes the benchmark sweep through it; the run fails if
// any gated benchmark's steady-state allocs/op exceeds the budget, so an
// allocation regression on the access path cannot land silently.
//
// Example:
//
//	go test -run xxx -bench 'Access|Sharded' -benchmem . |
//	    go run ./cmd/oram-benchjson -out BENCH.json \
//	        -gate 'BenchmarkAccessCounterEncrypted|BenchmarkShardedThroughputEncrypted' \
//	        -max-allocs 1
//
// The gate intentionally excludes the strawman encryption benchmark (the
// paper's Section 2.2.1 baseline allocates per block by design) — gate
// patterns name the benchmarks the zero-allocation contract covers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/encrypt"
)

// Benchmark is one parsed result line. Metrics holds every reported
// "value unit" pair keyed by unit — ns/op, B/op, allocs/op, ops/s, plus
// any custom b.ReportMetric units the benchmark emitted.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted JSON document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Keystream  string      `json:"keystream,omitempty"` // this host's pad generator: the gate scripts pipe go test into this command
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oram-benchjson: ")
	var (
		in        = flag.String("in", "", "benchmark output to parse (default stdin)")
		out       = flag.String("out", "", "JSON file to write (default stdout)")
		gate      = flag.String("gate", "", "regexp of benchmark names held to the allocation budget")
		maxAllocs = flag.Float64("max-allocs", 1, "max allocs/op a gated benchmark may report")
		requires  requireList
	)
	flag.Var(&requires, "require", "cross-benchmark metric assertion 'BenchA:metric<BenchB:metric' (or '>'); either side may be scaled 'K*Bench:metric'; repeatable, all must hold")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	rep.Keystream = encrypt.KeystreamImpl()

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}

	if *gate != "" {
		re, err := regexp.Compile(*gate)
		if err != nil {
			log.Fatalf("bad -gate pattern: %v", err)
		}
		if err := check(rep.Benchmarks, re, *maxAllocs); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "oram-benchjson: allocation gate passed (budget %g allocs/op)\n", *maxAllocs)
	}
	for _, req := range requires {
		if err := requireMetric(rep.Benchmarks, req); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "oram-benchjson: requirement holds: %s\n", req)
	}
}

// requireList collects repeated -require flags.
type requireList []string

func (r *requireList) String() string { return strings.Join(*r, ",") }
func (r *requireList) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// requireMetric enforces one 'BenchA:metric<BenchB:metric' assertion
// (or '>'): both benchmarks must be present, both must report the named
// metric, and the comparison must hold strictly. Either side may carry a
// constant scale 'K*BenchName:metric' — e.g.
// 'BenchmarkFileBackendAccess:ns/op<8*BenchmarkAccessCounterEncrypted:ns/op'
// pins a bounded slowdown ratio. This is how CI pins relative performance
// claims — e.g. that the FR-FCFS scheduler beats the in-order baseline on
// modeled cycles per op — instead of absolute thresholds that drift with
// hardware.
func requireMetric(benches []Benchmark, expr string) error {
	opIdx := strings.IndexAny(expr, "<>")
	if opIdx < 0 {
		return fmt.Errorf("bad -require %q: want 'BenchA:metric<BenchB:metric' or '>'", expr)
	}
	op := expr[opIdx]
	lookup := func(side string) (float64, error) {
		scale := 1.0
		if k, rest, ok := strings.Cut(side, "*"); ok {
			f, err := strconv.ParseFloat(k, 64)
			if err != nil {
				return 0, fmt.Errorf("bad -require scale %q: want a number before '*'", k)
			}
			scale, side = f, rest
		}
		name, metric, ok := strings.Cut(side, ":")
		if !ok {
			return 0, fmt.Errorf("bad -require side %q: want '[K*]BenchName:metric'", side)
		}
		for _, b := range benches {
			if b.Name != name {
				continue
			}
			v, ok := b.Metrics[metric]
			if !ok {
				return 0, fmt.Errorf("%s reports no %q metric", name, metric)
			}
			return scale * v, nil
		}
		return 0, fmt.Errorf("benchmark %q not found in input", name)
	}
	lhs, err := lookup(expr[:opIdx])
	if err != nil {
		return err
	}
	rhs, err := lookup(expr[opIdx+1:])
	if err != nil {
		return err
	}
	holds := lhs < rhs
	if op == '>' {
		holds = lhs > rhs
	}
	if !holds {
		return fmt.Errorf("requirement failed: %s (%g %c %g does not hold)", expr, lhs, rune(op), rhs)
	}
	return nil
}

// check fails if a gated benchmark exceeds the allocation budget — or if
// the gate matches nothing, so a benchmark rename cannot silently disarm
// it. A matching benchmark that reports no allocs/op at all (missing
// -benchmem or b.ReportAllocs) also fails.
func check(benches []Benchmark, re *regexp.Regexp, budget float64) error {
	matched := 0
	var violations []string
	for _, b := range benches {
		if !re.MatchString(b.Name) {
			continue
		}
		matched++
		allocs, ok := b.Metrics["allocs/op"]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s reports no allocs/op (run with -benchmem)", b.Name))
			continue
		}
		if allocs > budget {
			violations = append(violations, fmt.Sprintf("%s: %g allocs/op exceeds budget %g", b.Name, allocs, budget))
		}
	}
	if matched == 0 {
		return fmt.Errorf("gate %q matched no benchmarks — renamed without updating the gate?", re)
	}
	if len(violations) > 0 {
		return fmt.Errorf("allocation gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

// procSuffix is the -GOMAXPROCS suffix go test appends to parallel
// benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` text output. Result lines look like
//
//	BenchmarkName-8   \t  2000 \t 2622 ns/op \t 0 B/op \t 0 allocs/op
//
// with any number of trailing "value unit" metric pairs. A sweep in which
// anything failed ("--- FAIL: BenchmarkX", go test's closing "FAIL") is an
// error: the failed benchmark has no result line, so the gates would pass
// over the ones that remain.
func parse(r io.Reader) (Report, error) {
	var rep Report
	failed := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "--- FAIL") || line == "FAIL" || strings.HasPrefix(line, "FAIL\t"):
			if failed == "" {
				failed = line
			}
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo ... --- FAIL" shapes
		}
		b := Benchmark{
			// Strip the -GOMAXPROCS suffix so gates match stable names.
			Name:       procSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if failed != "" {
		return rep, fmt.Errorf("the benchmark sweep failed (%q); a benchmark that did not finish cannot pass a gate", failed)
	}
	return rep, nil
}
