package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestParseAndGate drives sweep text through parse and the allocation
// gate: a sweep in which a gated benchmark failed must not come out green
// just because the benchmarks that did finish are within budget.
func TestParseAndGate(t *testing.T) {
	const ok = "BenchmarkAccessPlaintext-2 3000 1400 ns/op 0 B/op 0 allocs/op\n"
	gate := regexp.MustCompile("BenchmarkAccessPlaintext|BenchmarkAccessRecursivePLBHit")
	for _, tc := range []struct {
		name, in string
		wantErr  string // substring of the parse or gate error; "" = green
	}{
		{"clean sweep", "goos: linux\n" + ok + "PASS\nok  \trepro\t1.2s\n", ""},
		{"gated benchmark failed", ok + "--- FAIL: BenchmarkAccessRecursivePLBHit\nFAIL\n", "sweep failed"},
		{"package failed", ok + "FAIL\trepro\t0.5s\n", "sweep failed"},
		{"over budget", "BenchmarkAccessPlaintext-2 3000 1400 ns/op 64 B/op 2 allocs/op\n", "exceeds budget"},
		{"no allocs reported", "BenchmarkAccessPlaintext-2 3000 1400 ns/op\n", "no allocs/op"},
		{"gate matches nothing", "BenchmarkOther-2 3000 1400 ns/op 0 B/op 0 allocs/op\n", "matched no benchmarks"},
	} {
		rep, err := parse(strings.NewReader(tc.in))
		if err == nil {
			err = check(rep.Benchmarks, gate, 1)
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: got %v, want green", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}
