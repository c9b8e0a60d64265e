package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// benchOutput is `go test -bench -benchmem` output for one package.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/obs
cpu: test CPU
BenchmarkHotCounterAdd-2        	1000000	        12.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkGuardBeatDisabled-2    	1000000	         3.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkRender-2               	   1000	      4521 ns/op	     512 B/op	       9 allocs/op
PASS
`

// TestAssertZeroAllocs is the meta-test of make bench-alloc's gate: a run
// whose matched benchmarks all read 0 allocs/op passes, and the gate
// fails on a matched benchmark that allocates (naming it), on a match
// without an allocs/op column and on a pattern that matches nothing.
func TestAssertZeroAllocs(t *testing.T) {
	const gate = `/BenchmarkHot|Disabled$`
	for _, tc := range []struct {
		name, input, pattern string
		wantErr              string // "" means the gate passes
	}{
		{"all zero", benchOutput, gate, ""},
		{"one allocation",
			strings.Replace(benchOutput, "0 B/op	       0 allocs/op", "8 B/op	       1 allocs/op", 1), gate,
			"repro/internal/obs/BenchmarkHotCounterAdd: 1 allocs/op, want 0"},
		{"no allocs/op column",
			strings.Replace(benchOutput, "	       0 B/op	       0 allocs/op", "", 1), gate,
			"repro/internal/obs/BenchmarkHotCounterAdd: no allocs/op column"},
		{"matches nothing", benchOutput, `/BenchmarkNothing$`, "matched no benchmark"},
		{"a pattern that is no regexp", benchOutput, `/Benchmark(`, "-assert-zero-allocs"},
	} {
		err := run(strings.NewReader(tc.input), io.Discard, "", 0, tc.pattern)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: gate passed, want an error containing %q", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestParseBench: a result line's standard columns fill their fields and
// custom b.ReportMetric units land in Metrics; go test's -GOMAXPROCS
// suffix is stripped when present, and a hyphen that ends no number is
// kept.
func TestParseBench(t *testing.T) {
	allocs := 533704.0
	want := Result{
		Pkg: "repro", Name: "BenchmarkFig11_BagOfConceptsJaccard", Iterations: 1,
		NsPerOp: 432109876, BytesPerOp: 101312345, AllocsOp: &allocs,
		Metrics: map[string]float64{"acc@10": 0.9783, "ms/bundle": 0.318},
	}
	const columns = "	       1	 432109876 ns/op	101312345 B/op	  533704 allocs/op	    0.9783 acc@10	     0.318 ms/bundle"
	for _, name := range []string{"BenchmarkFig11_BagOfConceptsJaccard-2", "BenchmarkFig11_BagOfConceptsJaccard"} {
		got, ok := parseBench("repro", name+columns)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("parseBench(%s ...) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	for line, name := range map[string]string{
		"BenchmarkScan/size-large-8 10 5 ns/op": "BenchmarkScan/size-large",
		"BenchmarkScan/size-large 10 5 ns/op":   "BenchmarkScan/size-large",
	} {
		if got, ok := parseBench("p", line); !ok || got.Name != name {
			t.Errorf("parseBench(%q) named %q (%v), want %q", line, got.Name, ok, name)
		}
	}
	if _, ok := parseBench("p", "BenchmarkBroken-2 notanumber 5 ns/op"); ok {
		t.Error("a line without an iteration count parsed")
	}
}
