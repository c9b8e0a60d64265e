// Command benchjson converts `go test -bench` text output into a stable
// machine-readable JSON file, so benchmark runs can be committed and
// diffed across PRs:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH.json
//
// Input lines pass through to stdout unchanged (the stream stays watchable
// while it is being parsed). Every benchmark result line becomes one entry
// keyed "pkg/BenchmarkName" mapping the standard ns/op, B/op and allocs/op
// columns to fields and any custom b.ReportMetric units (acc@01,
// ms/bundle, ...) into a metrics object. See EXPERIMENTS.md for the file
// format contract.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Pkg        string             `json:"pkg"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// File is the committed JSON document.
type File struct {
	// PR is the monotonically increasing PR ordinal this baseline was
	// committed under (-pr flag). benchtrend orders baselines by it
	// structurally; 0 means unstamped (pre-PR 10 files), for which
	// benchtrend falls back to parsing the BENCH_pr<N>.json filename.
	PR         int               `json:"pr,omitempty"`
	Go         string            `json:"go,omitempty"`
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	GOMAXPROCS int               `json:"gomaxprocs,omitempty"`
	NumCPU     int               `json:"num_cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout only echoes input)")
	pr := flag.Int("pr", 0, "PR ordinal stamped into the output so benchtrend orders baselines structurally (0 = unstamped)")
	assertZero := flag.String("assert-zero-allocs", "",
		"regexp of benchmark keys (pkg/BenchmarkName) that must report 0 allocs/op; any violation, or a match without an allocs/op column, fails the run")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *out, *pr, *assertZero); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, echo io.Writer, outPath string, pr int, assertZero string) error {
	doc := File{
		PR:         pr,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: map[string]Result{},
	}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(pkg, line); ok {
				doc.Benchmarks[r.Pkg+"/"+r.Name] = r
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines in input")
	}
	if assertZero != "" {
		if err := checkZeroAllocs(doc, assertZero); err != nil {
			return err
		}
	}
	if outPath == "" {
		return nil
	}
	data, err := marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(echo, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), outPath)
	return nil
}

// checkZeroAllocs enforces the hot-path allocation contract on the parsed
// results: every benchmark whose key matches the pattern must carry an
// allocs/op column reading exactly 0. A pattern matching no benchmark at
// all is its own failure — a vacuous gate would pass silently when the
// benchmarks are renamed away.
func checkZeroAllocs(doc File, pattern string) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("-assert-zero-allocs: %w", err)
	}
	keys := make([]string, 0, len(doc.Benchmarks))
	for key := range doc.Benchmarks {
		if re.MatchString(key) {
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("-assert-zero-allocs %q matched no benchmark", pattern)
	}
	sort.Strings(keys)
	var bad []string
	for _, key := range keys {
		r := doc.Benchmarks[key]
		switch {
		case r.AllocsOp == nil:
			bad = append(bad, key+": no allocs/op column (run with -benchmem)")
		case *r.AllocsOp != 0:
			bad = append(bad, fmt.Sprintf("%s: %g allocs/op, want 0", key, *r.AllocsOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("hot-path allocation gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// parseBench parses one result line:
//
//	BenchmarkName-8  1  123456 ns/op  42 B/op  7 allocs/op  0.516 acc@01
func parseBench(pkg, line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix go test appends.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Pkg: pkg, Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			allocs := v
			r.AllocsOp = &allocs
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// marshal renders the document indented with a trailing newline;
// encoding/json emits map keys sorted, so committed files diff cleanly.
func marshal(doc File) ([]byte, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
