// Command perfbench is the QATK/QUEST benchmark. It builds one workload's
// inputs from a seed, measures it for a fixed time in one process, checks
// every output, and prints one JSON result as its last line of output:
//
//	perfbench --workload fig11-bow --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no layer timing. With --trace 1 it carries the per-layer metrics from a
// separate traced pass that times the calls into each module's public
// functions and reports every layer's self time. README.md in this
// directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/datagen"
)

// options are the command-line arguments every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// budget is how long a workload's measured phase runs.
func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// report is one workload run's outcome: ops attempted and failed (a failed
// correctness check counts as a failed op), plus metric values by name.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable summary lines
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one op and, when ok is false, one failure with its reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"fig11-bow":       runFig11BoW,
	"fig11-boc":       runFig11BoC,
	"serve-recommend": runServe,
	"triage":          runTriage,
}

// corpusConfig is the generated corpus of every workload: the paper-scale
// datagen configuration under the workload seed. Tests substitute the small
// configuration.
var corpusConfig = func(seed int64) datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// setupRuns is how many times each workload builds its state; setup_s is
// the median, and only the last build is measured.
const setupRuns = 3

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (1 reproduces Fig. 11)")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := render(rep, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("ops: sent %d, ok %d, failed %d\n", rep.attempted, rep.attempted-rep.failed, rep.failed)
	fmt.Println(out)
}

// render builds the result line: every end-to-end metric untraced, every
// per-layer metric traced. A per-layer metric the workload does not
// exercise reads 0; a missing end-to-end metric is a benchmark bug.
func render(rep *report, traced bool) (string, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	res := resultOut{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(names)),
	}
	for _, m := range names {
		v, ok := rep.metrics[m.name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// setupMedian builds a workload's state setupRuns times and returns the
// last build, its release function and the median build time in seconds.
// Every earlier build is released before the next one starts.
func setupMedian[T any](build func() (T, func(), error)) (T, func(), float64, error) {
	var (
		state T
		done  = func() {}
		secs  []float64
	)
	for i := 0; i < setupRuns; i++ {
		done()
		start := time.Now()
		s, d, err := build()
		if err != nil {
			return state, func() {}, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		state, done = s, d
	}
	return state, done, median(secs), nil
}

// heapLiveMB forces a collection and reports the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeDelta records allocation and GC activity over a measured phase.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// finish writes runtime.alloc_mb, runtime.gc_cycles and
// runtime.gc_pause_ms for the phase since start.
func (d *runtimeDelta) finish(rep *report) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rep.set("runtime.alloc_mb", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20))
	rep.set("runtime.gc_cycles", float64(after.NumGC-d.before.NumGC))
	rep.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e6)
}

// tempDir is where workloads keep on-disk state: inside the checkout's
// build directory, never outside it.
func tempDir() string {
	if d := os.Getenv("PERFBENCH_TMP"); d != "" {
		return d
	}
	return ".bench_build/tmp"
}
