package prof

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Snapshot is one periodic capture: the raw CPU window plus top-N
// summaries of the heap and goroutine profiles. It serializes as JSON
// inside flight bundles (CPUPprof is base64, the standard encoding/json
// treatment of []byte). Bundles from builds that also summarized the
// mutex and block profiles decode too; those sections are dropped.
type Snapshot struct {
	Time time.Time `json:"time"`
	// CPUPprof is the raw gzipped pprof protobuf of one WindowSize CPU
	// capture — feed it to `go tool pprof` for flame graphs; the text
	// summaries below need no tooling.
	CPUPprof    []byte `json:"cpu_pprof,omitempty"`
	CPUWindowNs int64  `json:"cpu_window_ns"`

	Heap      ProfileSummary `json:"heap"`
	Goroutine ProfileSummary `json:"goroutine"`

	// HeapDelta is the in-use movement per frame since the previous ring
	// snapshot (growth first); empty on the first snapshot.
	HeapDelta []FrameDelta `json:"heap_delta,omitempty"`
	// Goroutines is the goroutine count at capture (the goroutine
	// profile's total), retained per snapshot so reports show growth.
	Goroutines int `json:"goroutines"`
}

// rawBytes reports the retained raw profile payload of one snapshot.
func (s *Snapshot) rawBytes() int64 { return int64(len(s.CPUPprof)) }

// ProfileSummary is one profile reduced to totals and its top-N frames.
type ProfileSummary struct {
	// Total is the profile's primary total: in-use objects (heap) or
	// goroutines (goroutine).
	Total int64 `json:"total"`
	// TotalBytes is the in-use byte total (heap only).
	TotalBytes int64 `json:"total_bytes,omitempty"`
	// Top are the heaviest frames, descending by Value.
	Top []Frame `json:"top,omitempty"`
}

// Frame is one aggregated stack frame in a summary. Attribution is by
// leaf frame, as leafFunc picks it.
type Frame struct {
	Func string `json:"func"`
	// Value is the primary metric: in-use objects (heap) or goroutines
	// (goroutine).
	Value int64 `json:"value"`
	// Bytes is the in-use bytes (heap only).
	Bytes int64 `json:"bytes,omitempty"`
}

// FrameDelta is one frame's heap movement between consecutive
// snapshots.
type FrameDelta struct {
	Func       string `json:"func"`
	DeltaBytes int64  `json:"delta_bytes"`
	DeltaValue int64  `json:"delta_objects"`
	NowBytes   int64  `json:"now_bytes"`
	NowValue   int64  `json:"now_objects"`
}

// Capture is a frozen ring, the `profiles` section of a flight bundle.
type Capture struct {
	// Ring holds the retained snapshots, oldest first.
	Ring []Snapshot `json:"ring,omitempty"`
	// BreachCPU is the fresh CPU capture taken at freeze time for
	// breach-window triggers (SLO breach, stall, breaker trip, replica
	// lag); nil for periodic-only freezes.
	BreachCPU []byte `json:"breach_cpu_pprof,omitempty"`
	// WindowNs is the CPU window length of every capture in this ring.
	WindowNs int64 `json:"cpu_window_ns,omitempty"`
}

// Sample is one profile stack: its function names, innermost first (""
// for a frame that did not symbolize), and its values — in-use objects and
// bytes for the heap, the goroutines sharing it for the goroutine
// profile.
// Values are raw sampled counts, not rescaled by the sampling rate:
// deltas and ratios between snapshots of one process are what the
// observatory reads.
type Sample struct {
	Stack []string
	Value int64
	Bytes int64
}

// runtimeSamples reads the named runtime profile, "heap" (in-use
// included at zero, as the debug=1 text lists it) or "goroutine". Heap
// records are one per allocation stack already; goroutines are counted
// per distinct stack first, so each stack is symbolized once however many
// goroutines share it.
func runtimeSamples(name string) ([]Sample, error) {
	var out []Sample
	switch name {
	case "heap":
		recs := records(func(p []runtime.MemProfileRecord) (int, bool) { return runtime.MemProfile(p, true) })
		out = make([]Sample, len(recs))
		for i := range recs {
			r := &recs[i]
			out[i] = Sample{Stack: frameNames(r.Stack()), Value: r.InUseObjects(), Bytes: r.InUseBytes()}
		}
	case "goroutine":
		perStack := make(map[runtime.StackRecord]int64)
		for _, r := range records(runtime.GoroutineProfile) {
			perStack[r]++
		}
		out = make([]Sample, 0, len(perStack))
		for r, n := range perStack {
			out = append(out, Sample{Stack: frameNames(r.Stack()), Value: n})
		}
	default:
		return nil, fmt.Errorf("prof: unknown profile %q", name)
	}
	return out, nil
}

// records reads a runtime profile through read, which reports how many
// records there are and whether p held them all, growing p until it
// does: records may be added between the sizing call and the read.
func records[T any](read func(p []T) (int, bool)) []T {
	n, _ := read(nil)
	for {
		p := make([]T, n+n/4+10)
		var ok bool
		if n, ok = read(p); ok {
			return p[:n]
		}
	}
}

// frameNames symbolizes a stack of return PCs, inlined calls expanded,
// innermost first.
func frameNames(stack []uintptr) []string {
	if len(stack) == 0 {
		return nil
	}
	var names []string
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// summarize reduces samples to a top-N frame summary: values summed per
// leaf function, heaviest first (bytes first for the heap).
func summarize(samples []Sample, heap bool) ProfileSummary {
	var sum ProfileSummary
	agg := make(map[string]*Frame)
	for _, sm := range samples {
		sum.Total += sm.Value
		sum.TotalBytes += sm.Bytes
		fn := leafFunc(sm.Stack)
		f := agg[fn]
		if f == nil {
			f = &Frame{Func: fn}
			agg[fn] = f
		}
		f.Value += sm.Value
		f.Bytes += sm.Bytes
	}
	top := make([]Frame, 0, len(agg))
	for _, f := range agg {
		top = append(top, *f)
	}
	sort.Slice(top, func(i, j int) bool {
		if heap && top[i].Bytes != top[j].Bytes {
			return top[i].Bytes > top[j].Bytes
		}
		if top[i].Value != top[j].Value {
			return top[i].Value > top[j].Value
		}
		return top[i].Func < top[j].Func
	})
	if len(top) > TopN {
		top = top[:TopN]
	}
	sum.Top = top
	return sum
}

// leafFunc picks a stack's attribution frame the way the debug=1 text
// form of the profile leads to it. pprof's printer drops runtime.goexit
// and the leading runtime. and internal/runtime/ frames (an unsymbolized
// frame ends the leading run), unless dropping them leaves nothing to
// print. Of the printed functions, the leaf is the first outside
// runtime. and runtime/, else the first printed, else "(unknown)".
func leafFunc(stack []string) string {
	var first, firstLeading, leadingLeaf string
	shown := false
	for _, name := range stack {
		switch {
		case name == "":
			shown = true
		case name == "runtime.goexit":
		case !shown && (strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "internal/runtime/")):
			// A leading runtime frame: printed only if nothing else is.
			if firstLeading == "" {
				firstLeading = name
			}
			if leadingLeaf == "" && !isRuntime(name) {
				leadingLeaf = name
			}
		default:
			shown = true
			if !isRuntime(name) {
				return name
			}
			if first == "" {
				first = name
			}
		}
	}
	switch {
	case first != "":
		return first
	case shown:
		return "(unknown)"
	case leadingLeaf != "":
		return leadingLeaf
	case firstLeading != "":
		return firstLeading
	}
	return "(unknown)"
}

// isRuntime reports a function leafFunc looks past.
func isRuntime(name string) bool {
	return strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "runtime/")
}

// heapDelta diffs two consecutive heap summaries frame-by-frame,
// returning the movers sorted by absolute byte growth (largest first),
// capped at TopN. Frames present only in prev show as negative deltas.
func heapDelta(prev, now *ProfileSummary) []FrameDelta {
	type pair struct{ prev, now *Frame }
	merged := make(map[string]*pair)
	order := []string{}
	for i := range prev.Top {
		f := &prev.Top[i]
		merged[f.Func] = &pair{prev: f}
		order = append(order, f.Func)
	}
	for i := range now.Top {
		f := &now.Top[i]
		p := merged[f.Func]
		if p == nil {
			merged[f.Func] = &pair{now: f}
			order = append(order, f.Func)
			continue
		}
		p.now = f
	}
	var out []FrameDelta
	for _, fn := range order {
		p := merged[fn]
		d := FrameDelta{Func: fn}
		if p.prev != nil {
			d.DeltaBytes -= p.prev.Bytes
			d.DeltaValue -= p.prev.Value
		}
		if p.now != nil {
			d.DeltaBytes += p.now.Bytes
			d.DeltaValue += p.now.Value
			d.NowBytes = p.now.Bytes
			d.NowValue = p.now.Value
		}
		if d.DeltaBytes != 0 || d.DeltaValue != 0 {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := out[i].DeltaBytes, out[j].DeltaBytes
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return out[i].Func < out[j].Func
	})
	if len(out) > TopN {
		out = out[:TopN]
	}
	return out
}
