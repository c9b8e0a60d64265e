package prof

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is one periodic capture: the raw CPU window plus parsed
// top-N summaries of the text profiles. It serializes as JSON inside
// flight bundles (CPUPprof is base64, the standard encoding/json
// treatment of []byte).
type Snapshot struct {
	Time time.Time `json:"time"`
	// CPUPprof is the raw gzipped pprof protobuf of one WindowSize CPU
	// capture — feed it to `go tool pprof` for flame graphs; the text
	// summaries below need no tooling.
	CPUPprof    []byte `json:"cpu_pprof,omitempty"`
	CPUWindowNs int64  `json:"cpu_window_ns"`

	Heap      ProfileSummary `json:"heap"`
	Mutex     ProfileSummary `json:"mutex"`
	Block     ProfileSummary `json:"block"`
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

// ProfileSummary is one parsed debug=1 profile reduced to totals and
// its top-N frames.
type ProfileSummary struct {
	// Total is the profile's primary total: in-use objects (heap),
	// contention events (mutex/block), goroutines (goroutine).
	Total int64 `json:"total"`
	// TotalBytes is the in-use byte total (heap only).
	TotalBytes int64 `json:"total_bytes,omitempty"`
	// Top are the heaviest frames, descending by Value.
	Top []Frame `json:"top,omitempty"`
}

// Frame is one aggregated stack frame in a summary. Attribution is by
// leaf frame: the first non-runtime function of each sample's stack
// (falling back to the true leaf for pure-runtime stacks).
type Frame struct {
	Func string `json:"func"`
	// Value is the primary metric: in-use objects (heap), delay cycles
	// (mutex/block), goroutines (goroutine).
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

// sample is one parsed debug=1 stack entry.
type sample struct {
	values []int64
	frames []string
}

// SummarizeDebugProfile parses a runtime/pprof debug=1 text profile and
// reduces it to a top-N frame summary. The debug=1 grammar shared by
// the heap, mutex, block, and goroutine profiles is:
//
//	heap profile: 96: 18432 [218: 36864] @ heap/1048576     (header)
//	1: 2048 [5: 10240] @ 0x4a2b10 0x4a0f22                  (heap sample)
//	5 @ 0x4632c1 0x462f18                                   (goroutine sample)
//	18718 1 @ 0x46f2a8 0x46df05                             (mutex sample)
//	#	0x4a2b0f	repro/internal/kb.Build+0x2ef	/root/repo/internal/kb/kb.go:120
//	# labels: {"shard":"1"}                                 (ignored here)
//	# Alloc = 2148304                                       (MemStats tail, ignored)
//
// Values before the '@' are the sample's numbers: for heap,
// inuse_objects: inuse_bytes [alloc_objects: alloc_bytes]; for mutex
// and block, cycles then count; for goroutine, the count. Only the raw
// sampled values are reported (no rate rescaling) — deltas and ratios
// between snapshots of the same process are what the observatory reads.
func SummarizeDebugProfile(name, text string, topN int) ProfileSummary {
	samples := parseDebugProfile(text)
	var sum ProfileSummary
	agg := make(map[string]*Frame)
	order := make([]string, 0, len(samples))
	for _, sm := range samples {
		if len(sm.values) == 0 {
			continue
		}
		value := sm.values[0]
		var bytes int64
		if name == "heap" && len(sm.values) > 1 {
			bytes = sm.values[1]
		}
		sum.Total += value
		sum.TotalBytes += bytes
		fn := leafFunc(sm.frames)
		f := agg[fn]
		if f == nil {
			f = &Frame{Func: fn}
			agg[fn] = f
			order = append(order, fn)
		}
		f.Value += value
		f.Bytes += bytes
	}
	top := make([]Frame, 0, len(agg))
	for _, fn := range order {
		top = append(top, *agg[fn])
	}
	sort.SliceStable(top, func(i, j int) bool {
		if name == "heap" && top[i].Bytes != top[j].Bytes {
			return top[i].Bytes > top[j].Bytes
		}
		if top[i].Value != top[j].Value {
			return top[i].Value > top[j].Value
		}
		return top[i].Func < top[j].Func
	})
	if len(top) > topN {
		top = top[:topN]
	}
	sum.Top = top
	return sum
}

// parseDebugProfile splits a debug=1 text profile into samples. Lines
// opening with a digit start a sample (values up to the '@'); '#'-lines
// with an address column attach frames to the current sample; headers,
// label lines, and the MemStats tail are skipped.
func parseDebugProfile(text string) []sample {
	var samples []sample
	var cur *sample
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			cur = nil
			continue
		}
		switch {
		case trimmed[0] >= '0' && trimmed[0] <= '9':
			head, _, hasAt := strings.Cut(trimmed, "@")
			if !hasAt {
				// "cycles/second=..." and similar preamble.
				continue
			}
			var vals []int64
			for _, tok := range strings.FieldsFunc(head, func(r rune) bool {
				return r == ' ' || r == ':' || r == '[' || r == ']' || r == '\t'
			}) {
				v, err := strconv.ParseInt(tok, 10, 64)
				if err != nil {
					vals = nil
					break
				}
				vals = append(vals, v)
			}
			if vals == nil {
				continue
			}
			samples = append(samples, sample{values: vals})
			cur = &samples[len(samples)-1]
		case trimmed[0] == '#':
			if cur == nil {
				continue
			}
			fields := strings.Fields(trimmed)
			// Frame lines look like: "# 0x4a2b0f pkg.Func+0x2ef file:line".
			if len(fields) < 3 || !strings.HasPrefix(fields[1], "0x") {
				continue
			}
			fn := fields[2]
			if i := strings.LastIndex(fn, "+0x"); i > 0 {
				fn = fn[:i]
			}
			cur.frames = append(cur.frames, fn)
		default:
			// "heap profile:", "goroutine profile:", "--- mutex:" headers.
			cur = nil
		}
	}
	return samples
}

// leafFunc picks the attribution frame of a stack: the first non-runtime
// function, falling back to the leaf, then to "(unknown)" for samples
// whose addresses did not symbolize.
func leafFunc(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "runtime/") {
			return f
		}
	}
	if len(frames) > 0 {
		return frames[0]
	}
	return "(unknown)"
}

// heapDelta diffs two consecutive heap summaries frame-by-frame,
// returning the movers sorted by absolute byte growth (largest first),
// capped at topN. Frames present only in prev show as negative deltas.
func heapDelta(prev, now *ProfileSummary, topN int) []FrameDelta {
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
	if len(out) > topN {
		out = out[:topN]
	}
	return out
}
