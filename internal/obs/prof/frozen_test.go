package prof

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The summarizer as it read the debug=1 text form of a runtime profile,
// frozen here as the reference the record path must agree with. Only the
// names differ from the text path it replaced.

// frozenSample is one parsed debug=1 stack entry.
type frozenSample struct {
	values []int64
	frames []string
}

// frozenSummarize parses a runtime/pprof debug=1 text profile and reduces
// it to a top-N frame summary.
func frozenSummarize(name, text string, topN int) ProfileSummary {
	samples := frozenParse(text)
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
		fn := frozenLeafFunc(sm.frames)
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

// frozenParse splits a debug=1 text profile into samples. Lines opening
// with a digit start a sample (values up to the '@'); '#'-lines with an
// address column attach frames to the current sample; headers, label
// lines, and the MemStats tail are skipped.
func frozenParse(text string) []frozenSample {
	var samples []frozenSample
	var cur *frozenSample
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
			samples = append(samples, frozenSample{values: vals})
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

// frozenLeafFunc picks the attribution frame of a printed stack: the first
// non-runtime function, falling back to the leaf, then to "(unknown)" for
// samples whose addresses did not symbolize.
func frozenLeafFunc(frames []string) string {
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

// debugText renders one runtime profile in its debug=1 text form.
func debugText(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup(name).WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// dropGoroutine removes one goroutine attributed to fn from a goroutine
// summary, reporting whether fn was there.
func dropGoroutine(sum *ProfileSummary, fn string) bool {
	for i := range sum.Top {
		if sum.Top[i].Func != fn {
			continue
		}
		sum.Total--
		if sum.Top[i].Value--; sum.Top[i].Value == 0 {
			sum.Top = append(sum.Top[:i], sum.Top[i+1:]...)
		}
		return true
	}
	return false
}

// retainedHeap allocates from a few sites, through the runtime's slice
// growth, map growth and a standard-library builder, and keeps it all.
func retainedHeap() []any {
	var keep []any
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 1<<10))
	}
	m := make(map[int]string)
	for i := 0; i < 512; i++ {
		m[i] = strconv.Itoa(i)
	}
	return append(keep, m, strings.Repeat("qatk", 1<<10))
}

// TestRecordSummariesMatchDebugText: the heap and goroutine summaries the
// sampler builds from runtime records equal the frozen text parser's
// summaries of the debug=1 form, read back to back. Every allocation of
// the set-up is sampled, and goroutines wait at two sites, so both
// profiles have frames to attribute. With GC off the published heap
// profile holds still, and with sampling off no allocation between the
// reads adds a record. The goroutine that reads is the one difference by
// construction: each path attributes it to its own caller.
func TestRecordSummariesMatchDebugText(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	kept := retainedHeap()
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); <-release }()
		go func() {
			defer wg.Done()
			select {
			case <-release:
			case <-time.After(time.Hour):
			}
		}()
	}
	defer func() { close(release); wg.Wait() }()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.MemProfileRate = 0

	for _, name := range []string{"heap", "goroutine"} {
		want := frozenSummarize(name, debugText(t, name), TopN)
		samples, err := runtimeSamples(name)
		if err != nil {
			t.Fatal(err)
		}
		got := summarize(samples, name == "heap")
		if name == "goroutine" {
			if !dropGoroutine(&want, "repro/internal/obs/prof.debugText") ||
				!dropGoroutine(&got, "repro/internal/obs/prof.records[...]") {
				t.Fatalf("the reading goroutine is missing:\n text:    %+v\n records: %+v", want, got)
			}
		}
		if len(want.Top) < 3 {
			t.Fatalf("%s: the text form has too few frames to compare: %+v", name, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s summaries differ:\n records: %+v\n text:    %+v", name, got, want)
		}
	}
	runtime.KeepAlive(kept)
}
