package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/reqlog"
)

// BundleSchema versions the bundle layout; qatk diagnose refuses bundles
// from a future schema rather than misreading them.
const BundleSchema = 1

// MetricCapture is one timestamped reading of the full metric registry:
// every series value keyed "name{labels}" as the text exposition names it
// (obs.Registry.Series). Consecutive captures are the "metric deltas" a
// bundle carries: the reader diffs them to show what moved in the window
// before the anomaly.
type MetricCapture struct {
	Time   time.Time          `json:"time"`
	Series map[string]float64 `json:"series"`
}

// MemSummary is the slice of runtime.MemStats worth keeping in a bundle.
type MemSummary struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`
	HeapObjects     uint64 `json:"heap_objects"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	SysBytes        uint64 `json:"sys_bytes"`
	NumGC           uint32 `json:"num_gc"`
	PauseTotalNs    uint64 `json:"pause_total_ns"`
}

// Bundle is one diagnostic snapshot: everything an on-call engineer needs
// to reconstruct the state of the process at the moment a trigger fired.
// It serializes as one JSON document (the plain struct): a trigger writes
// it to a timestamped file in the flight directory, and GET /debug/bundle
// answers it. DecodeBundle reads that document from any stream, and
// ReadBundle reads a bundle file, or a bundle directory as earlier builds
// wrote it.
type Bundle struct {
	Schema      int               `json:"schema"`
	Reason      string            `json:"reason"`
	Time        time.Time         `json:"time"`
	Details     map[string]string `json:"details,omitempty"`
	Build       obs.BuildIdentity `json:"build"`
	Goroutines  int               `json:"goroutines"`
	DroppedLogs uint64            `json:"dropped_logs"`
	MemStats    MemSummary        `json:"mem_stats"`

	Spans         []obs.SpanData  `json:"spans,omitempty"`
	SpanStats     []obs.SpanStat  `json:"span_stats,omitempty"`
	Logs          []string        `json:"logs,omitempty"`
	Metrics       []MetricCapture `json:"metrics,omitempty"`
	GoroutineDump string          `json:"goroutine_dump,omitempty"`
	// Extras carries per-subsystem state from registered info providers
	// (e.g. reldb WAL/sync stats), keyed provider name → field → value.
	Extras map[string]map[string]string `json:"extras,omitempty"`
	// Requests freezes the tail-sampled wide-event ring, newest first.
	Requests []reqlog.Event `json:"requests,omitempty"`
	// Profiles freezes the continuous profiler's snapshot ring, plus a
	// fresh CPU capture of the breach window for breach triggers and
	// for GET /debug/bundle?cpu=1. Additive since PR 10: bundles written
	// before it simply lack the section, and ReadBundle leaves it nil.
	Profiles *prof.Capture `json:"profiles,omitempty"`
}

// manifest is the directory form's header file: the scalar fields of a
// Bundle without the bulky sections, which have files of their own.
type manifest struct {
	Schema      int               `json:"schema"`
	Reason      string            `json:"reason"`
	Time        time.Time         `json:"time"`
	Details     map[string]string `json:"details,omitempty"`
	Build       obs.BuildIdentity `json:"build"`
	Goroutines  int               `json:"goroutines"`
	DroppedLogs uint64            `json:"dropped_logs"`
	MemStats    MemSummary        `json:"mem_stats"`
}

// spansFile groups the two span views into one file.
type spansFile struct {
	Spans     []obs.SpanData `json:"spans,omitempty"`
	SpanStats []obs.SpanStat `json:"span_stats,omitempty"`
}

// Bundle directory file names.
const (
	manifestFile   = "manifest.json"
	spansFileName  = "spans.json"
	logsFileName   = "logs.txt"
	metricsFile    = "metrics.json"
	goroutinesFile = "goroutines.txt"
	extrasFile     = "extras.json"
	requestsFile   = "requests.json"
	profilesFile   = "profiles.json"
)

// stem renders the bundle's timestamped file name without its extension:
// bundle-<UTC compact RFC3339>-<reason>.
func (b *Bundle) stem() string {
	return "bundle-" + b.Time.UTC().Format("20060102T150405Z") + "-" + sanitizeReason(b.Reason)
}

// sanitizeReason maps a trigger reason onto a filesystem-safe slug.
func sanitizeReason(reason string) string {
	var sb strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			sb.WriteRune(r + ('a' - 'A'))
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "unknown"
	}
	return sb.String()
}

// writeFile writes the bundle under parent, creating parent if needed, as
// one JSON document named <stem>.json, and returns the file's path. If
// the name is taken (two triggers in the same second), a numeric suffix
// disambiguates.
func (b *Bundle) writeFile(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", fmt.Errorf("flight: create flight dir: %w", err)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flight: encode bundle: %w", err)
	}
	name := b.stem()
	for i := 2; ; i++ {
		path := filepath.Join(parent, name+".json")
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			name = b.stem() + "-" + strconv.Itoa(i)
			continue
		}
		if err != nil {
			return "", fmt.Errorf("flight: create bundle file: %w", err)
		}
		_, err = f.Write(append(data, '\n'))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", fmt.Errorf("flight: write %s: %w", filepath.Base(path), err)
		}
		return path, nil
	}
}

// ReadBundle loads a bundle from either serialized form: a single JSON
// file, as a trigger writes it or as saved from /debug/bundle, or a
// bundle directory of one file per section, as triggers wrote before. In
// a directory a missing section file is an absent section, but one that
// fails to parse is an error naming the file.
func ReadBundle(path string) (*Bundle, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("flight: open bundle: %w", err)
	}
	if !info.IsDir() {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("flight: read bundle: %w", err)
		}
		defer f.Close()
		return DecodeBundle(f, path)
	}

	var m manifest
	if err := readJSONFile(filepath.Join(path, manifestFile), &m); err != nil {
		return nil, err
	}
	if err := checkSchema(m.Schema, path); err != nil {
		return nil, err
	}
	b := &Bundle{
		Schema: m.Schema, Reason: m.Reason, Time: m.Time, Details: m.Details,
		Build: m.Build, Goroutines: m.Goroutines, DroppedLogs: m.DroppedLogs,
		MemStats: m.MemStats,
	}
	var sf spansFile
	for _, sec := range []struct {
		file string
		v    any
	}{
		{spansFileName, &sf},
		{metricsFile, &b.Metrics},
		{extrasFile, &b.Extras},
		{requestsFile, &b.Requests},
		{profilesFile, &b.Profiles},
	} {
		if err := readJSONFile(filepath.Join(path, sec.file), sec.v); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	b.Spans, b.SpanStats = sf.Spans, sf.SpanStats
	if data, err := os.ReadFile(filepath.Join(path, logsFileName)); err == nil && len(data) > 0 {
		b.Logs = strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	}
	if data, err := os.ReadFile(filepath.Join(path, goroutinesFile)); err == nil {
		b.GoroutineDump = string(data)
	}
	return b, nil
}

// DecodeBundle reads the single-document form of a bundle, as GET
// /debug/bundle answers it and as a saved download or a chaos artifact
// holds it; name labels errors. Like ReadBundle it refuses a bundle
// from a newer schema rather than misread it.
func DecodeBundle(r io.Reader, name string) (*Bundle, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("flight: read bundle %s: %w", name, err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flight: parse bundle %s: %w", name, err)
	}
	if err := checkSchema(b.Schema, name); err != nil {
		return nil, err
	}
	return &b, nil
}

// checkSchema refuses a bundle written by a newer build.
func checkSchema(schema int, name string) error {
	if schema > BundleSchema {
		return fmt.Errorf("flight: bundle %s has schema %d, newer than this reader (%d)", name, schema, BundleSchema)
	}
	return nil
}

// readJSONFile decodes one JSON file into v.
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("flight: read %s: %w", filepath.Base(path), err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("flight: parse %s: %w", filepath.Base(path), err)
	}
	return nil
}

// MetricDelta is one series' movement between the oldest and newest
// capture in a bundle.
type MetricDelta struct {
	Series string
	Delta  float64
	Now    float64
}

// Deltas diffs the oldest against the newest metric capture, returning
// the series that moved, sorted by series name. With fewer than two
// captures it returns nil.
func (b *Bundle) Deltas() []MetricDelta {
	if len(b.Metrics) < 2 {
		return nil
	}
	first, last := b.Metrics[0].Series, b.Metrics[len(b.Metrics)-1].Series
	var out []MetricDelta
	for name, now := range last {
		if d := now - first[name]; d != 0 {
			out = append(out, MetricDelta{Series: name, Delta: d, Now: now})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series < out[j].Series })
	return out
}

// Handler serves the live view, GET /debug/bundle: a bundle with reason
// on_demand and the caller's address, assembled in memory and answered
// as one JSON document. ?cpu=1 adds a fresh CPU capture of one profiler
// window. The view is read-only: it writes no bundle file, prunes
// nothing, counts neither a bundle nor a scrape (the profiler counts its
// freeze) and leaves the metric-delta ring as it was, so polling it
// cannot push an incident bundle out of retention. A nil
// recorder answers 503 so probes can tell "disabled" from "broken".
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder disabled", http.StatusServiceUnavailable)
			return
		}
		r.mu.Lock()
		b := r.captureLocked(ReasonOnDemand, []obs.Label{obs.L("remote", req.RemoteAddr)}, false)
		r.mu.Unlock()
		// Outside r.mu: a CPU window must not hold up the watchdog.
		b.Profiles = r.cfg.Profiles.Freeze(req.URL.Query().Get("cpu") == "1")
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			`attachment; filename="`+b.stem()+`.json"`)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(b)
	})
}
