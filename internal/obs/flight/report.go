package flight

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/prof"
	"repro/internal/obs/reqlog"
)

// WriteReport pretty-prints a bundle as a human-readable incident report:
// header (when, why, where), runtime vitals, subsystem state, what moved
// in the metrics, the slowest span families, the retained requests, the
// continuous profile, the log tail, and the goroutine dump. Long sections
// show their largest or newest entries; verbose shows all of them. This
// is the read side of the flight recorder — `qatk diagnose`.
func WriteReport(w io.Writer, b *Bundle, verbose bool) error {
	if b == nil {
		return fmt.Errorf("flight: nil bundle")
	}
	p := &printer{w: w, verbose: verbose}

	p.head("INCIDENT REPORT — %s", strings.ToUpper(b.Reason))
	p.kv("captured", b.Time.UTC().Format(time.RFC3339))
	p.kv("schema", fmt.Sprintf("%d", b.Schema))
	if b.Build.Version != "" || b.Build.GoVersion != "" {
		p.kv("build", strings.TrimSpace(b.Build.Version+" "+b.Build.GoVersion))
	}
	if b.Build.Revision != "" {
		rev := b.Build.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if b.Build.Modified {
			rev += " (dirty)"
		}
		p.kv("revision", rev)
	}
	p.fields(b.Details)

	p.head("RUNTIME")
	p.kv("goroutines", fmt.Sprintf("%d", b.Goroutines))
	p.kv("heap_alloc", byteSize(b.MemStats.HeapAllocBytes))
	p.kv("heap_objects", fmt.Sprintf("%d", b.MemStats.HeapObjects))
	p.kv("sys", byteSize(b.MemStats.SysBytes))
	p.kv("gc_cycles", fmt.Sprintf("%d", b.MemStats.NumGC))
	p.kv("gc_pause_total", time.Duration(b.MemStats.PauseTotalNs).String())
	if b.DroppedLogs > 0 {
		p.kv("dropped_log_lines", fmt.Sprintf("%d (log destination could not keep up)", b.DroppedLogs))
	}

	names := make([]string, 0, len(b.Extras))
	for n := range b.Extras {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p.head("SUBSYSTEM %s", strings.ToUpper(n))
		p.fields(b.Extras[n])
	}

	if deltas := b.Deltas(); len(deltas) > 0 {
		window := b.Metrics[len(b.Metrics)-1].Time.Sub(b.Metrics[0].Time)
		p.head("METRIC MOVEMENT (over %s, %d captures)", window, len(b.Metrics))
		// Largest absolute movement first; the long tail only with -v.
		sort.SliceStable(deltas, func(i, j int) bool {
			di, dj := deltas[i].Delta, deltas[j].Delta
			if di < 0 {
				di = -di
			}
			if dj < 0 {
				dj = -dj
			}
			return di > dj
		})
		n := p.shown(len(deltas), 20)
		for _, d := range deltas[:n] {
			p.line("  %+12g  %s (now %g)", d.Delta, d.Series, d.Now)
		}
		p.more(len(deltas)-n, "series moved")
	} else if len(b.Metrics) > 0 {
		p.head("METRIC MOVEMENT")
		p.line("  single capture only — no deltas to show")
	}

	if len(b.SpanStats) > 0 {
		p.head("SPANS BY TOTAL TIME")
		n := p.shown(len(b.SpanStats), 10)
		for _, s := range b.SpanStats[:n] {
			avg := time.Duration(0)
			if s.Count > 0 {
				avg = s.Total / time.Duration(s.Count)
			}
			errs := ""
			if s.Errors > 0 {
				errs = fmt.Sprintf("  errors=%d", s.Errors)
			}
			p.line("  %-40s total=%-12s count=%-6d avg=%s%s", s.Name, s.Total, s.Count, avg, errs)
		}
		p.more(len(b.SpanStats)-n, "span families")
	}

	if len(b.Requests) > 0 {
		p.head("REQUESTS (%d retained, newest first)", len(b.Requests))
		n := p.shown(len(b.Requests), 10)
		for i, ev := range b.Requests[:n] {
			if i > 0 {
				p.line("")
			}
			p.event(ev)
		}
		p.more(len(b.Requests)-n, "older requests")
	}

	if b.Profiles != nil {
		p.profiles(b.Profiles)
	}

	if len(b.Logs) > 0 {
		p.head("LOG TAIL (%d lines retained)", len(b.Logs))
		n := p.shown(len(b.Logs), 25)
		if n < len(b.Logs) {
			p.line("  … %d earlier lines (rerun with -v)", len(b.Logs)-n)
		}
		for _, line := range b.Logs[len(b.Logs)-n:] {
			p.line("  %s", line)
		}
	}

	if verbose && len(b.Spans) > 0 {
		p.head("RECENT SPANS (%d buffered)", len(b.Spans))
		for _, s := range b.Spans {
			status := "ok"
			if s.Err != "" {
				status = "ERR " + s.Err
			}
			p.line("  %s %-40s %-12s %s", s.Start.UTC().Format("15:04:05.000"), s.Name, s.Duration, status)
		}
	}

	if verbose && b.GoroutineDump != "" {
		p.head("GOROUTINE DUMP")
		p.line("%s", strings.TrimRight(b.GoroutineDump, "\n"))
	} else if b.GoroutineDump != "" {
		p.head("GOROUTINE DUMP")
		p.line("  %d bytes captured — rerun with -v to print", len(b.GoroutineDump))
	}

	p.line("")
	return p.err
}

// event renders one wide event as a block: the request line with its
// trace ID and retention reasons (so grep finds events by reason), then
// the query, outcome flags, stage breakdown and per-shard attempts.
func (p *printer) event(ev reqlog.Event) {
	p.line("  %s %s -> %d in %s  trace=%s  [%s]",
		ev.Method, ev.Route, ev.Status, fmtDur(ev.Duration),
		ev.TraceID, strings.Join(ev.Reasons, ","))
	if !ev.Start.IsZero() {
		p.line("    at %s", ev.Start.UTC().Format(time.RFC3339Nano))
	}
	if ev.Part != "" {
		p.line("    query part=%s features=%d", ev.Part, ev.Features)
	}
	var flags []string
	if ev.Degraded {
		flags = append(flags, "degraded")
	}
	if ev.Scatter {
		flags = append(flags, "scatter")
	}
	if ev.Hedged {
		flags = append(flags, "hedged")
	}
	if ev.Replica {
		flags = append(flags, "replica")
	}
	if ev.Stale {
		flags = append(flags, "stale")
	}
	if len(ev.FailedShards) > 0 {
		flags = append(flags, "failed_shards="+intList(ev.FailedShards))
	}
	if len(ev.BreakerTrips) > 0 {
		flags = append(flags, "breaker_trips="+intList(ev.BreakerTrips))
	}
	if ev.Panic != "" {
		flags = append(flags, "panic="+ev.Panic)
	}
	if len(flags) > 0 {
		p.line("    outcome %s", strings.Join(flags, " "))
	}
	if len(ev.Stages) > 0 {
		parts := make([]string, 0, len(ev.Stages))
		for _, st := range ev.Stages {
			parts = append(parts, st.Name+"="+fmtDur(st.Duration))
		}
		p.line("    stages %s", strings.Join(parts, " "))
	}
	for _, a := range ev.Shards {
		role := "primary"
		if a.Hedged || a.Attempt > 1 {
			role = "hedge"
		}
		if a.Attempt == 0 {
			role = "rejected"
		}
		if a.Replica != "" {
			role = "replica=" + a.Replica
		}
		line := fmt.Sprintf("    shard %d %s %s", a.Shard, role, fmtDur(a.Duration))
		if a.Winner {
			line += " winner"
		}
		if a.Breaker != "" {
			line += " breaker=" + a.Breaker
		}
		if a.Deadline > 0 {
			line += " deadline=" + fmtDur(a.Deadline)
		}
		if a.Err != "" {
			line += " err=" + a.Err
		}
		p.line("%s", line)
	}
}

// profiles renders the frozen profiler ring: goroutine growth across
// the ring, the newest window's heap deltas, the newest snapshot's top
// frames per profile, and, verbose, the ring history.
func (p *printer) profiles(c *prof.Capture) {
	var span time.Duration
	if n := len(c.Ring); n > 0 {
		span = c.Ring[n-1].Time.Sub(c.Ring[0].Time).Round(time.Millisecond)
	}
	p.head("CONTINUOUS PROFILE — %d snapshots over %s", len(c.Ring), span)
	p.kv("cpu_window", time.Duration(c.WindowNs).String())
	if len(c.BreachCPU) > 0 {
		p.kv("breach_cpu", fmt.Sprintf("%d bytes (extract with `qatk diagnose -cpu out.pprof`, then `go tool pprof out.pprof`)", len(c.BreachCPU)))
	}
	if len(c.Ring) == 0 {
		p.line("  the sampler has not completed a snapshot yet")
		return
	}
	last := &c.Ring[len(c.Ring)-1]
	p.kv("newest", last.Time.UTC().Format(time.RFC3339))
	if len(last.CPUPprof) > 0 {
		p.kv("newest_cpu", fmt.Sprintf("%d bytes raw pprof", len(last.CPUPprof)))
	}

	p.head("GOROUTINE GROWTH")
	for i := range c.Ring {
		s := &c.Ring[i]
		marker := ""
		if i > 0 {
			if d := s.Goroutines - c.Ring[i-1].Goroutines; d != 0 {
				marker = fmt.Sprintf("  (%+d)", d)
			}
		}
		p.line("  %s  %6d goroutines%s", s.Time.UTC().Format("15:04:05"), s.Goroutines, marker)
	}

	p.head("HEAP DELTA (newest window)")
	if len(last.HeapDelta) == 0 {
		p.line("  no movement between the last two snapshots")
	}
	for _, d := range last.HeapDelta {
		sign := ""
		if d.DeltaBytes >= 0 {
			sign = "+"
		}
		p.line("  %12s  %+6d objs  %s (now %s)",
			sign+byteSize(d.DeltaBytes), d.DeltaValue, d.Func, byteSize(d.NowBytes))
	}

	p.topFrames("HEAP IN-USE (top frames)", &last.Heap, true)
	p.topFrames("GOROUTINES (top frames)", &last.Goroutine, false)

	if p.verbose && len(c.Ring) > 1 {
		p.head("RING HISTORY")
		for i := range c.Ring {
			s := &c.Ring[i]
			p.line("  %s  heap %s in %d objs, %d goroutines, cpu %d bytes",
				s.Time.UTC().Format(time.RFC3339), byteSize(s.Heap.TotalBytes),
				s.Heap.Total, s.Goroutines, len(s.CPUPprof))
		}
	}
}

// topFrames renders one profile summary's top frames; heap shows bytes.
func (p *printer) topFrames(title string, s *prof.ProfileSummary, heap bool) {
	if len(s.Top) == 0 {
		return
	}
	p.head("%s", title)
	if heap {
		p.kv("total", fmt.Sprintf("%s in %d objects", byteSize(s.TotalBytes), s.Total))
	} else {
		p.kv("total", fmt.Sprintf("%d", s.Total))
	}
	for _, f := range s.Top {
		if heap {
			p.line("  %12s  %8d objs  %s", byteSize(f.Bytes), f.Value, f.Func)
		} else {
			p.line("  %12d  %s", f.Value, f.Func)
		}
	}
}

// printer accumulates the first write error so report code stays linear.
type printer struct {
	w       io.Writer
	verbose bool
	err     error
}

func (p *printer) line(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format+"\n", args...)
}

func (p *printer) head(format string, args ...any) {
	p.line("")
	p.line("== "+format+" ==", args...)
}

func (p *printer) kv(k, v string) { p.line("  %-20s %s", k, v) }

// fields renders a string map as key-value lines in key order.
func (p *printer) fields(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.kv(k, m[k])
	}
}

// shown is how many of a section's n entries to print: at most limit,
// or all of them when verbose.
func (p *printer) shown(n, limit int) int {
	if p.verbose || n <= limit {
		return n
	}
	return limit
}

// more notes the entries a section left out.
func (p *printer) more(left int, what string) {
	if left > 0 {
		p.line("  … %d more %s (rerun with -v)", left, what)
	}
}

// byteSize renders a byte count with a binary unit. Counts come from
// outside input — a bundle file or a /debug/bundle response — so it
// renders every value of either type, -1<<63 included.
func byteSize[T int64 | uint64](n T) string {
	sign, u := "", uint64(n)
	if n < 0 {
		sign, u = "-", -u
	}
	const unit = 1024
	if u < unit {
		return fmt.Sprintf("%s%d B", sign, u)
	}
	div, exp := uint64(unit), 0
	for m := u / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%s%.1f %ciB", sign, float64(u)/float64(div), "KMGTPE"[exp])
}

// fmtDur renders a duration rounded to microseconds for readability.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// intList renders a comma-separated int list.
func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
