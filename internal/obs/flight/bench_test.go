package flight

import (
	"io"
	"testing"

	"repro/internal/obs"
)

// BenchmarkGuardBeatDisabled is the pipeline per-document heartbeat with
// recording off — a nil check only.
func BenchmarkGuardBeatDisabled(b *testing.B) {
	var r *Recorder
	g := r.Guard("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Beat()
	}
}

// BenchmarkGuardBeatEnabled is the armed heartbeat: a clock read and two
// atomic stores.
func BenchmarkGuardBeatEnabled(b *testing.B) {
	r := New(Config{Logger: obs.NewLogger(io.Discard, obs.LevelError)})
	defer r.Close()
	g := r.Guard("bench")
	defer g.Stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Beat()
	}
}
