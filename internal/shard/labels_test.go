package shard

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/kb"
)

// goroutineProfile renders the debug=1 goroutine profile, whose
// "# labels:" lines carry each goroutine's pprof labels.
func goroutineProfile() string {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return "goroutine profile: " + err.Error()
	}
	return buf.String()
}

// labeledReplica is a fakeReplica whose Store runs probe, which sees the
// replica attempt from inside its serving goroutine.
type labeledReplica struct {
	fakeReplica
	probe func()
}

func (l *labeledReplica) Store() *kb.Memory {
	l.probe()
	return l.fakeReplica.Store()
}

// TestAttemptsCarryPprofLabels: every attempt runs under the "shard" and
// "role" pprof labels, so CPU profiles attribute serving time per shard
// and show what hedges and replica reads cost. Each case profiles the
// goroutines while its attempt is inside the fault hook (or, for a
// replica, fetching the replica's store) and looks for the labels.
func TestAttemptsCarryPprofLabels(t *testing.T) {
	src := buildKB(5, 12, 10, 250)
	for _, role := range []string{"primary", "hedge", "replica"} {
		t.Run(role, func(t *testing.T) {
			// The probe runs on the winning attempt's goroutine, which
			// hands its answer to Query over a channel: reading dump after
			// Query returns is ordered after the write.
			var dump string
			probe := func() { dump = goroutineProfile() }
			r := newTestRouter(t, src, 1, func(cfg *Config) {
				switch role {
				case "primary":
					cfg.Hook = func(context.Context, int, int) error { probe(); return nil }
				case "hedge":
					cfg.HedgeAfter = time.Millisecond
					cfg.Hook = func(ctx context.Context, shard, attempt int) error {
						if attempt == 1 {
							return wedgePrimaries(ctx, shard, attempt)
						}
						probe()
						return nil
					}
				case "replica":
					cfg.HedgeAfter = time.Millisecond
					cfg.Hook = wedgePrimaries
					cfg.Replicas = []ReplicaTarget{&labeledReplica{
						fakeReplica: fakeReplica{id: "r0", ready: true, store: src},
						probe:       probe,
					}}
				}
			})
			if _, err := r.Query(context.Background(), "P004", []string{"f03", "f11"}); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(dump, "\n") {
				if strings.HasPrefix(line, "# labels:") &&
					strings.Contains(line, `"shard":"0"`) && strings.Contains(line, `"role":"`+role+`"`) {
					return
				}
			}
			t.Fatalf(`no goroutine labeled "shard":"0" "role":%q in the profile:\n%s`, role, dump)
		})
	}
}
