package flight

import (
	"strings"
	"testing"
	"time"
)

// TestReplicaLagWatchTriggersAfterConsecutiveTicks: the replica-lag hard
// trigger fires only after K consecutive breaching watchdog passes, any
// within-bound pass resets the streak, and the streak re-arms after
// firing — all driven deterministically through the injected clock.
func TestReplicaLagWatchTriggersAfterConsecutiveTicks(t *testing.T) {
	var lag time.Duration
	r, clock, _, dir := newTestRecorder(t, nil)
	r.WatchReplicaLag(func() (time.Duration, string) { return lag, "r1" }, 100*time.Millisecond, 3)

	// Healthy replica: ticks never fire.
	lag = 10 * time.Millisecond
	for i := 0; i < 5; i++ {
		r.Tick(clock.Advance(time.Second))
	}
	if got := listBundles(t, dir); len(got) != 0 {
		t.Fatalf("bundles under healthy lag = %v, want none", got)
	}

	// Two breaching ticks, then recovery: the streak resets.
	lag = time.Second
	r.Tick(clock.Advance(time.Second))
	r.Tick(clock.Advance(time.Second))
	lag = 0
	r.Tick(clock.Advance(time.Second))
	lag = time.Second
	r.Tick(clock.Advance(time.Second))
	r.Tick(clock.Advance(time.Second))
	if got := listBundles(t, dir); len(got) != 0 {
		t.Fatalf("bundles before K consecutive breaches = %v, want none", got)
	}

	// The third consecutive breach fires.
	r.Tick(clock.Advance(time.Second))
	got := listBundles(t, dir)
	if len(got) != 1 || !strings.HasSuffix(got[0], "-replica_lag.json") {
		t.Fatalf("bundles = %v, want one replica_lag", got)
	}

	// Firing reset the streak: the next trigger needs K fresh breaches.
	r.Tick(clock.Advance(time.Second))
	r.Tick(clock.Advance(time.Second))
	if got := listBundles(t, dir); len(got) != 1 {
		t.Fatalf("bundles two ticks after firing = %v, want still 1", got)
	}
	r.Tick(clock.Advance(time.Second))
	if got := listBundles(t, dir); len(got) != 2 {
		t.Fatalf("bundles after re-breach = %v, want 2", got)
	}
}

// TestReplicaLagWatchDisabled: nil recorder, nil fn, and non-positive max
// are all inert.
func TestReplicaLagWatchDisabled(t *testing.T) {
	var nilR *Recorder
	nilR.WatchReplicaLag(func() (time.Duration, string) { return time.Hour, "r" }, time.Second, 1)
	nilR.Tick(time.Unix(0, 0))

	r, clock, _, dir := newTestRecorder(t, nil)
	r.WatchReplicaLag(nil, time.Second, 1)
	r.WatchReplicaLag(func() (time.Duration, string) { return time.Hour, "r" }, 0, 1)
	for i := 0; i < 3; i++ {
		r.Tick(clock.Advance(time.Second))
	}
	if got := listBundles(t, dir); len(got) != 0 {
		t.Fatalf("bundles from disabled watches = %v, want none", got)
	}
}
