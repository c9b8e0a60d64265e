package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/obs/prof"
	"repro/internal/obs/reqlog"
)

// TestDiagnose runs `qatk diagnose` against the recorder's handler mounted
// where questd mounts it, and against a bundle file the same recorder
// wrote: both reports carry the requests section and the continuous
// profile, and -cpu writes a fresh CPU window from the URL.
func TestDiagnose(t *testing.T) {
	requests := reqlog.New(reqlog.Config{SampleAll: true})
	requests.Begin("GET", "/api/recommend").Finish(200, 42, 3*time.Millisecond)
	sampler := prof.New(prof.Config{
		CaptureCPU: func(time.Duration) ([]byte, error) { return []byte("cpu-pprof-gz"), nil },
		Profile: func(name string) ([]prof.Sample, error) {
			if name == "goroutine" {
				return []prof.Sample{{Stack: []string{"main.main"}, Value: 3}}, nil
			}
			return nil, nil
		},
	})
	t.Cleanup(sampler.Close)
	sampler.SampleNow()
	flightDir := t.TempDir()
	recorder := flight.New(flight.Config{Dir: flightDir, Requests: requests, Profiles: sampler})
	t.Cleanup(recorder.Close)
	mux := http.NewServeMux()
	mux.Handle("/debug/bundle", recorder.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	wants := []string{
		"== REQUESTS (1 retained, newest first) ==",
		"GET /api/recommend -> 200 in 3ms  trace=" + reqlog.TraceIDString(42) + "  [always]",
		"== CONTINUOUS PROFILE — 1 snapshots",
		"== GOROUTINES (top frames) ==",
	}
	cpuOut := filepath.Join(t.TempDir(), "out.pprof")
	var report bytes.Buffer
	if err := diagnose([]string{"-cpu", cpuOut, srv.URL}, &report, fetchTimeout); err != nil {
		t.Fatal(err)
	}
	for _, want := range append(wants, "INCIDENT REPORT — ON_DEMAND", "breach_cpu") {
		if !strings.Contains(report.String(), want) {
			t.Errorf("URL report missing %q:\n%s", want, report.String())
		}
	}
	if raw, err := os.ReadFile(cpuOut); err != nil || len(raw) == 0 {
		t.Fatalf("-cpu wrote %d bytes, err %v; want a profile", len(raw), err)
	}
	if entries, _ := os.ReadDir(flightDir); len(entries) != 0 {
		t.Fatalf("diagnosing the URL wrote %d entries to the flight dir", len(entries))
	}

	report.Reset()
	if err := diagnose([]string{recorder.Trigger(flight.ReasonPanic)}, &report, fetchTimeout); err != nil {
		t.Fatal(err)
	}
	for _, want := range append(wants, "INCIDENT REPORT — PANIC") {
		if !strings.Contains(report.String(), want) {
			t.Errorf("bundle file report missing %q:\n%s", want, report.String())
		}
	}
}

// TestDiagnoseTimesOut: a debug listener that accepts the connection and
// never answers makes diagnose fail once its timeout passes, instead of
// hanging.
func TestDiagnoseTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var held []net.Conn // open and unanswered until the test ends
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()

	start := time.Now()
	err = diagnose([]string{"http://" + ln.Addr().String()}, io.Discard, 100*time.Millisecond)
	if err == nil {
		t.Fatal("diagnose of a server that never answers succeeded")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("diagnose failed after %v, want about its 100ms timeout", took)
	}
}

// TestDiagnoseCPUWaitsOutServerWindow: a -cpu fetch from a server whose
// CPU window is longer than the fetch timeout still succeeds, because the
// deadline of the ?cpu=1 fetch covers the window the server reports.
func TestDiagnoseCPUWaitsOutServerWindow(t *testing.T) {
	const window = 200 * time.Millisecond
	sampler := prof.New(prof.Config{
		WindowSize: window,
		CaptureCPU: func(d time.Duration) ([]byte, error) {
			time.Sleep(d)
			return []byte("cpu-pprof-gz"), nil
		},
		Profile: func(string) ([]prof.Sample, error) { return nil, nil },
	})
	t.Cleanup(sampler.Close)
	recorder := flight.New(flight.Config{Profiles: sampler})
	t.Cleanup(recorder.Close)
	srv := httptest.NewServer(recorder.Handler())
	t.Cleanup(srv.Close)

	cpuOut := filepath.Join(t.TempDir(), "out.pprof")
	if err := diagnose([]string{"-cpu", cpuOut, srv.URL + "/debug/bundle"}, io.Discard, window/4); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(cpuOut); err != nil || string(raw) != "cpu-pprof-gz" {
		t.Fatalf("cpu profile = %q, %v", raw, err)
	}
}
