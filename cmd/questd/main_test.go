package main

import (
	"net/http/httptest"
	"testing"

	"repro/internal/obs/flight"
)

// TestDebugMuxServesOneSurface: the debug listener answers the pprof
// index and /debug/bundle, and nothing under the retired /debug/requests
// and /debug/prof paths.
func TestDebugMuxServesOneSurface(t *testing.T) {
	recorder := flight.New(flight.Config{})
	t.Cleanup(recorder.Close)
	mux := debugMux(recorder)
	for _, c := range []struct {
		path string
		code int
	}{
		{"/debug/bundle", 200},
		{"/debug/pprof/", 200},
		{"/debug/requests", 404},
		{"/debug/requests?reason=slow&n=5", 404},
		{"/debug/prof", 404},
		{"/debug/prof?cpu=1", 404},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		if rec.Code != c.code {
			t.Errorf("GET %s = %d, want %d", c.path, rec.Code, c.code)
		}
	}
}
