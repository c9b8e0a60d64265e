package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The wall-clock columns of the output: the feasibility table's ms/bundle
// and the per-engine durations.
var (
	msPerBundle = regexp.MustCompile(`(?m)^(.{42}) +[0-9]+\.[0-9]{4} `)
	duration    = regexp.MustCompile(` +[0-9][0-9.hm]*(ns|µs|ms|s)\b`)
)

// TestSmallAllGolden runs `experiments -small -all` and compares its
// output, wall-clock columns masked, with testdata/small_all.golden.
func TestSmallAllGolden(t *testing.T) {
	checkGolden(t, "testdata/small_all.golden", "-small", "-all")
}

// checkGolden runs the experiments with args and compares their output,
// wall-clock columns masked, with the golden file.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	run(&out, args)
	got := msPerBundle.ReplaceAllString(out.String(), "$1 <ms/bundle> ")
	got = duration.ReplaceAllString(got, " <duration>")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("output has %d lines, golden %d", len(g), len(w))
}
