//go:build !race

package main

import "testing"

// TestPaperAllGolden runs `experiments -all` at paper scale and compares
// its output, wall-clock columns masked, with testdata/paper_all.golden.
// It pins the paper-scale answers, such as the extension's +385 concepts,
// that the small corpus cannot show. It takes about 25 s on two cores and
// several times that under the race detector, so race builds leave it
// out.
func TestPaperAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiments in -short mode")
	}
	checkGolden(t, "testdata/paper_all.golden", "-all")
}
