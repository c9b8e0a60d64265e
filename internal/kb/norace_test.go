//go:build !race

package kb_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
