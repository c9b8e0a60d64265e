//go:build race

package kb_test

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of what is put back, so a warm call may allocate a new workspace.
const raceEnabled = true
