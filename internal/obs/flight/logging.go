package flight

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// NewLogging assembles the command-line logging stack shared by questd
// and qatk: severity parsed from the -log-level flag value, the
// destination from -log-file (stderr when empty; opened append-only so
// restarts never truncate history), and an obs.RingSink in between so
// (a) the flight recorder retains the newest lines for its diagnostic
// bundles and (b) a wedged destination drops-and-counts instead of
// stalling the caller. The returned func closes the sink and, when one
// was opened, the destination file.
func NewLogging(level, file string) (*obs.Logger, *obs.RingSink, func(), error) {
	lvl, err := obs.ParseLevel(level)
	if err != nil {
		return nil, nil, nil, err
	}
	var w io.Writer = os.Stderr
	cleanup := func() {}
	if file != "" {
		f, err := os.OpenFile(file, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("flight: open log file: %w", err)
		}
		w = f
		cleanup = func() { f.Close() }
	}
	sink := obs.NewRingSink(w, LogLines)
	closeAll := func() { sink.Close(); cleanup() }
	return obs.NewLogger(sink, lvl), sink, closeAll, nil
}
