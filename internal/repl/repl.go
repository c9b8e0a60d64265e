// Package repl is the WAL-shipping replication layer (ROADMAP item 2,
// second half): it streams reldb's generation-stamped, CRC-framed
// write-ahead log from a primary to N read replicas, each applying
// records into its own reldb instance behind the vfs.FS seam. The paper's
// QUEST tool serves classification interactively from a relational store
// (§4.5.1); replicas give the sharded serving tier hedge and failover
// targets with bounded staleness.
//
// The contract is pull-based and divergence-intolerant. A replica
// bootstraps by streaming the primary's full state at generation n plus
// the WAL offset that state corresponds to, then tails the log with
// retry/backoff, resuming from its last-applied offset after link
// disconnects. Torn final frames are retried (the writer is mid-append);
// a generation mismatch (the primary checkpointed and reset its log) or
// any CRC/decode failure is answered with a full snapshot re-sync, never
// by guessing. A replica therefore always holds an exact prefix of the
// primary's history — possibly stale, never wrong.
package repl

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/reldb"
	"repro/internal/vfs"
)

// Re-sync errors: a replica receiving one must discard its tail position
// and bootstrap from a fresh snapshot.
var (
	// ErrGenMismatch reports that the primary's log no longer carries the
	// generation the replica is tailing (a checkpoint reset it).
	ErrGenMismatch = errors.New("repl: wal generation mismatch")
	// ErrCorrupt reports a frame that can never parse at the replica's
	// offset — link-level truncation or on-disk corruption.
	ErrCorrupt = errors.New("repl: corrupt wal frame")
)

// NeedsResync reports whether err demands a snapshot re-sync rather than
// a retry at the same offset.
func NeedsResync(err error) bool {
	return errors.Is(err, ErrGenMismatch) || errors.Is(err, ErrCorrupt)
}

// Frame is one shipped WAL frame: the raw CRC-framed bytes plus the
// primary log offset just past it (the replica's resume point once the
// frame is applied).
type Frame struct {
	Raw []byte
	End int64
}

// Snapshot is the bootstrap payload: the primary's full logical state as
// framed record batches, the generation it belongs to, and the WAL offset
// a tailer must resume from to extend it.
type Snapshot struct {
	Gen       uint64
	WALOffset int64
	Frames    [][]byte
}

// Link is the transport a replica pulls from. Implementations must be
// safe for concurrent use (several replicas may share one link source);
// internal/faults wraps a Link with deterministic drop/delay/truncate/
// wedge faults for the chaos matrix.
type Link interface {
	// Snapshot streams the primary's current full state.
	Snapshot(ctx context.Context) (*Snapshot, error)
	// ReadWAL returns up to max complete frames of generation gen starting
	// at byte offset (max <= 0 selects DefaultMaxBatch). An empty result
	// with nil error means the replica is caught up. ErrGenMismatch and
	// ErrCorrupt demand a re-sync; any other error is a link fault the
	// replica retries at the same offset.
	ReadWAL(ctx context.Context, gen uint64, offset int64, max int) ([]Frame, error)
}

// DefaultMaxBatch bounds the frames one ReadWAL call ships.
const DefaultMaxBatch = 256

// Primary serves the Link interface over a local durable reldb instance,
// reading the live WAL through the same vfs.FS the writer appends
// through. It holds no state of its own: every ReadWAL re-verifies the
// log's head generation, so a checkpoint between polls surfaces as
// ErrGenMismatch on the next poll.
type Primary struct {
	db  *reldb.DB
	fs  vfs.FS
	dir string
}

// NewPrimary wraps db (which must be durable — an in-memory database has
// no log to ship) as a replication source.
func NewPrimary(db *reldb.DB) (*Primary, error) {
	if db.Dir() == "" {
		return nil, reldb.ErrNoWAL
	}
	return &Primary{db: db, fs: db.FS(), dir: db.Dir()}, nil
}

// DB returns the primary's underlying database (digest checks, tests).
func (p *Primary) DB() *reldb.DB { return p.db }

// Snapshot implements Link.
func (p *Primary) Snapshot(ctx context.Context) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex, err := p.db.ExportState()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Gen: ex.Gen, WALOffset: ex.WALOffset, Frames: ex.Frames}, nil
}

// ReadWAL implements Link. Every call re-reads the head generation frame
// (a few dozen bytes) before shipping: the log only ever grows within a
// generation, so a matching head proves the replica's offset still
// addresses the same byte stream. A torn tail ends the batch without
// error — the writer is mid-append and the next poll picks the frame up.
func (p *Primary) ReadWAL(ctx context.Context, gen uint64, offset int64, max int) ([]Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if max <= 0 {
		max = DefaultMaxBatch
	}
	r := reldb.OpenWALReader(p.fs, p.dir)
	defer r.Close()

	head, err := r.Next()
	switch {
	case errors.Is(err, io.EOF), errors.Is(err, reldb.ErrTornFrame):
		// The log is empty (or its header is mid-write). A replica with a
		// nonzero offset tailed bytes that no longer exist: re-sync.
		if offset == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: log reset under replica at offset %d", ErrGenMismatch, offset)
	case errors.Is(err, reldb.ErrCorruptFrame):
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	case err != nil:
		return nil, err
	}
	headGen := uint64(0)
	if head.Header {
		headGen = head.Gen
	}
	if headGen != gen {
		return nil, fmt.Errorf("%w: log is generation %d, replica tails %d", ErrGenMismatch, headGen, gen)
	}

	r.SeekTo(offset)
	var out []Frame
	for len(out) < max {
		fr, err := r.Next()
		switch {
		case errors.Is(err, io.EOF), errors.Is(err, reldb.ErrTornFrame):
			return out, nil
		case errors.Is(err, reldb.ErrCorruptFrame):
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		case err != nil:
			return nil, err
		}
		if fr.Header {
			continue // the replica's snapshot already covers this generation
		}
		out = append(out, Frame{Raw: fr.Raw, End: fr.End})
	}
	return out, nil
}
