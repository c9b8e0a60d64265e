package reldb

// Replication surface (ROADMAP item 2, second half): the pieces a log-
// shipping layer needs to ship this database's generation-stamped,
// CRC-framed WAL to read replicas without reaching into wal internals.
// A primary exports a point-in-time state (ExportState) plus the WAL
// position it corresponds to; a WALReader then streams every frame
// appended after that position, tolerating the torn final frame a
// concurrent writer leaves mid-append; a replica folds shipped frames
// into its own instance with ApplyFrame, which validates the whole frame
// before mutating so a truncated or corrupted frame can never apply
// partially. Divergence is therefore always detectable (CRC or decode
// failure) and the replication layer answers it with a snapshot re-sync,
// never a silent fork.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"path/filepath"
	"slices"

	"repro/internal/vfs"
)

// Replication errors. ErrTornFrame is retryable: the writer is mid-append
// and the frame will complete (or be truncated away) shortly.
// ErrCorruptFrame is terminal for the cursor position: the bytes at this
// offset will never parse, so the reader must re-sync from a snapshot.
var (
	// ErrNoWAL reports a replication call on an in-memory database, which
	// has no log to ship.
	ErrNoWAL = errors.New("reldb: in-memory database has no WAL to replicate")
	// ErrTornFrame reports a frame that has started but is not fully on
	// disk yet — retry after the writer makes progress.
	ErrTornFrame = errors.New("reldb: torn frame at wal tail")
	// ErrCorruptFrame reports a frame that is complete on disk but fails
	// its CRC or decode, or carries an implausible length.
	ErrCorruptFrame = errors.New("reldb: corrupt wal frame")
)

// ReplFrame is one CRC-framed WAL batch as shipped to replicas: the raw
// frame bytes (8-byte length+CRC header plus payload) and the byte range
// it occupies in the log. Header marks the opGen frame at the head of the
// log; Gen carries its generation.
type ReplFrame struct {
	Raw    []byte
	Start  int64
	End    int64
	Header bool
	Gen    uint64
}

// WALReader is a read-only cursor over the WAL file, safe to run beside a
// live writer: reads go through the same vfs.FS seam as the writer, and a
// frame is returned only once it is fully within the file's current size.
// The torn-tail tolerance crash recovery applies once at Open is thus
// available continuously, while the writer is mid-append.
type WALReader struct {
	fs     vfs.FS
	path   string
	f      vfs.File
	offset int64
}

// OpenWALReader builds a reader over the WAL in dir. The file is opened
// lazily on the first read, so a reader over a not-yet-created log simply
// reports io.EOF until the writer arrives.
func OpenWALReader(fsys vfs.FS, dir string) *WALReader {
	if fsys == nil {
		fsys = vfs.OS()
	}
	return &WALReader{fs: fsys, path: filepath.Join(dir, walFileName)}
}

// Offset reports the cursor position (the Start of the next frame).
func (r *WALReader) Offset() int64 { return r.offset }

// SeekTo moves the cursor to a frame boundary previously returned as a
// ReplFrame End (or 0 for the head of the log).
func (r *WALReader) SeekTo(offset int64) { r.offset = offset }

// Close releases the underlying file handle, if one is open.
func (r *WALReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// dropHandle closes and forgets the handle after an I/O error so the next
// call reopens cleanly (the file may have been replaced under us).
func (r *WALReader) dropHandle() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// Next returns the frame starting at the cursor and advances past it.
// io.EOF means no frame starts here (clean end of log); ErrTornFrame
// means a frame has started but its bytes are not all on disk yet (the
// writer is mid-append — retry); ErrCorruptFrame means the bytes at this
// offset will never parse (CRC failure on a complete frame, implausible
// length, or the log shrank below the cursor) and the caller must
// re-sync. The size check makes the torn/corrupt distinction sound: the
// writer appends strictly in order, so a frame fully inside the current
// size has every byte visible.
func (r *WALReader) Next() (ReplFrame, error) {
	fi, err := r.fs.Stat(r.path)
	if errors.Is(err, iofs.ErrNotExist) {
		return ReplFrame{}, io.EOF
	}
	if err != nil {
		return ReplFrame{}, err
	}
	size := fi.Size()
	if size < r.offset {
		// The log was truncated below the cursor: a checkpoint reset it.
		return ReplFrame{}, fmt.Errorf("%w: log shrank to %d below offset %d", ErrCorruptFrame, size, r.offset)
	}
	if size == r.offset {
		return ReplFrame{}, io.EOF
	}
	if size-r.offset < 8 {
		return ReplFrame{}, ErrTornFrame
	}
	if r.f == nil {
		f, err := vfs.Open(r.fs, r.path)
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				return ReplFrame{}, io.EOF
			}
			return ReplFrame{}, err
		}
		r.f = f
	}
	if _, err := r.f.Seek(r.offset, io.SeekStart); err != nil {
		r.dropHandle()
		return ReplFrame{}, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r.f, hdr[:]); err != nil {
		r.dropHandle()
		return ReplFrame{}, ErrTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > 1<<30 {
		return ReplFrame{}, fmt.Errorf("%w: implausible frame length %d at offset %d", ErrCorruptFrame, n, r.offset)
	}
	end := r.offset + 8 + int64(n)
	if end > size {
		return ReplFrame{}, ErrTornFrame
	}
	raw := make([]byte, 8+int(n))
	copy(raw, hdr[:])
	if _, err := io.ReadFull(r.f, raw[8:]); err != nil {
		r.dropHandle()
		return ReplFrame{}, ErrTornFrame
	}
	if crc32.ChecksumIEEE(raw[8:]) != want {
		return ReplFrame{}, fmt.Errorf("%w: crc mismatch at offset %d", ErrCorruptFrame, r.offset)
	}
	fr := ReplFrame{Raw: raw, Start: r.offset, End: end}
	if r.offset == 0 {
		// Only the head of the log may carry the generation frame.
		if rec, err := decodeRecord(bytes.NewReader(raw[8:])); err == nil && rec.Op == opGen {
			fr.Header = true
			fr.Gen = uint64(rec.RowID)
		}
	}
	r.offset = end
	return fr, nil
}

// StateExport is a point-in-time copy of the full logical state plus the
// WAL position it corresponds to: a replica that applies Frames and then
// tails the log from (Gen, WALOffset) holds exactly the primary's state.
type StateExport struct {
	Gen       uint64
	WALOffset int64
	// Frames holds the state as CRC-framed record batches, each ready for
	// ApplyFrame on a fresh instance.
	Frames [][]byte
}

// exportFrameSize bounds the payload of one exported state frame; each
// frame applies atomically on the replica, so the bound also caps the
// replica's per-commit batch during bootstrap.
const exportFrameSize = 64 << 10

// frameBytes wraps one payload in the WAL frame format (length + CRC
// header), producing bytes ApplyFrame and crash recovery both accept.
func frameBytes(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// ExportState snapshots the database for replica bootstrap: the current
// generation, the WAL offset a tailer must resume from, and the full
// logical state as framed record batches. The offset is exact — appends
// flush to the file under the writer lock this method shares, so the
// file size at read time is precisely the committed log length.
func (db *DB) ExportState() (*StateExport, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return nil, ErrNoWAL
	}
	off, err := db.wal.size()
	if err != nil {
		return nil, fmt.Errorf("reldb: stat wal for export: %w", err)
	}
	ex := &StateExport{Gen: db.gen, WALOffset: off}
	var payload bytes.Buffer
	flush := func() {
		if payload.Len() == 0 {
			return
		}
		ex.Frames = append(ex.Frames, frameBytes(payload.Bytes()))
		payload.Reset()
	}
	err = db.writeStateLocked(func(r walRecord) error {
		payload.Write(encodeRecord(r))
		if payload.Len() >= exportFrameSize {
			flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flush()
	return ex, nil
}

// ApplyFrame applies one replicated frame (raw WAL frame bytes, as
// produced by ExportState or read by a WALReader) as a single atomic
// commit, and reports the tables its records touched, in first-touch
// order, so a replica can tell which derived views the frame invalidated.
// The frame is CRC-checked and fully decoded before any mutation, so a
// truncated or corrupted frame returns ErrCorruptFrame and leaves the
// database untouched. A mid-batch apply failure (possible only when the
// frame disagrees with the replica's state — i.e. the replica has already
// diverged) returns an error; callers must treat it as divergence and
// re-sync from a snapshot.
func (db *DB) ApplyFrame(raw []byte) ([]string, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("%w: short frame (%d bytes)", ErrCorruptFrame, len(raw))
	}
	n := binary.LittleEndian.Uint32(raw[0:4])
	if int64(n) != int64(len(raw)-8) {
		return nil, fmt.Errorf("%w: frame length %d does not match %d payload bytes", ErrCorruptFrame, n, len(raw)-8)
	}
	if crc32.ChecksumIEEE(raw[8:]) != binary.LittleEndian.Uint32(raw[4:8]) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorruptFrame)
	}
	var recs []walRecord
	var tables []string
	br := bytes.NewReader(raw[8:])
	for br.Len() > 0 {
		rec, err := decodeRecord(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorruptFrame, err)
		}
		if rec.Op == opGen {
			return nil, fmt.Errorf("%w: generation record in replicated frame", ErrCorruptFrame)
		}
		recs = append(recs, rec)
		name := rec.Table
		if rec.Schema != nil {
			name = rec.Schema.Name
		}
		if !slices.Contains(tables, name) {
			tables = append(tables, name)
		}
	}
	err := db.commit(func() error {
		for _, rec := range recs {
			if err := db.applyRecord(rec); err != nil {
				return fmt.Errorf("reldb: apply replicated record: %w", err)
			}
		}
		return db.logRecords(recs...)
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// Generation reports the current snapshot generation.
func (db *DB) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Dir reports the database directory ("" for in-memory databases).
func (db *DB) Dir() string { return db.dir }

// FS reports the filesystem the database performs its I/O through.
func (db *DB) FS() vfs.FS { return db.fs }

// ResetDir removes the database files in dir so a replica can bootstrap
// from scratch into it. Missing files are fine; dir itself is kept.
func ResetDir(fsys vfs.FS, dir string) error {
	if fsys == nil {
		fsys = vfs.OS()
	}
	for _, name := range []string{walFileName, snapshotFileName, snapshotTmpFileName} {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return fmt.Errorf("reldb: reset %s: %w", name, err)
		}
	}
	return nil
}
