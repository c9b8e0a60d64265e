package reldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

func mustOpenDir(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return db
}

// drainFrames reads every complete frame currently in the log.
func drainFrames(t *testing.T, r *WALReader) []ReplFrame {
	t.Helper()
	var out []ReplFrame
	for {
		fr, err := r.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, ErrTornFrame) {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, fr)
	}
}

func TestWALReaderStreamsFrames(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	defer db.Close()
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Insert("parts", Row{nil, fmt.Sprintf("p%d", i), 1.0, true}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}

	r := OpenWALReader(nil, dir)
	defer r.Close()
	frames := drainFrames(t, r)
	// Generation header + create table + 5 inserts.
	if len(frames) != 7 {
		t.Fatalf("got %d frames, want 7", len(frames))
	}
	if !frames[0].Header || frames[0].Gen != db.Generation() {
		t.Fatalf("head frame = %+v, want header frame of gen %d", frames[0], db.Generation())
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Header {
			t.Fatalf("frame %d claims to be a header", i)
		}
		if frames[i].Start != frames[i-1].End {
			t.Fatalf("frame %d starts at %d, previous ended at %d", i, frames[i].Start, frames[i-1].End)
		}
	}

	// Applying every non-header frame to a fresh instance reproduces the
	// primary's state exactly, and each frame reports the one table it
	// touched (the create-table record names it through its schema).
	replica := mustOpenMem(t)
	for _, fr := range frames[1:] {
		tables, err := replica.ApplyFrame(fr.Raw)
		if err != nil {
			t.Fatalf("ApplyFrame: %v", err)
		}
		if len(tables) != 1 || tables[0] != "parts" {
			t.Fatalf("ApplyFrame touched %v, want [parts]", tables)
		}
	}
	want, err := db.StateDigest()
	if err != nil {
		t.Fatalf("StateDigest: %v", err)
	}
	got, err := replica.StateDigest()
	if err != nil {
		t.Fatalf("replica StateDigest: %v", err)
	}
	if got != want {
		t.Fatalf("replica digest %s != primary digest %s", got, want)
	}
}

// TestWALReaderToleratesTornTail is the satellite regression: a torn
// final frame (the writer mid-append) must read as retryable ErrTornFrame
// — not EOF, not corruption — and resolve into the complete frame once
// the writer finishes.
func TestWALReaderToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	defer db.Close()
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := db.Insert("parts", Row{nil, "whole", 1.0, true}); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	r := OpenWALReader(nil, dir)
	defer r.Close()
	complete := drainFrames(t, r)
	if len(complete) == 0 {
		t.Fatal("no complete frames before the torn tail")
	}

	// Hand-append a frame in three torn stages: partial header, full
	// header with partial payload, then the remainder.
	payload := encodeRecord(walRecord{Op: opInsert, Table: "parts", RowID: 99, Row: Row{int64(99), "torn", 2.0, false}})
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open wal for append: %v", err)
	}
	defer f.Close()

	expectTorn := func(stage string) {
		t.Helper()
		if _, err := r.Next(); !errors.Is(err, ErrTornFrame) {
			t.Fatalf("%s: Next err = %v, want ErrTornFrame", stage, err)
		}
	}
	if _, err := f.Write(hdr[:3]); err != nil {
		t.Fatalf("write partial header: %v", err)
	}
	expectTorn("3-byte header")
	if _, err := f.Write(hdr[3:]); err != nil {
		t.Fatalf("write rest of header: %v", err)
	}
	expectTorn("header only")
	if _, err := f.Write(payload[:len(payload)/2]); err != nil {
		t.Fatalf("write half payload: %v", err)
	}
	expectTorn("half payload")
	if _, err := f.Write(payload[len(payload)/2:]); err != nil {
		t.Fatalf("write rest of payload: %v", err)
	}
	fr, err := r.Next()
	if err != nil {
		t.Fatalf("Next after frame completed: %v", err)
	}
	if fr.Start != complete[len(complete)-1].End || int(fr.End-fr.Start) != 8+len(payload) {
		t.Fatalf("completed frame range [%d,%d), want [%d,%d)", fr.Start, fr.End,
			complete[len(complete)-1].End, complete[len(complete)-1].End+int64(8+len(payload)))
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next at clean end = %v, want io.EOF", err)
	}
}

// TestWALReaderConcurrentAppender runs the reader beside a live writer
// (the -race proof of the satellite fix): every committed insert must
// arrive as a complete frame, in order, with no torn read ever surfacing
// as corruption.
func TestWALReaderConcurrentAppender(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	defer db.Close()
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}

	const inserts = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < inserts; i++ {
			if _, err := db.Insert("parts", Row{nil, fmt.Sprintf("p%d", i), float64(i), true}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	r := OpenWALReader(nil, dir)
	defer r.Close()
	replica := mustOpenMem(t)
	applied := 0
	writerDone := false
	for {
		fr, err := r.Next()
		switch {
		case err == nil:
			if fr.Header {
				continue
			}
			if _, err := replica.ApplyFrame(fr.Raw); err != nil {
				t.Fatalf("ApplyFrame: %v", err)
			}
			applied++
		case errors.Is(err, io.EOF) || errors.Is(err, ErrTornFrame):
			if writerDone {
				if applied >= 1+inserts { // create table + inserts
					goto drained
				}
				t.Fatalf("writer done but only %d frames applied", applied)
			}
			select {
			case werr := <-done:
				if werr != nil {
					t.Fatalf("writer: %v", werr)
				}
				writerDone = true
			default:
			}
		default:
			t.Fatalf("Next: %v", err)
		}
	}
drained:
	want, err := db.StateDigest()
	if err != nil {
		t.Fatalf("StateDigest: %v", err)
	}
	got, err := replica.StateDigest()
	if err != nil {
		t.Fatalf("replica StateDigest: %v", err)
	}
	if got != want {
		t.Fatalf("replica digest %s != primary digest %s after concurrent tail", got, want)
	}
}

// TestWALReaderDetectsReset proves the corruption arm: a checkpoint
// truncates the log under the cursor, which must surface as
// ErrCorruptFrame (re-sync), never as a silent EOF.
func TestWALReaderDetectsReset(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	defer db.Close()
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert("parts", Row{nil, fmt.Sprintf("p%d", i), 1.0, true}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	r := OpenWALReader(nil, dir)
	defer r.Close()
	if n := len(drainFrames(t, r)); n == 0 {
		t.Fatal("no frames before checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Next after checkpoint reset = %v, want ErrCorruptFrame", err)
	}
}

func TestExportStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	defer db.Close()
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := db.CreateIndex("parts", "by_name", false, "name"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Insert("parts", Row{nil, fmt.Sprintf("p%d", i), float64(i), i%2 == 0}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}

	ex, err := db.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if ex.Gen != db.Generation() {
		t.Fatalf("export gen %d, want %d", ex.Gen, db.Generation())
	}
	fi, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	if ex.WALOffset != fi.Size() {
		t.Fatalf("export offset %d, wal size %d", ex.WALOffset, fi.Size())
	}

	replica := mustOpenMem(t)
	for _, raw := range ex.Frames {
		if _, err := replica.ApplyFrame(raw); err != nil {
			t.Fatalf("ApplyFrame: %v", err)
		}
	}
	want, _ := db.StateDigest()
	got, _ := replica.StateDigest()
	if got != want {
		t.Fatalf("replica digest %s != primary digest %s", got, want)
	}
	// The export preserved auto-increment high-water marks: the next
	// insert on the replica picks the same ID the primary would.
	id, err := replica.Insert("parts", Row{nil, "next", 0, true})
	if err != nil {
		t.Fatalf("replica Insert: %v", err)
	}
	wantID, err := db.Insert("parts", Row{nil, "next", 0, true})
	if err != nil {
		t.Fatalf("primary Insert: %v", err)
	}
	if id != wantID {
		t.Fatalf("replica next id %d, primary %d", id, wantID)
	}
}

func TestExportStateInMemoryRefused(t *testing.T) {
	db := mustOpenMem(t)
	if _, err := db.ExportState(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("ExportState on in-memory db = %v, want ErrNoWAL", err)
	}
}

func TestApplyFrameRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	defer db.Close()
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := db.Insert("parts", Row{nil, "p", 1.0, true}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	r := OpenWALReader(nil, dir)
	defer r.Close()
	frames := drainFrames(t, r)
	raw := frames[len(frames)-1].Raw

	replica := mustOpenMem(t)
	if err := replica.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	before, _ := replica.StateDigest()

	cases := map[string][]byte{
		"truncated mid-frame": raw[:len(raw)-3],
		"flipped payload bit": append(append([]byte(nil), raw[:len(raw)-1]...), raw[len(raw)-1]^0x40),
		"short frame":         raw[:5],
	}
	for name, bad := range cases {
		if _, err := replica.ApplyFrame(bad); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("%s: ApplyFrame = %v, want ErrCorruptFrame", name, err)
		}
	}
	after, _ := replica.StateDigest()
	if before != after {
		t.Fatal("corrupt frames mutated the replica")
	}
	// The pristine frame still applies.
	if _, err := replica.ApplyFrame(raw); err != nil {
		t.Fatalf("ApplyFrame(pristine): %v", err)
	}
}

func TestWALReaderThroughFaultFS(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.FaultConfig{Seed: 1})
	db, err := OpenWith("db", Options{FS: fsys})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	defer db.Close()
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := db.Insert("parts", Row{nil, "p", 1.0, true}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	r := OpenWALReader(fsys, "db")
	defer r.Close()
	frames := drainFrames(t, r)
	if len(frames) != 3 { // gen header + create + insert
		t.Fatalf("got %d frames through FaultFS, want 3", len(frames))
	}
}

// FuzzReplicaFrames: a replica that reads a valid log followed by
// arbitrary bytes through a WALReader, and applies each frame with
// ApplyFrame to a fresh in-memory database, never panics. The reader's
// frames tile the log from offset 0 up and stay within it; a frame that
// ApplyFrame rejects as corrupt leaves the replica's state as it was; and
// when every frame applied and OpenWith recovers the same bytes, the
// replica's state digest equals the recovered primary's. The fuzzed input
// is the tail. The seeds are FuzzReplayWAL's, plus a tail frame carrying a
// generation record and an empty frame.
func FuzzReplicaFrames(f *testing.F) {
	valid := fuzzValidWAL(f)
	f.Fuzz(func(t *testing.T, tail []byte) {
		fsys := vfs.NewFaultFS(vfs.FaultConfig{Seed: 1})
		if err := fsys.MkdirAll("d", 0o755); err != nil {
			t.Fatal(err)
		}
		size := int64(len(valid) + len(tail))
		appendFile(t, fsys, filepath.Join("d", walFileName), append(append([]byte(nil), valid...), tail...))

		// Read every frame before anything opens the log for writing:
		// recovery truncates a torn tail.
		r := OpenWALReader(fsys, "d")
		var frames []ReplFrame
		for {
			fr, err := r.Next()
			if err != nil {
				break
			}
			prev := int64(0)
			if n := len(frames); n > 0 {
				prev = frames[n-1].End
			}
			if fr.Start != prev || fr.End <= fr.Start || fr.End > size || r.Offset() != fr.End {
				t.Fatalf("frame %d spans [%d, %d), cursor %d: want it to start at %d and end within %d bytes",
					len(frames), fr.Start, fr.End, r.Offset(), prev, size)
			}
			frames = append(frames, fr)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		replica, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		applied := true
		for i, fr := range frames {
			if fr.Header {
				continue
			}
			before, err := replica.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := replica.ApplyFrame(fr.Raw); err != nil {
				applied = false
				if !errors.Is(err, ErrCorruptFrame) {
					break // the replica diverged; it would re-sync from a snapshot
				}
				after, derr := replica.StateDigest()
				if derr != nil {
					t.Fatal(derr)
				}
				if after != before {
					t.Fatalf("frame %d was rejected (%v) but changed the replica's state", i, err)
				}
			}
		}

		primary, err := OpenWith("d", Options{FS: fsys})
		if err != nil || !applied {
			return
		}
		want, err := primary.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		got, err := replica.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("replica digest %s after %d frames, primary recovered %s", got, len(frames), want)
		}
	})
}
