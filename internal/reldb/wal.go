package reldb

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// Write-ahead logging and snapshot checkpoints.
//
// Every committed mutation batch is encoded as one CRC-framed WAL frame
// holding all of the batch's records, appended to db.wal before the call
// returns; a frame is applied at recovery all-or-nothing, so a torn tail
// can never surface a partial transaction. Checkpoint rewrites the full
// database state as a snapshot file (a stream of single-record frames),
// makes it durable with an fsync plus a directory fsync across the
// rename, and resets the log. Both files carry a generation record at
// their head: a WAL whose generation does not match the snapshot's is
// stale (a crash hit the window between the snapshot rename and the log
// reset) and is skipped rather than double-applied. All file I/O goes
// through vfs.FS (enforced by qatklint/vfsonly) so the crash harness can
// enumerate every operation as a power-cut point.

type walOp uint8

const (
	opCreateTable walOp = iota + 1
	opCreateIndex
	opInsert
	opUpdate
	opDelete
	opNextID // snapshot-only: restores a table's auto-increment high-water mark
	opGen    // head-of-file only: the snapshot generation the file belongs to
)

type walRecord struct {
	Op     walOp
	Table  string
	Index  string
	Unique bool
	Cols   []string
	RowID  int64
	Row    Row
	Schema *Schema
}

const (
	walFileName         = "db.wal"
	snapshotFileName    = "db.snapshot"
	snapshotTmpFileName = snapshotFileName + ".tmp"
)

type wal struct {
	fs   vfs.FS
	dir  string
	f    vfs.File
	bw   *bufio.Writer
	path string

	gen           uint64 // generation stamped into the next header
	headerPending bool   // write an opGen frame before the next append
	unsynced      int64  // bytes appended since the last successful sync
}

// openWAL opens (creating if needed) the log file. A freshly created WAL
// gets its directory entry made durable immediately: a log that vanishes
// with its first power cut could silently lose every commit.
func openWAL(fsys vfs.FS, dir string) (*wal, error) {
	path := filepath.Join(dir, walFileName)
	_, statErr := fsys.Stat(path)
	created := errors.Is(statErr, iofs.ErrNotExist)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reldb: open wal: %w", err)
	}
	if created {
		if err := fsys.SyncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("reldb: sync dir after wal create: %w", err)
		}
	}
	return &wal{fs: fsys, dir: dir, f: f, bw: bufio.NewWriter(f), path: path}, nil
}

// size reports the current length of the log file.
func (w *wal) size() (int64, error) {
	fi, err := w.fs.Stat(w.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// armHeader schedules an opGen frame carrying gen to be written before
// the next appended frame. Only valid on an empty log.
func (w *wal) armHeader(gen uint64) {
	w.gen = gen
	w.headerPending = true
}

// writeFrame frames one payload with its length and CRC.
func (w *wal) writeFrame(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.unsynced += int64(len(hdr)) + int64(len(payload))
	return nil
}

// append writes one atomic batch of records as a single frame (plus the
// pending generation header, if armed) and flushes to the file.
func (w *wal) append(recs ...walRecord) error {
	if w.headerPending {
		w.headerPending = false
		if err := w.writeFrame(encodeRecord(walRecord{Op: opGen, RowID: int64(w.gen)})); err != nil {
			return err
		}
	}
	var payload bytes.Buffer
	for _, r := range recs {
		payload.Write(encodeRecord(r))
	}
	if err := w.writeFrame(payload.Bytes()); err != nil {
		return err
	}
	return w.bw.Flush()
}

// sync makes every appended frame durable.
func (w *wal) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// truncateTo cuts the log to n bytes (discarding a torn or stale tail)
// and fsyncs so the shortened log is durable — otherwise a power cut
// could resurrect the discarded bytes.
func (w *wal) truncateTo(n int64) error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(n); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.unsynced = 0
	return nil
}

// reset empties the log after a checkpoint and arms the new generation
// header.
func (w *wal) reset(gen uint64) error {
	if err := w.truncateTo(0); err != nil {
		return err
	}
	w.armHeader(gen)
	return nil
}

func (w *wal) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// errStopReplay is the internal sentinel an apply callback returns to end
// a replay early without error (e.g. a stale-generation WAL).
var errStopReplay = errors.New("reldb: stop replay")

// replayFile streams records from a snapshot or log file, calling apply
// for every record of every intact frame and returning the byte length of
// the valid prefix. A short or corrupt frame at the tail terminates the
// replay without error (torn write); corruption elsewhere is
// indistinguishable and treated the same. A frame is read only when the
// file holds all of its declared length.
func replayFile(fsys vfs.FS, path string, apply func(walRecord) error) (int64, error) {
	f, err := vfs.Open(fsys, path)
	if errors.Is(err, iofs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := fsys.Stat(path)
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	br := bufio.NewReader(f)
	valid := int64(0)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return valid, nil // clean EOF or torn header: stop
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > 1<<30 || int64(n) > size-valid-8 {
			// Implausible, or longer than the bytes left: a torn frame,
			// caught before its payload is allocated.
			return valid, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return valid, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			return valid, nil
		}
		pr := bytes.NewReader(payload)
		for pr.Len() > 0 {
			rec, err := decodeRecord(pr)
			if err != nil {
				return valid, fmt.Errorf("reldb: corrupt record in %s: %w", path, err)
			}
			if err := apply(rec); err != nil {
				if errors.Is(err, errStopReplay) {
					return valid, errStopReplay
				}
				// Replay errors cross the package boundary through Open;
				// attribute them here (decode errors above already are).
				return valid, fmt.Errorf("reldb: replay %s: %w", path, err)
			}
		}
		valid += 8 + int64(n)
	}
}

// recover rebuilds in-memory state from snapshot + WAL and returns the
// length of the WAL's valid prefix (the tail beyond it is torn or stale
// and must be truncated before further appends). The replay count is
// kept on the DB so Instrument can surface it after Open returns.
func (db *DB) recover() (walValid int64, err error) {
	snapGen := uint64(0)
	firstSnap := true
	applySnap := func(r walRecord) error {
		if firstSnap {
			firstSnap = false
			if r.Op == opGen {
				snapGen = uint64(r.RowID)
				return nil
			}
		}
		if r.Op == opGen {
			return errors.New("generation record not at head of snapshot")
		}
		db.replayed++
		return db.applyRecord(r)
	}
	if _, err := replayFile(db.fs, filepath.Join(db.dir, snapshotFileName), applySnap); err != nil {
		return 0, err
	}
	db.gen = snapGen

	firstWAL := true
	applyWAL := func(r walRecord) error {
		if firstWAL {
			firstWAL = false
			if r.Op == opGen {
				if uint64(r.RowID) != snapGen {
					// The log predates the snapshot: a crash hit the window
					// between the snapshot rename and the log reset. Its
					// records are already folded into the snapshot; replaying
					// them would double-apply.
					db.staleWAL = true
					return errStopReplay
				}
				return nil
			}
			// Legacy log without a generation header: generation zero.
			if snapGen != 0 {
				db.staleWAL = true
				return errStopReplay
			}
		}
		if r.Op == opGen {
			return errors.New("generation record not at head of wal")
		}
		db.replayed++
		return db.applyRecord(r)
	}
	walValid, err = replayFile(db.fs, db.wal.path, applyWAL)
	if errors.Is(err, errStopReplay) {
		return 0, nil // stale WAL: valid prefix is empty, reset it entirely
	}
	return walValid, err
}

// applyRecord replays one logged mutation into memory (no re-logging).
func (db *DB) applyRecord(r walRecord) error {
	switch r.Op {
	case opCreateTable:
		if r.Schema == nil {
			return errors.New("create table record without schema")
		}
		if err := r.Schema.validate(); err != nil {
			return err
		}
		if _, ok := db.tables[r.Schema.Name]; ok {
			return nil // idempotent replay
		}
		db.tables[r.Schema.Name] = newTable(*r.Schema)
		return nil
	case opCreateIndex:
		t, ok := db.tables[r.Table]
		if ok {
			if _, exists := t.indexes[r.Index]; exists {
				return nil
			}
		}
		return db.createIndexLocked(r.Table, r.Index, r.Unique, r.Cols, false)
	case opInsert:
		t, ok := db.tables[r.Table]
		if !ok {
			return fmt.Errorf("insert into unknown table %q", r.Table)
		}
		if _, exists := t.rows[r.RowID]; exists {
			return fmt.Errorf("insert of existing row %d into %q", r.RowID, r.Table)
		}
		canon, err := t.schema.checkRow(r.Row)
		if err != nil {
			return err
		}
		for _, ix := range t.indexes {
			if err := ix.insert(canon, r.RowID); err != nil {
				return err
			}
		}
		t.rows[r.RowID] = canon
		if r.RowID >= t.nextID {
			t.nextID = r.RowID + 1
		}
		return nil
	case opUpdate:
		return db.updateLocked(r.Table, r.RowID, r.Row)
	case opDelete:
		return db.deleteLocked(r.Table, r.RowID)
	case opNextID:
		t, ok := db.tables[r.Table]
		if !ok {
			return fmt.Errorf("next-id record for unknown table %q", r.Table)
		}
		if r.RowID > t.nextID {
			t.nextID = r.RowID
		}
		return nil
	}
	return fmt.Errorf("unknown wal op %d", r.Op)
}

// logRecords appends one atomic batch of mutations to the WAL (no-op for
// in-memory databases) and, under SyncAlways, makes it durable before
// returning. Append and sync failures latch the database. Caller holds
// db.mu.
func (db *DB) logRecords(recs ...walRecord) error {
	if db.wal == nil || len(recs) == 0 {
		return nil
	}
	if err := db.wal.append(recs...); err != nil {
		db.latchLocked(err)
		return fmt.Errorf("reldb: wal append: %w", err)
	}
	db.walRecords.Add(uint64(len(recs)))
	if db.opts.Sync == SyncAlways {
		return db.syncWALLocked()
	}
	return nil
}

// writeStateLocked streams the full database state as snapshot records in
// deterministic order. Caller holds db.mu (read or write).
func (db *DB) writeStateLocked(write func(walRecord) error) error {
	tableNames := make([]string, 0, len(db.tables))
	for n := range db.tables {
		tableNames = append(tableNames, n)
	}
	sortStrings(tableNames)
	for _, name := range tableNames {
		t := db.tables[name]
		sc := t.schema
		if err := write(walRecord{Op: opCreateTable, Schema: &sc}); err != nil {
			return err
		}
		ixNames := make([]string, 0, len(t.indexes))
		for in := range t.indexes {
			if in == pkIndexName(name) {
				continue // implicit with CREATE TABLE
			}
			ixNames = append(ixNames, in)
		}
		sortStrings(ixNames)
		for _, in := range ixNames {
			ix := t.indexes[in]
			cols := make([]string, len(ix.cols))
			for i, p := range ix.cols {
				cols[i] = t.schema.Columns[p].Name
			}
			if err := write(walRecord{Op: opCreateIndex, Table: name, Index: in, Unique: ix.unique, Cols: cols}); err != nil {
				return err
			}
		}
		ids := make([]int64, 0, len(t.rows))
		for id := range t.rows {
			ids = append(ids, id)
		}
		sortInt64s(ids)
		for _, id := range ids {
			if err := write(walRecord{Op: opInsert, Table: name, RowID: id, Row: t.rows[id]}); err != nil {
				return err
			}
		}
		if err := write(walRecord{Op: opNextID, Table: name, RowID: t.nextID}); err != nil {
			return err
		}
	}
	return nil
}

// checkpointLocked snapshots the full state and resets the WAL. The
// sequence is crash-ordered: tmp snapshot written and fsynced, renamed
// over the live snapshot, the rename made durable with a directory fsync,
// and only then the WAL truncated (itself fsynced). A power cut anywhere
// in between recovers to exactly the pre- or post-checkpoint state; the
// generation stamps keep a surviving pre-checkpoint WAL from being
// replayed onto the new snapshot. Caller holds db.mu.
func (db *DB) checkpointLocked() error {
	if err := db.writableLocked(); err != nil {
		return err
	}
	newGen := db.gen + 1
	tmp := filepath.Join(db.dir, snapshotTmpFileName)
	f, err := vfs.Create(db.fs, tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	write := func(r walRecord) error {
		payload := encodeRecord(r)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}
	if err := write(walRecord{Op: opGen, RowID: int64(newGen)}); err != nil {
		f.Close()
		return err
	}
	if err := db.writeStateLocked(write); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		db.latchLocked(err)
		return fmt.Errorf("reldb: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := db.fs.Rename(tmp, filepath.Join(db.dir, snapshotFileName)); err != nil {
		return err
	}
	// From here on the new snapshot is (or may be) live; failures leave
	// the on-disk sequencing uncertain, so they latch the database.
	if err := db.fs.SyncDir(db.dir); err != nil {
		db.latchLocked(err)
		return fmt.Errorf("reldb: sync dir after snapshot rename: %w", err)
	}
	if err := db.wal.reset(newGen); err != nil {
		db.latchLocked(err)
		return fmt.Errorf("reldb: wal reset after checkpoint: %w", err)
	}
	db.gen = newGen
	if db.committer != nil {
		// The snapshot persisted every pending commit; release waiters.
		db.committer.coverAll()
	}
	db.checkpoints.Inc()
	db.logger.Info("checkpoint written", obs.L("dir", db.dir))
	return nil
}

// StateDigest returns a SHA-256 digest of the full logical database
// state (schemas, indexes, rows, auto-increment high-water marks) in the
// same deterministic order a checkpoint would write it. Two databases
// with equal digests hold identical state; the crash harness uses this
// to check recovered state against the per-commit digest trail.
func (db *DB) StateDigest() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h := sha256.New()
	err := db.writeStateLocked(func(r walRecord) error {
		h.Write(encodeRecord(r))
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// --- record encoding ---------------------------------------------------

func encodeRecord(r walRecord) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(r.Op))
	writeString(&b, r.Table)
	writeString(&b, r.Index)
	if r.Unique {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	writeUvarint(&b, uint64(len(r.Cols)))
	for _, c := range r.Cols {
		writeString(&b, c)
	}
	writeVarint(&b, r.RowID)
	if r.Row == nil {
		b.WriteByte(0)
	} else {
		b.WriteByte(1)
		writeUvarint(&b, uint64(len(r.Row)))
		for _, v := range r.Row {
			writeValue(&b, v)
		}
	}
	if r.Schema == nil {
		b.WriteByte(0)
	} else {
		b.WriteByte(1)
		writeString(&b, r.Schema.Name)
		writeString(&b, r.Schema.PrimaryKey)
		writeUvarint(&b, uint64(len(r.Schema.Columns)))
		for _, c := range r.Schema.Columns {
			writeString(&b, c.Name)
			b.WriteByte(byte(c.Type))
			if c.NotNull {
				b.WriteByte(1)
			} else {
				b.WriteByte(0)
			}
		}
	}
	return b.Bytes()
}

// decodeRecord consumes exactly one record from br; records are
// self-delimiting, so a frame holding a whole transaction decodes by
// calling decodeRecord until the reader is empty.
func decodeRecord(br *bytes.Reader) (walRecord, error) {
	var r walRecord
	op, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	r.Op = walOp(op)
	if r.Table, err = readString(br); err != nil {
		return r, err
	}
	if r.Index, err = readString(br); err != nil {
		return r, err
	}
	uniq, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	r.Unique = uniq == 1
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return r, err
	}
	for i := uint64(0); i < ncols; i++ {
		c, err := readString(br)
		if err != nil {
			return r, err
		}
		r.Cols = append(r.Cols, c)
	}
	if r.RowID, err = binary.ReadVarint(br); err != nil {
		return r, err
	}
	hasRow, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	if hasRow == 1 {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return r, err
		}
		if n > uint64(br.Len()) { // every value takes at least its tag byte
			return r, errors.New("row length exceeds buffer")
		}
		r.Row = make(Row, n)
		for i := uint64(0); i < n; i++ {
			if r.Row[i], err = readValue(br); err != nil {
				return r, err
			}
		}
	}
	hasSchema, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	if hasSchema == 1 {
		var s Schema
		if s.Name, err = readString(br); err != nil {
			return r, err
		}
		if s.PrimaryKey, err = readString(br); err != nil {
			return r, err
		}
		nc, err := binary.ReadUvarint(br)
		if err != nil {
			return r, err
		}
		for i := uint64(0); i < nc; i++ {
			var c Column
			if c.Name, err = readString(br); err != nil {
				return r, err
			}
			tb, err := br.ReadByte()
			if err != nil {
				return r, err
			}
			c.Type = ColType(tb)
			nn, err := br.ReadByte()
			if err != nil {
				return r, err
			}
			c.NotNull = nn == 1
			s.Columns = append(s.Columns, c)
		}
		r.Schema = &s
	}
	return r, nil
}

func writeUvarint(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	b.Write(buf[:n])
}

func writeVarint(b *bytes.Buffer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	b.Write(buf[:n])
}

func writeString(b *bytes.Buffer, s string) {
	writeUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func readString(br *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > uint64(br.Len()) {
		return "", errors.New("string length exceeds buffer")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeValue(b *bytes.Buffer, v Value) {
	switch x := v.(type) {
	case nil:
		b.WriteByte(0)
	case int64:
		b.WriteByte(1)
		writeVarint(b, x)
	case float64:
		b.WriteByte(2)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		b.Write(buf[:])
	case string:
		b.WriteByte(3)
		writeString(b, x)
	case bool:
		b.WriteByte(4)
		if x {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	case []byte:
		b.WriteByte(5)
		writeUvarint(b, uint64(len(x)))
		b.Write(x)
	default:
		panic(fmt.Sprintf("reldb: writeValue on unsupported type %T", v))
	}
}

func readValue(br *bytes.Reader) (Value, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0:
		return nil, nil
	case 1:
		return binary.ReadVarint(br)
	case 2:
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
	case 3:
		return readString(br)
	case 4:
		c, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		return c == 1, nil
	case 5:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if n > uint64(br.Len()) {
			return nil, errors.New("bytes length exceeds buffer")
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return nil, fmt.Errorf("unknown value tag %d", tag)
}

func sortStrings(s []string) { sort.Strings(s) }

func sortInt64s(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
