package reldb

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/vfs"
)

// table holds the rows and indexes of one relation.
type table struct {
	schema  Schema
	rows    map[int64]Row
	nextID  int64
	indexes map[string]*index
	pkCol   int // position of the primary key column, -1 if none
}

func newTable(schema Schema) *table {
	t := &table{
		schema:  schema,
		rows:    make(map[int64]Row),
		nextID:  1,
		indexes: make(map[string]*index),
		pkCol:   -1,
	}
	if schema.PrimaryKey != "" {
		t.pkCol = schema.ColIndex(schema.PrimaryKey)
		t.indexes[pkIndexName(schema.Name)] = newIndex(pkIndexName(schema.Name), []int{t.pkCol}, true)
	}
	return t
}

func pkIndexName(table string) string { return "pk_" + table }

// ErrFailed is wrapped into every write rejected because the database has
// latched a prior fsync failure. Once an fsync fails the kernel may have
// dropped the dirty pages, so "retry the sync" would silently report old
// data as durable; the only honest move is to refuse further writes until
// the process re-opens the database and recovers from what is actually on
// disk.
var ErrFailed = errors.New("reldb: database failed")

// DefaultSyncEvery is the group-commit fsync interval used by
// SyncInterval when Options.SyncEvery is zero.
const DefaultSyncEvery = 2 * time.Millisecond

// Options configures durability for OpenWith.
type Options struct {
	// FS is the filesystem the database performs all I/O through.
	// Nil means the real filesystem.
	FS vfs.FS
	// Sync selects when the WAL is fsynced. The zero value is
	// SyncAlways: every commit is durable before the call returns.
	Sync SyncPolicy
	// SyncEvery is the group-commit interval under SyncInterval
	// (DefaultSyncEvery if zero). Ignored by the other policies.
	SyncEvery time.Duration
}

// DB is an embedded relational database. All exported methods are safe for
// concurrent use; writes are serialized by a single writer lock.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	wal    *wal // nil for purely in-memory databases
	dir    string
	fs     vfs.FS
	opts   Options

	gen       uint64 // current snapshot generation
	staleWAL  bool   // recovery found a WAL predating the snapshot
	failed    error  //qatk:guardedby mu — latched fatal I/O error; non-nil refuses writes
	committer *committer

	// Observability, attached after Open via Instrument (all nil-safe).
	logger         *obs.Logger
	walRecords     *obs.Counter
	checkpoints    *obs.Counter
	fsyncSeconds   *obs.Histogram
	fsyncFailures  *obs.Counter
	walSyncedBytes *obs.Counter
	replayed       int // records replayed during recovery at Open

	// Flight recorder wiring (attached via WithFlight). flightMu is a
	// leaf below db.mu: latchLocked only records the pending trigger
	// under it, and fireLatchTrigger — called by the exported paths
	// AFTER releasing db.mu — performs the actual capture, because the
	// bundle's FlightInfo provider needs db.mu.RLock itself.
	flightMu     sync.Mutex
	flightRec    *flight.Recorder
	pendingLatch error //qatk:guardedby flightMu
}

// Open opens (or creates) a database in dir with default durability
// (SyncAlways on the real filesystem). If dir is empty the database is
// in-memory only and Close is a no-op for durability purposes.
func Open(dir string) (*DB, error) { return OpenWith(dir, Options{}) }

// OpenWith opens (or creates) a database in dir with explicit durability
// options. Recovery replays the newest snapshot plus the WAL frames of
// the matching generation, discards any torn or stale WAL tail, and
// removes a snapshot temp file left behind by a crash mid-checkpoint.
func OpenWith(dir string, opts Options) (*DB, error) {
	if opts.FS == nil {
		opts.FS = vfs.OS()
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	db := &DB{tables: make(map[string]*table), fs: opts.FS, opts: opts}
	if dir == "" {
		return db, nil
	}
	db.dir = dir
	if err := db.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: create dir: %w", err)
	}
	// A crash while checkpointLocked was still writing the temp snapshot
	// leaves it behind; it holds no committed state (the rename never
	// happened) and would otherwise sit there forever.
	tmp := filepath.Join(dir, snapshotTmpFileName)
	switch err := db.fs.Remove(tmp); {
	case err == nil:
		if err := db.fs.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("reldb: sync dir after tmp cleanup: %w", err)
		}
	case !errors.Is(err, iofs.ErrNotExist):
		return nil, fmt.Errorf("reldb: remove stale snapshot tmp: %w", err)
	}
	w, err := openWAL(db.fs, dir)
	if err != nil {
		return nil, err
	}
	db.wal = w
	walValid, err := db.recover()
	if err != nil {
		w.close()
		return nil, err
	}
	size, err := w.size()
	if err != nil {
		w.close()
		return nil, fmt.Errorf("reldb: stat wal: %w", err)
	}
	if size > walValid {
		// Torn frame at the tail, or an entire stale-generation log:
		// cut it before new frames can follow garbage.
		if err := w.truncateTo(walValid); err != nil {
			w.close()
			return nil, fmt.Errorf("reldb: truncate wal tail: %w", err)
		}
	}
	if walValid == 0 {
		w.armHeader(db.gen)
	}
	if opts.Sync == SyncInterval {
		db.committer = newCommitter(db, opts.SyncEvery)
	}
	return db, nil
}

// commit runs apply (the in-memory mutation plus its WAL append) under
// the writer lock, then enforces the sync policy: under SyncAlways the
// append was already fsynced inside apply via logRecords; under
// SyncInterval the call blocks, outside the lock, until a group fsync
// covers the append.
func (db *DB) commit(apply func() error) error {
	db.mu.Lock()
	if err := db.writableLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	err := apply()
	wait := err == nil && db.committer != nil && db.wal != nil
	var gen uint64
	if wait {
		gen = db.committer.noteAppend()
	}
	db.mu.Unlock()
	db.fireLatchTrigger()
	if err != nil {
		return err
	}
	if wait {
		return db.committer.wait(gen)
	}
	return nil
}

// writableLocked reports the latched failure, if any. Caller holds db.mu.
func (db *DB) writableLocked() error {
	if db.failed != nil {
		return fmt.Errorf("%w: %w", ErrFailed, db.failed)
	}
	return nil
}

// latchLocked records a fatal I/O error. All subsequent writes fail with
// ErrFailed; reads keep working on the in-memory state. Caller holds
// db.mu.
func (db *DB) latchLocked(err error) {
	if db.failed != nil {
		return
	}
	db.failed = err
	db.logger.Error("database latched, refusing further writes",
		obs.L("dir", db.dir), obs.L("error", err.Error()))
	// Defer the flight trigger: capture needs db.mu.RLock (FlightInfo),
	// which this caller holds exclusively. The exported entry points fire
	// it once they have released db.mu.
	db.flightMu.Lock()
	db.pendingLatch = err
	db.flightMu.Unlock()
}

// fireLatchTrigger captures the diagnostic bundle for a latch recorded by
// latchLocked. Must be called WITHOUT db.mu held. Idempotent: the pending
// error is consumed by the first call.
func (db *DB) fireLatchTrigger() {
	db.flightMu.Lock()
	err, fr := db.pendingLatch, db.flightRec
	db.pendingLatch = nil
	db.flightMu.Unlock()
	if err == nil || fr == nil {
		return
	}
	fr.Trigger(flight.ReasonFsyncLatch,
		obs.L("dir", db.dir), obs.L("err", err.Error()))
}

// syncWALLocked fsyncs the WAL, recording latency, synced bytes, and —
// on failure — the latch. Caller holds db.mu.
func (db *DB) syncWALLocked() error {
	pending := db.wal.unsynced
	start := time.Now()
	err := db.wal.sync()
	db.fsyncSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		db.fsyncFailures.Inc()
		db.latchLocked(err)
		return fmt.Errorf("reldb: wal fsync: %w", err)
	}
	db.wal.unsynced = 0
	db.walSyncedBytes.Add(uint64(pending))
	return nil
}

// Close checkpoints (if durable and healthy) and releases the database.
// A latched database skips the checkpoint — its WAL may be missing
// records the kernel dropped — and reports the latched error.
func (db *DB) Close() error {
	if db.committer != nil {
		db.committer.stop()
	}
	db.mu.Lock()
	err := db.closeLocked()
	db.mu.Unlock()
	db.fireLatchTrigger()
	return err
}

// closeLocked is Close under db.mu.
func (db *DB) closeLocked() error {
	if db.wal == nil {
		return nil
	}
	if db.failed != nil {
		db.wal.close()
		return db.writableLocked()
	}
	if err := db.checkpointLocked(); err != nil {
		db.wal.close()
		return err
	}
	return db.wal.close()
}

// Checkpoint writes a snapshot of the full database state and truncates the
// write-ahead log.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	var err error
	if db.wal != nil {
		err = db.checkpointLocked()
	}
	db.mu.Unlock()
	db.fireLatchTrigger()
	return err
}

// Tables returns the names of all tables, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Schema returns a copy of the named table's schema.
func (db *DB) Schema(tableName string) (Schema, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return Schema{}, fmt.Errorf("reldb: no such table %q", tableName)
	}
	s := t.schema
	s.Columns = append([]Column(nil), t.schema.Columns...)
	return s, nil
}

// CreateTable creates a table from the schema. If the schema declares a
// primary key a unique index on it is created implicitly.
func (db *DB) CreateTable(schema Schema) error {
	if err := schema.validate(); err != nil {
		return err
	}
	return db.commit(func() error {
		if _, ok := db.tables[schema.Name]; ok {
			return fmt.Errorf("reldb: table %q already exists", schema.Name)
		}
		db.tables[schema.Name] = newTable(schema)
		return db.logRecords(walRecord{Op: opCreateTable, Schema: &schema})
	})
}

// CreateIndex builds a secondary index named name on the given columns of
// tableName, indexing all existing rows.
func (db *DB) CreateIndex(tableName, name string, unique bool, cols ...string) error {
	return db.commit(func() error {
		return db.createIndexLocked(tableName, name, unique, cols, true)
	})
}

func (db *DB) createIndexLocked(tableName, name string, unique bool, cols []string, logIt bool) error {
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("reldb: no such table %q", tableName)
	}
	if len(cols) == 0 {
		return fmt.Errorf("reldb: index %q has no columns", name)
	}
	if _, ok := t.indexes[name]; ok {
		return fmt.Errorf("reldb: index %q already exists on table %q", name, tableName)
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := t.schema.ColIndex(c)
		if p < 0 {
			return fmt.Errorf("reldb: table %q has no column %q", tableName, c)
		}
		positions[i] = p
	}
	ix := newIndex(name, positions, unique)
	for id, row := range t.rows {
		if err := ix.insert(row, id); err != nil {
			return err
		}
	}
	t.indexes[name] = ix
	if logIt {
		return db.logRecords(walRecord{
			Op: opCreateIndex, Table: tableName, Index: name,
			Unique: unique, Cols: cols,
		})
	}
	return nil
}

// Insert adds a row and returns its row id. If the table has an INT primary
// key and the corresponding cell is nil, the key is auto-assigned and
// written back into the stored row.
func (db *DB) Insert(tableName string, row Row) (int64, error) {
	var id int64
	err := db.commit(func() error {
		var err error
		id, err = db.insertLocked(tableName, row)
		if err != nil {
			return err
		}
		t := db.tables[tableName]
		return db.logRecords(walRecord{Op: opInsert, Table: tableName, RowID: id, Row: t.rows[id]})
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

func (db *DB) insertLocked(tableName string, row Row) (int64, error) {
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("reldb: no such table %q", tableName)
	}
	canon, err := t.schema.checkRow(row)
	if err != nil {
		return 0, err
	}
	id := t.nextID
	if t.pkCol >= 0 {
		pc := t.schema.Columns[t.pkCol]
		if canon[t.pkCol] == nil {
			if pc.Type != TInt {
				return 0, fmt.Errorf("reldb: table %q: primary key %q is NULL and not auto-assignable", tableName, pc.Name)
			}
			canon[t.pkCol] = id
		} else if pc.Type == TInt {
			// Keep row ids aligned with explicit INT primary keys.
			id = canon[t.pkCol].(int64)
			if _, exists := t.rows[id]; exists {
				return 0, fmt.Errorf("reldb: table %q: duplicate primary key %d", tableName, id)
			}
		}
	}
	for _, ix := range t.indexes {
		if err := ix.insert(canon, id); err != nil {
			// Roll back partial index insertions (remove is idempotent).
			db.removeFromIndexes(t, canon, id)
			return 0, err
		}
	}
	t.rows[id] = canon
	if id >= t.nextID {
		t.nextID = id + 1
	}
	return id, nil
}

// removeFromIndexes best-effort removes (row,id) from every index; used for
// rollback of partially applied index insertions.
func (db *DB) removeFromIndexes(t *table, row Row, id int64) {
	for _, ix := range t.indexes {
		ix.remove(row, id)
	}
}

// Get returns a copy of the row with the given row id.
func (db *DB) Get(tableName string, id int64) (Row, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, false
	}
	row, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

// Update replaces the row with the given id.
func (db *DB) Update(tableName string, id int64, row Row) error {
	return db.commit(func() error {
		if err := db.updateLocked(tableName, id, row); err != nil {
			return err
		}
		t := db.tables[tableName]
		return db.logRecords(walRecord{Op: opUpdate, Table: tableName, RowID: id, Row: t.rows[id]})
	})
}

func (db *DB) updateLocked(tableName string, id int64, row Row) error {
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("reldb: no such table %q", tableName)
	}
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("reldb: table %q has no row %d", tableName, id)
	}
	canon, err := t.schema.checkRow(row)
	if err != nil {
		return err
	}
	if t.pkCol >= 0 && compareValues(canon[t.pkCol], old[t.pkCol]) != 0 {
		return fmt.Errorf("reldb: table %q: primary key of row %d cannot change", tableName, id)
	}
	for _, ix := range t.indexes {
		ix.remove(old, id)
	}
	for _, ix := range t.indexes {
		if err := ix.insert(canon, id); err != nil {
			// Restore the previous index state (remove is idempotent).
			db.removeFromIndexes(t, canon, id)
			for _, rx := range t.indexes {
				_ = rx.insert(old, id)
			}
			return err
		}
	}
	t.rows[id] = canon
	return nil
}

// Delete removes the row with the given id.
func (db *DB) Delete(tableName string, id int64) error {
	return db.commit(func() error {
		if err := db.deleteLocked(tableName, id); err != nil {
			return err
		}
		return db.logRecords(walRecord{Op: opDelete, Table: tableName, RowID: id})
	})
}

func (db *DB) deleteLocked(tableName string, id int64) error {
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("reldb: no such table %q", tableName)
	}
	row, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("reldb: table %q has no row %d", tableName, id)
	}
	for _, ix := range t.indexes {
		ix.remove(row, id)
	}
	delete(t.rows, id)
	return nil
}

// Count returns the number of rows in a table.
func (db *DB) Count(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("reldb: no such table %q", tableName)
	}
	return len(t.rows), nil
}

// Scan visits every row of a table in unspecified order. Returning false
// from fn stops the scan. The row passed to fn must not be mutated.
func (db *DB) Scan(tableName string, fn func(id int64, row Row) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("reldb: no such table %q", tableName)
	}
	for id, row := range t.rows {
		if !fn(id, row) {
			return nil
		}
	}
	return nil
}
