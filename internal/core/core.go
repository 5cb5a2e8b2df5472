// Package core defines the storage-engine contract of the DBMS testbed
// (§3): the schema and tuple model, the Engine interface implemented by the
// six storage engines, per-component execution timers (Fig. 13), and the
// storage-footprint report (Fig. 14).
package core

import (
	"errors"
	"sync/atomic"
	"time"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// ColType is a column type.
type ColType uint8

// Column types. Integers are stored inline in the tuple's fixed-size slot;
// strings larger than 8 bytes live in variable-length slots referenced by an
// 8-byte pointer, as in §3.1.
const (
	TInt ColType = iota
	TString
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColType
	// Size is the maximum byte length for TString columns.
	Size int
}

// IndexSpec declares a secondary index: SecKey extracts a 32-bit secondary
// key from a row. Engines store composite (secondary, primary) keys so that
// duplicates are resolved and range scans work (§3.2's "mapping of
// secondary keys to primary keys").
type IndexSpec struct {
	Name   string
	SecKey func(row []Value) uint32
	// Cols lists the columns SecKey reads. An update that writes none of
	// them cannot move the tuple within the index, so the engines neither
	// call SecKey nor read the old row for it. nil means "any column" and
	// keeps the whole-row path. A declaration that omits a column SecKey
	// does read lets the index go stale silently; enginetest's Cols honesty
	// property checks the schemas in the tree.
	Cols []int
}

// Schema describes a table.
type Schema struct {
	Name      string
	Columns   []Column
	Secondary []IndexSpec
}

// IndexReads reports whether an update of cols can change any secondary key
// of the table: some index declares one of them, or declares nothing. When it
// cannot, the update needs no image of the old row.
func (s *Schema) IndexReads(cols []int) bool {
	for _, ix := range s.Secondary {
		if ix.Cols == nil {
			return true
		}
		for _, c := range cols {
			for _, r := range ix.Cols {
				if c == r {
					return true
				}
			}
		}
	}
	return false
}

// FixedSize returns the size of the tuple's fixed-size slot: 8 bytes per
// column (inline integer or pointer to a variable-length slot).
func (s *Schema) FixedSize() int { return 8 * len(s.Columns) }

// Value is one column value; I is used for TInt columns, S for TString.
type Value struct {
	I int64
	S []byte
}

// IntVal and StrVal build column values.
func IntVal(v int64) Value    { return Value{I: v} }
func StrVal(v string) Value   { return Value{S: []byte(v)} }
func BytesVal(v []byte) Value { return Value{S: v} }

// Errors common to all engines.
var (
	ErrKeyExists   = errors.New("core: key already exists")
	ErrKeyNotFound = errors.New("core: key not found")
	ErrNoTxn       = errors.New("core: no transaction in progress")
	ErrInTxn       = errors.New("core: transaction already in progress")
)

// Update describes a partial tuple modification: parallel slices of column
// indexes and their new values.
type Update struct {
	Cols []int
	Vals []Value
}

// Engine is the contract shared by the six storage engines. Engines are
// single-partition and not safe for concurrent use: the testbed runs
// transactions serially within each partition (§3).
type Engine interface {
	// Name returns the engine identifier (e.g. "nvm-inp").
	Name() string

	// Begin starts a transaction; Commit and Abort end it. Every data
	// operation must run inside a transaction.
	Begin() error
	Commit() error
	Abort() error

	// Insert adds a tuple with the given primary key.
	Insert(table string, key uint64, row []Value) error
	// Update modifies a subset of columns of an existing tuple.
	Update(table string, key uint64, upd Update) error
	// Delete removes a tuple.
	Delete(table string, key uint64) error
	// Get returns a tuple by primary key (visible to the running txn).
	Get(table string, key uint64) ([]Value, bool, error)
	// ScanSecondary iterates primary keys whose secondary key in the named
	// index equals sec, until fn returns false.
	ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error
	// ScanRange iterates (pk, row) for primary keys in [from, to), in
	// ascending order, until fn returns false.
	ScanRange(table string, from, to uint64, fn func(pk uint64, row []Value) bool) error

	// Flush forces any batched durability work (group commit, checkpoints)
	// to complete. Called at workload boundaries.
	Flush() error

	// Breakdown returns the cumulative per-component execution times.
	Breakdown() *Breakdown
	// Footprint reports durable storage usage by category.
	Footprint() Footprint
}

// ColReader is an optional engine capability: GetCols returns the tuple as a
// schema-width row in which only the named columns are filled and every other
// column is the zero Value, so a caller that needs one field of a ten-field
// tuple pays for one. It is not a method of Engine because an engine that
// stores rows whole (a B+tree page, an SSTable entry) gains nothing from it;
// call it through GetCols, which answers identically on every engine.
type ColReader interface {
	GetCols(table string, key uint64, cols []int) ([]Value, bool, error)
}

// GetCols reads the named columns of a tuple: natively when eng is a
// ColReader, otherwise as the projection of Get. Either way the read is a read
// of the key to anything that tracks reads (OccTxn marks it like Get).
func GetCols(eng Engine, table string, key uint64, cols []int) ([]Value, bool, error) {
	if cr, ok := eng.(ColReader); ok {
		return cr.GetCols(table, key, cols)
	}
	row, ok, err := eng.Get(table, key)
	if err != nil || !ok {
		return nil, false, err
	}
	out := make([]Value, len(row))
	for _, c := range cols {
		out[c] = row[c]
	}
	return out, true, nil
}

// Breakdown accumulates time per engine component (Fig. 13): storage
// management, recovery mechanisms (logging, checkpointing, persisting),
// index accesses, and everything else.
//
// Buckets record *self time*: when timers nest (e.g. a Storage-bucketed
// heap write inside a Recovery-bucketed checkpoint), the inner interval is
// subtracted from the outer bucket, so the four buckets sum to at most the
// wall time spent under timers — never double-counted.
//
// The exported fields are owned by the engine's executor goroutine. For
// concurrent readers (a /metrics scrape racing a partition executor) use
// Snapshot, which reads atomically maintained mirrors.
type Breakdown struct {
	Storage  time.Duration
	Recovery time.Duration
	Index    time.Duration
	Other    time.Duration

	// stack tracks in-flight timers for nested self-time attribution.
	stack []bdFrame
	// mirror holds atomic copies of the four buckets (ns), published by
	// Timer's stop function, in field order: Storage, Recovery, Index,
	// Other. Plain int64s accessed via sync/atomic so the struct stays
	// copyable.
	mirror [4]int64
}

type bdFrame struct {
	bucket *time.Duration
	start  time.Time
	child  time.Duration // time consumed by nested timers
}

// Timer starts timing a component; call the returned stop function to add
// the elapsed *self* time to the given bucket (elapsed minus any nested
// timer intervals). Stops must be called in LIFO order, which the engines'
// structured begin/defer usage guarantees; an out-of-order stop is ignored
// rather than corrupting the stack.
func (b *Breakdown) Timer(bucket *time.Duration) func() {
	b.stack = append(b.stack, bdFrame{bucket: bucket, start: time.Now()})
	depth := len(b.stack)
	return func() {
		if len(b.stack) != depth {
			return // out-of-order stop; drop rather than misattribute
		}
		f := b.stack[depth-1]
		b.stack = b.stack[:depth-1]
		elapsed := time.Since(f.start)
		self := elapsed - f.child
		if self < 0 {
			self = 0
		}
		*f.bucket += self
		if depth > 1 {
			b.stack[depth-2].child += elapsed
		}
		b.publish(f.bucket)
	}
}

// publish copies one bucket into its atomic mirror for Snapshot readers.
func (b *Breakdown) publish(bucket *time.Duration) {
	switch bucket {
	case &b.Storage:
		atomic.StoreInt64(&b.mirror[0], int64(b.Storage))
	case &b.Recovery:
		atomic.StoreInt64(&b.mirror[1], int64(b.Recovery))
	case &b.Index:
		atomic.StoreInt64(&b.mirror[2], int64(b.Index))
	case &b.Other:
		atomic.StoreInt64(&b.mirror[3], int64(b.Other))
	}
}

// Snapshot returns a scraper-safe copy of the buckets, read from the atomic
// mirrors. It may be called from any goroutine while the owning executor
// keeps timing.
func (b *Breakdown) Snapshot() Breakdown {
	return Breakdown{
		Storage:  time.Duration(atomic.LoadInt64(&b.mirror[0])),
		Recovery: time.Duration(atomic.LoadInt64(&b.mirror[1])),
		Index:    time.Duration(atomic.LoadInt64(&b.mirror[2])),
		Other:    time.Duration(atomic.LoadInt64(&b.mirror[3])),
	}
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o *Breakdown) {
	b.Storage += o.Storage
	b.Recovery += o.Recovery
	b.Index += o.Index
	b.Other += o.Other
}

// Total returns the sum over all components.
func (b *Breakdown) Total() time.Duration {
	return b.Storage + b.Recovery + b.Index + b.Other
}

// Footprint reports durable NVM usage by category (Fig. 14), in bytes.
type Footprint struct {
	Table      int64
	Index      int64
	Log        int64
	Checkpoint int64
	Other      int64
}

// Total returns the sum over all categories.
func (f Footprint) Total() int64 {
	return f.Table + f.Index + f.Log + f.Checkpoint + f.Other
}

// Env bundles the per-partition storage resources an engine runs on: the
// emulated NVM device, the allocator interface, and the filesystem
// interface (Fig. 2).
type Env struct {
	Dev   *nvm.Device
	Arena *pmalloc.Arena
	FS    *pmfs.FS
}

// EnvConfig sizes a partition's storage.
type EnvConfig struct {
	// DeviceSize is the total emulated NVM capacity for this partition.
	DeviceSize int64
	// FSFraction is the share of the device given to the filesystem
	// interface (default 0.5); the rest backs the allocator interface.
	FSFraction float64
	// FSExtent is the filesystem extent size (default 256 KiB).
	FSExtent int64
	// Profile is the NVM latency profile (default DRAM).
	Profile nvm.Profile
	// CacheSize overrides the CPU cache size (default 4 MiB).
	CacheSize int
}

// NewEnv formats a fresh partition environment.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.DeviceSize == 0 {
		cfg.DeviceSize = 256 << 20
	}
	if cfg.FSFraction == 0 {
		cfg.FSFraction = 0.5
	}
	if cfg.FSExtent == 0 {
		cfg.FSExtent = 256 << 10
	}
	devCfg := nvm.DefaultConfig(cfg.DeviceSize)
	if cfg.Profile.Name != "" {
		cfg.Profile.Apply(&devCfg)
	}
	if cfg.CacheSize != 0 {
		devCfg.CacheSize = cfg.CacheSize
	}
	dev := nvm.NewDevice(devCfg)
	fsSize := int64(float64(cfg.DeviceSize) * cfg.FSFraction)
	fs := pmfs.Format(dev, 0, fsSize, pmfs.Config{ExtentSize: cfg.FSExtent})
	arena := pmalloc.Format(dev, fsSize, cfg.DeviceSize-fsSize)
	return &Env{Dev: dev, Arena: arena, FS: fs}
}

// Reopen re-attaches to a partition environment after a crash or restart:
// the device keeps its durable contents, and the allocator and filesystem
// run their recovery scans.
func (e *Env) Reopen() (*Env, error) {
	fsSize := int64(0)
	// The filesystem lives at offset 0; find the arena base by probing the
	// filesystem's recorded size.
	fs, err := pmfs.Open(e.Dev, 0)
	if err != nil {
		return nil, err
	}
	fsSize = fsBase(e)
	arena, err := pmalloc.Open(e.Dev, fsSize)
	if err != nil {
		return nil, err
	}
	return &Env{Dev: e.Dev, Arena: arena, FS: fs}, nil
}

// ReopenVolatile re-attaches to a partition after a crash for a traditional
// engine: the filesystem (holding the WAL / checkpoint / SSTables /
// directories) recovers, but the allocator region — which those engines
// treat as volatile memory — is reformatted from scratch.
func (e *Env) ReopenVolatile() (*Env, error) {
	fs, err := pmfs.Open(e.Dev, 0)
	if err != nil {
		return nil, err
	}
	base := fsBase(e)
	arena := pmalloc.Format(e.Dev, base, e.Dev.Size()-base)
	return &Env{Dev: e.Dev, Arena: arena, FS: fs}, nil
}

// fsBase returns the device offset where the arena begins.
func fsBase(e *Env) int64 {
	// The filesystem records its own size in its superblock (offset 8).
	return int64(e.Dev.ReadU64(8))
}
