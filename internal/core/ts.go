package core

import (
	"sync"
	"sync/atomic"
)

// This file holds the intra-partition MVCC contract: the timestamp oracle
// that orders commits against snapshot reads, and the interfaces a
// versioned engine exposes to snapshot readers. The engine's own state is the
// newest version of every row; a view reads it and rolls back what was
// written after the view's timestamp (internal/mvcc keeps those pre-images):
//
//   - every committed-and-durable transaction publishes at a commit
//     timestamp, then advances the oracle's read timestamp;
//   - a reader acquires a view pinned at the current read timestamp and
//     observes exactly the writes with ts <= view.Ts();
//   - the watermark is the minimum timestamp any active view can observe;
//     a pre-image of a write at or below it is never needed again.
//
// Timestamps reuse Base.TxnID: it is monotone per partition, unique per
// transaction, and recovery rebuilds it from the WAL txn floor — so a
// freshly recovered engine's oracle starts exactly at the durable frontier
// and snapshots are never served from unrecovered state.

// TsOracle is a per-partition timestamp oracle. The single writer advances
// the read timestamp after each durable commit; any goroutine may register
// a read view. The zero value is ready to use at timestamp 0.
type TsOracle struct {
	readTs atomic.Uint64

	mu     sync.Mutex
	active map[uint64]int // view ts -> number of active views pinned there
}

// ReadTs returns the newest timestamp visible to a fresh view.
func (o *TsOracle) ReadTs() uint64 { return o.readTs.Load() }

// Advance publishes ts as the newest readable timestamp. Calls must be
// monotone; a stale ts is ignored so recovery floors and commit publishes
// can race benignly.
func (o *TsOracle) Advance(ts uint64) {
	for {
		cur := o.readTs.Load()
		if ts <= cur || o.readTs.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Acquire pins a view at the current read timestamp and returns it. The
// caller must pair it with Release, or the watermark stops advancing.
func (o *TsOracle) Acquire() uint64 {
	o.mu.Lock()
	// Read the timestamp under the mutex so Watermark, which also holds it,
	// can never compute a watermark above a view it did not see.
	ts := o.readTs.Load()
	if o.active == nil {
		o.active = make(map[uint64]int)
	}
	o.active[ts]++
	o.mu.Unlock()
	return ts
}

// Release unpins a view acquired at ts.
func (o *TsOracle) Release(ts uint64) {
	o.mu.Lock()
	if n, ok := o.active[ts]; ok {
		if n <= 1 {
			delete(o.active, ts)
		} else {
			o.active[ts] = n - 1
		}
	}
	o.mu.Unlock()
}

// Watermark returns the oldest timestamp any active or future view can
// observe: the minimum pinned view timestamp, or the current read timestamp
// when no view is active. GC may reclaim superseded versions strictly below
// the watermark and nothing else.
func (o *TsOracle) Watermark() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	wm := o.readTs.Load()
	for ts := range o.active {
		if ts < wm {
			wm = ts
		}
	}
	return wm
}

// ActiveViews returns the number of currently pinned views (for metrics).
func (o *TsOracle) ActiveViews() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, c := range o.active {
		n += c
	}
	return n
}

// ReadView is a pinned snapshot of one partition. A view reads the engine
// under its exclusion (Base), so a read waits for at most the one
// transaction in flight and never for a group-commit barrier. A view from
// SnapshotView may be used from any goroutine, but never from inside a
// transaction on its own engine (the transaction holds the exclusion); the
// view ReadSnapshot hands fn is valid inside fn only. Close releases the
// view's watermark pin; using a view after Close is a bug (the pre-images it
// needs may be gone).
type ReadView interface {
	// Ts returns the snapshot timestamp: the view observes exactly the
	// committed-and-durable state as of this timestamp.
	Ts() uint64
	// Get returns the tuple visible at the snapshot, like Engine.Get. The row
	// may be shared with the version store: callers must not mutate it.
	Get(table string, key uint64) ([]Value, bool, error)
	// ScanRange iterates the snapshot like Engine.ScanRange. fn runs under
	// the engine's exclusion and must not call back into the engine.
	ScanRange(table string, from, to uint64, fn func(pk uint64, row []Value) bool) error
	// ScanSecondary iterates the snapshot like Engine.ScanSecondary.
	ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error
	// Close releases the view.
	Close()
}

// SnapshotReader is implemented by engines that serve MVCC snapshot reads
// alongside their single-owner write path.
type SnapshotReader interface {
	// SnapshotView pins a view at the engine's newest durable timestamp,
	// waiting for a transaction in flight: views pin only between
	// transactions.
	SnapshotView() ReadView
	// ReadSnapshot pins a view and runs fn against it under one acquisition
	// of the engine's exclusion, then closes it. It fails with ErrRetired on
	// an engine whose device was power-cycled.
	ReadSnapshot(fn func(ReadView) error) error
	// Oracle exposes the engine's timestamp oracle (watermark, metrics).
	Oracle() *TsOracle
}

// UndoStats is what snapshot readers cost a partition's writers.
type UndoStats struct {
	// Records is the number of pre-images the version store holds: the
	// writes some pinned view, or a commit not yet published, may still
	// have to be rolled back past.
	Records int64
	// Captures counts the pre-images durable-at-commit engines (nvm-inp,
	// nvm-log) read from the device only because a view was pinned.
	Captures int64
	// Materialized counts the lazy pre-images (log's) a view rebuilt from
	// the engine because it pinned before their group's fsync.
	Materialized int64
}

// UndoStatser is implemented by engines with a version store.
type UndoStatser interface {
	UndoStats() UndoStats
}
