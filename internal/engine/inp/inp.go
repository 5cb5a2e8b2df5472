// Package inp implements the in-place updates engine (InP, §3.1), modelled
// on VoltDB: a single version of each tuple, updated in place, with an
// ARIES-style write-ahead log on the filesystem interface and periodic
// gzip-compressed checkpoints. Tuple storage and the STX-style B+tree
// indexes live in memory obtained from the allocator interface but are
// treated as volatile: after a crash the engine reloads the last checkpoint,
// replays the WAL, and rebuilds all indexes (§3.1).
package inp

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"nstore/internal/btree"
	"nstore/internal/core"
	"nstore/internal/mvcc"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

const (
	walFile = "inp.wal"
	// ckptMagic tags a checkpoint slot (core.TwoSlot: inp.ckpt.0 and .1), its
	// one header word the highest TxnID the checkpoint covers.
	ckptMagic = 0x4e53434b50543032 // "NSCKPT02"
)

// Engine is the in-place updates engine.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts core.Options

	heaps   []*core.Heap  // per table
	primary []*btree.Tree // per table: pk -> slot ptr
	second  [][]*btree.Tree

	wal *core.FsWAL

	walMark     int // buffer mark at txn begin, for abort
	undo        []undoRec
	sinceCkpt   int
	ckpt        core.TwoSlot
	ckptTxn     uint64 // highest TxnID covered by the loaded/written checkpoint
	ckptDurable int64  // durable checkpoint size (Fig. 14)
}

type undoRec struct {
	op     uint8 // core.WalInsert etc.
	table  int
	key    uint64
	before []core.Value // delete: the row
	delta  core.Update  // update: the old values of the updated columns
}

// New creates a fresh InP engine on the partition environment.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := opts.CheckVestigial(); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults(), ckpt: ckptSlots(env)}
	e.InitBase(env, schemas)
	wal, err := core.NewFsWAL(env.FS, walFile, e.opts.GroupCommitSize)
	if err != nil {
		return nil, err
	}
	if err := wal.UseArenaBuffer(env.Arena); err != nil {
		return nil, err
	}
	e.wal = wal
	e.buildVolatile()
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// buildVolatile creates the heaps and indexes in (volatile) allocator
// memory.
func (e *Engine) buildVolatile() {
	e.heaps = nil
	e.primary = nil
	e.second = nil
	for _, tm := range e.Tables {
		e.heaps = append(e.heaps, core.NewHeap(e.Env.Arena, tm.Schema, false))
		e.primary = append(e.primary, btree.New(e.Env.Arena, e.opts.BTreeNodeSize))
		var secs []*btree.Tree
		for range tm.Schema.Secondary {
			secs = append(secs, btree.New(e.Env.Arena, e.opts.BTreeNodeSize))
		}
		e.second = append(e.second, secs)
	}
}

// Open recovers an InP engine after a restart: load the last checkpoint,
// replay the WAL, and rebuild the indexes. The allocator memory is treated
// as volatile, so the caller must pass a freshly formatted arena.
func Open(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := opts.CheckVestigial(); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults(), ckpt: ckptSlots(env)}
	e.InitBase(env, schemas)
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()

	e.buildVolatile()
	if err := e.loadCheckpoint(); err != nil {
		return nil, fmt.Errorf("inp: checkpoint load: %w", err)
	}
	wal, err := core.OpenFsWAL(env.FS, walFile, e.opts.GroupCommitSize)
	if err != nil {
		if err != pmfs.ErrNotExist {
			return nil, err
		}
		wal, err = core.NewFsWAL(env.FS, walFile, e.opts.GroupCommitSize)
		if err != nil {
			return nil, err
		}
	}
	e.wal = wal
	maxTxn, err := e.replayWAL()
	if err != nil {
		return nil, fmt.Errorf("inp: wal replay: %w", err)
	}
	e.TxnID = maxTxn
	if e.ckptTxn > e.TxnID {
		e.TxnID = e.ckptTxn
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// replayWAL is ARIES redo, record by record in log order, on the recovering
// goroutine. Records at or below the checkpoint's transaction floor are
// already in the checkpoint image; they reappear when a truncated log's
// extents are reused and must not be applied twice (or out of order).
func (e *Engine) replayWAL() (uint64, error) {
	return e.wal.Replay(e.ckptTxn, func(r core.WalRecord) error {
		e.Rec.Records++
		tm := e.Tables[r.Table]
		switch r.Type {
		case core.WalInsert:
			row, err := core.DecodeRow(tm.Schema, r.After)
			if err != nil {
				return err
			}
			return e.apply(tm, r.Key, row)
		case core.WalUpdate:
			upd, err := core.DecodeDelta(tm.Schema, r.After)
			if err != nil {
				return err
			}
			return e.applyUpdate(tm, r.Key, upd)
		case core.WalDelete:
			e.applyDelete(tm, r.Key)
		}
		return nil
	})
}

// apply installs a row (used by replay, checkpoint load and rollback).
func (e *Engine) apply(tm *core.TableMeta, key uint64, row []core.Value) error {
	h := e.heaps[tm.ID]
	if slot, ok := e.primary[tm.ID].Get(key); ok {
		// Replayed insert over checkpointed tuple: replace.
		e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, h.ReadRow(slot), nil))
		h.FreeSlot(slot)
		e.primary[tm.ID].Delete(key)
	}
	slot, err := h.StoreRow(key, row)
	if err != nil {
		return err
	}
	h.PersistSlot(slot)
	e.primary[tm.ID].Put(key, slot)
	e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, nil, row))
	return nil
}

// applyUpdate writes a delta into an existing tuple (replay and rollback).
func (e *Engine) applyUpdate(tm *core.TableMeta, key uint64, upd core.Update) error {
	slot, ok := e.primary[tm.ID].Get(key)
	if !ok {
		return nil
	}
	return e.writeUpdate(tm, key, slot, upd, e.indexedRow(tm, slot, upd.Cols))
}

// indexedRow reads the tuple at slot when an update of cols can move it
// within a secondary index, and returns nil when it cannot: an update reads
// what it writes, and the rest of the row only to re-key an index.
func (e *Engine) indexedRow(tm *core.TableMeta, slot uint64, cols []int) []core.Value {
	if !tm.Schema.IndexReads(cols) {
		return nil
	}
	return e.heaps[tm.ID].ReadRow(slot)
}

// writeUpdate writes upd into the tuple at slot, releases the var-slots it
// supersedes and, given the old row (see indexedRow), re-keys the secondary
// entries. When the arena runs out the tuple is unchanged.
func (e *Engine) writeUpdate(tm *core.TableMeta, key, slot uint64, upd core.Update, old []core.Value) error {
	h := e.heaps[tm.ID]
	var oldVars []core.VarRef
	for _, ci := range upd.Cols {
		if r := h.ColVar(slot, ci); r != 0 {
			oldVars = append(oldVars, r)
		}
	}
	if err := h.WriteCols(slot, upd.Cols, upd.Vals); err != nil {
		return err
	}
	for _, r := range oldVars {
		h.FreeVar(r)
	}
	if old != nil {
		stopIdx := e.Bd.Timer(&e.Bd.Index)
		now := append([]core.Value(nil), old...)
		core.ApplyDelta(now, upd)
		e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, old, now))
		stopIdx()
	}
	return nil
}

func (e *Engine) applyDelete(tm *core.TableMeta, key uint64) {
	h := e.heaps[tm.ID]
	slot, ok := e.primary[tm.ID].Get(key)
	if !ok {
		return
	}
	e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, h.ReadRow(slot), nil))
	h.FreeSlot(slot)
	e.primary[tm.ID].Delete(key)
}

// fixSecondaries carries out an operation's secondary-index changes.
func (e *Engine) fixSecondaries(tm *core.TableMeta, fixes []core.SecFix) {
	for _, f := range fixes {
		if f.Add {
			e.second[tm.ID][f.Idx].Put(f.Composite(), f.PK)
		} else {
			e.second[tm.ID][f.Idx].Delete(f.Composite())
		}
	}
}

// Name returns "inp".
func (e *Engine) Name() string { return "inp" }

// Begin starts a transaction.
func (e *Engine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.walMark = e.wal.Mark()
	e.undo = e.undo[:0]
	return nil
}

// Commit appends the commit record and group-commits.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	err := e.wal.TxnCommitted(e.TxnID)
	stop()
	if err == nil {
		// Publish MVCC versions now only if the commit record reached the
		// durability barrier (the group flushed); otherwise they wait for
		// Flush so readers never observe an unacked write.
		e.MV.CommitStaged(e.TxnID, e.wal.PendingTxns() == 0)
	}
	if err != nil {
		// The commit record never became durable (a retryable flush keeps
		// the buffer; the file was rewound), so the transaction did not
		// happen: roll the in-memory state back and end the txn so the
		// caller can Begin again and retry.
		if rerr := e.rollback(); rerr != nil {
			return core.Corrupt(errors.Join(err, rerr))
		}
		return err
	}
	// Checkpoints bound WAL replay; only transactions that wrote count.
	if len(e.undo) > 0 {
		e.sinceCkpt++
	}
	if e.opts.CheckpointEvery > 0 && e.sinceCkpt >= e.opts.CheckpointEvery {
		if err := e.Checkpoint(); err != nil {
			// The transaction committed (its WAL group may still be
			// buffered, which is the normal group-commit window); only the
			// replay-bounding checkpoint failed. sinceCkpt is not reset, so
			// a later commit retries it. End the txn before surfacing.
			_ = e.EndTx()
			return err
		}
	}
	return e.EndTx()
}

// Abort rolls back the transaction in memory and drops its WAL records.
func (e *Engine) Abort() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	return e.rollback()
}

// rollback undoes the running transaction's in-memory effects, drops its
// buffered WAL records, and ends the transaction. Shared by Abort and the
// commit-failure path, so every exit leaves the engine ready for Begin.
func (e *Engine) rollback() error {
	for i := len(e.undo) - 1; i >= 0; i-- {
		u := e.undo[i]
		tm := e.Tables[u.table]
		var err error
		switch u.op {
		case core.WalInsert:
			e.applyDelete(tm, u.key)
		case core.WalUpdate:
			err = e.applyUpdate(tm, u.key, u.delta)
		case core.WalDelete:
			err = e.apply(tm, u.key, u.before)
		}
		if err != nil {
			// Putting an old image back needs arena space too. Without it
			// the heap holds part of an aborted transaction: only recovery
			// from the log can restore it.
			_ = e.EndTx()
			return core.Corrupt(err)
		}
	}
	e.wal.DropTail(e.walMark)
	e.MV.DropStaged()
	return e.EndTx()
}

// Insert adds a tuple (§3.1: WAL first, then table storage, then indexes).
func (e *Engine) Insert(table string, key uint64, row []core.Value) error {
	tm, err := e.InsertTable(table, key)
	if err != nil {
		return err
	}
	_, exists := core.IndexGet(&e.Base, e.primary[tm.ID], key)
	if exists {
		return core.ErrKeyExists
	}

	stop := e.Bd.Timer(&e.Bd.Recovery)
	mark := e.wal.Mark()
	e.wal.Append(core.WalRecord{Type: core.WalInsert, TxnID: e.TxnID,
		Table: tm.ID, Key: key, After: core.EncodeRow(tm.Schema, row)})
	stop()

	stopSt := e.Bd.Timer(&e.Bd.Storage)
	h := e.heaps[tm.ID]
	slot, err := h.StoreRow(key, row)
	if err != nil {
		stopSt()
		e.wal.DropTail(mark) // the record describes a tuple that was not stored
		return err
	}
	h.PersistSlot(slot)
	stopSt()

	stopIdx := e.Bd.Timer(&e.Bd.Index)
	e.primary[tm.ID].Put(key, slot)
	e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, nil, row))
	stopIdx()

	e.undo = append(e.undo, undoRec{op: core.WalInsert, table: tm.ID, key: key})
	e.MV.StageInsert(table, key)
	return nil
}

// Update modifies columns of an existing tuple in place.
func (e *Engine) Update(table string, key uint64, upd core.Update) error {
	tm, err := e.WriteTable(table)
	if err != nil {
		return err
	}
	slot, ok := core.IndexGet(&e.Base, e.primary[tm.ID], key)
	if !ok {
		return core.ErrKeyNotFound
	}
	h := e.heaps[tm.ID]

	stopSt := e.Bd.Timer(&e.Bd.Storage)
	old := e.indexedRow(tm, slot, upd.Cols)
	// Before image: the old values of the updated columns.
	before := core.Update{Cols: append([]int(nil), upd.Cols...), Vals: make([]core.Value, len(upd.Cols))}
	for j, ci := range upd.Cols {
		if old != nil {
			before.Vals[j] = old[ci]
		} else {
			before.Vals[j] = h.ReadCol(slot, ci)
		}
	}
	stopSt()

	stop := e.Bd.Timer(&e.Bd.Recovery)
	mark := e.wal.Mark()
	e.wal.Append(core.WalRecord{Type: core.WalUpdate, TxnID: e.TxnID,
		Table: tm.ID, Key: key,
		Before: core.EncodeDelta(tm.Schema, before),
		After:  core.EncodeDelta(tm.Schema, upd)})
	stop()

	stopSt = e.Bd.Timer(&e.Bd.Storage)
	err = e.writeUpdate(tm, key, slot, upd, old)
	stopSt()
	if err != nil {
		e.wal.DropTail(mark) // the record describes a write that did not happen
		return err
	}

	e.undo = append(e.undo, undoRec{op: core.WalUpdate, table: tm.ID, key: key, delta: before})
	e.MV.StageUpdate(table, key, before.Cols, before.Vals) // the WAL's before-image
	return nil
}

// Delete removes a tuple.
func (e *Engine) Delete(table string, key uint64) error {
	tm, err := e.WriteTable(table)
	if err != nil {
		return err
	}
	slot, ok := core.IndexGet(&e.Base, e.primary[tm.ID], key)
	if !ok {
		return core.ErrKeyNotFound
	}
	h := e.heaps[tm.ID]
	old := h.ReadRow(slot)

	stop := e.Bd.Timer(&e.Bd.Recovery)
	e.wal.Append(core.WalRecord{Type: core.WalDelete, TxnID: e.TxnID,
		Table: tm.ID, Key: key, Before: core.EncodeRow(tm.Schema, old)})
	stop()

	stopSt := e.Bd.Timer(&e.Bd.Storage)
	h.FreeSlot(slot)
	stopSt()
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	e.primary[tm.ID].Delete(key)
	e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, old, nil))
	stopIdx()

	e.undo = append(e.undo, undoRec{op: core.WalDelete, table: tm.ID, key: key, before: old})
	e.MV.StageDelete(table, key, old)
	return nil
}

// Get reads a tuple through the primary index.
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	return core.HeapGet(&e.Base, e.primary, e.heaps, table, key, nil, true)
}

// GetCols implements core.ColReader: the index lookup of Get, then only the
// named columns' fields and var-slots.
func (e *Engine) GetCols(table string, key uint64, cols []int) ([]core.Value, bool, error) {
	return core.HeapGet(&e.Base, e.primary, e.heaps, table, key, cols, false)
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	return core.ScanSecondary(&e.Base, e.second, table, index, sec, fn)
}

// ScanRange iterates rows with primary key in [from, to).
func (e *Engine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	return core.HeapScan(&e.Base, e.primary, e.heaps, table, from, to, fn)
}

// Flush forces the pending group commit to disk.
func (e *Engine) Flush() error {
	defer e.Exclude()()
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	if err := e.wal.Flush(); err != nil {
		return err
	}
	e.MV.PublishDurable()
	return nil
}

// WalStats exposes the WAL's cumulative counters (core.WalStatser).
func (e *Engine) WalStats() core.WalStats { return e.wal.Stats() }

// Checkpoint serializes all live tuples to a gzip-compressed checkpoint
// file, swaps it in atomically, and truncates the WAL (§3.1).
func (e *Engine) Checkpoint() error {
	defer e.Exclude()()
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	if err := e.wal.Flush(); err != nil {
		return err
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	var rec [20]byte
	for _, tm := range e.Tables {
		h := e.heaps[tm.ID]
		var werr error
		h.Scan(func(slot uint64) bool {
			row := h.ReadRow(slot)
			img := core.EncodeRow(tm.Schema, row)
			binary.LittleEndian.PutUint32(rec[0:], uint32(tm.ID))
			binary.LittleEndian.PutUint64(rec[4:], h.Key(slot))
			binary.LittleEndian.PutUint64(rec[12:], uint64(len(img)))
			if _, werr = zw.Write(rec[:]); werr != nil {
				return false
			}
			if _, werr = zw.Write(img); werr != nil {
				return false
			}
			return true
		})
		if werr != nil {
			return werr
		}
	}
	if err := zw.Close(); err != nil {
		return err
	}
	// The newest valid slot is never the one being overwritten, so any crash
	// here leaves the previous checkpoint intact; the WAL is truncated only
	// after the new slot is durable.
	payload := buf.Bytes()
	if err := e.ckpt.Write([]uint64{e.TxnID}, payload); err != nil {
		return err
	}
	e.ckptDurable = e.ckpt.Bytes(len(payload))
	e.ckptTxn = e.TxnID
	e.sinceCkpt = 0
	return e.wal.Truncate()
}

// ckptSlots is the checkpoint's two-slot record.
func ckptSlots(env *core.Env) core.TwoSlot {
	return core.TwoSlot{FS: env.FS, Names: [2]string{"inp.ckpt.0", "inp.ckpt.1"}, Magic: ckptMagic, Words: 1}
}

// loadCheckpoint restores tuples from the newest valid checkpoint slot, if
// any.
func (e *Engine) loadCheckpoint() error {
	words, payload, ok := e.ckpt.Load()
	if !ok {
		return nil
	}
	e.ckptTxn = words[0]
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	e.ckptDurable = e.ckpt.Bytes(len(payload))
	off := 0
	for off+20 <= len(data) {
		tid := int(binary.LittleEndian.Uint32(data[off:]))
		key := binary.LittleEndian.Uint64(data[off+4:])
		n := int(binary.LittleEndian.Uint64(data[off+12:]))
		off += 20
		if off+n > len(data) || tid >= len(e.Tables) {
			return fmt.Errorf("inp: corrupt checkpoint")
		}
		tm := e.Tables[tid]
		row, err := core.DecodeRow(tm.Schema, data[off:off+n])
		if err != nil {
			return err
		}
		off += n
		if err := e.apply(tm, key, row); err != nil {
			return err
		}
	}
	return nil
}

// Footprint reports durable plus in-memory storage usage (Fig. 14).
func (e *Engine) Footprint() core.Footprint {
	u := e.Env.Arena.Usage()
	return core.Footprint{
		Table:      u[pmalloc.TagTable],
		Index:      u[pmalloc.TagIndex],
		Log:        e.wal.SizeBytes(),
		Checkpoint: e.ckptDurable,
	}
}
