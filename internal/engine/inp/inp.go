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
	"hash/crc32"
	"io"

	"nstore/internal/btree"
	"nstore/internal/core"
	"nstore/internal/mvcc"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

const (
	walFile = "inp.wal"
	// Checkpoints alternate between two slot files: the writer never touches
	// the newest valid checkpoint, so a crash anywhere mid-write (including a
	// torn fsync) costs at most the in-progress slot. This replaces a
	// tmp-file + rename swap, which is not crash-atomic on pmfs.
	ckptSlotA = "inp.ckpt.0"
	ckptSlotB = "inp.ckpt.1"

	ckptMagic   = 0x4e53434b50543031 // "NSCKPT01"
	ckptHdrSize = 40                 // magic, seq, txn floor, payload len (u64) + payload crc (u32) + pad
)

// ckptCRC is the checksum polynomial for checkpoint slot validation.
var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

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
	ckptSeq     uint64
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
	e := &Engine{opts: opts.WithDefaults()}
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
	e := &Engine{opts: opts.WithDefaults()}
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
		e.removeSecondaries(tm, key, h.ReadRow(slot))
		h.FreeSlot(slot)
		e.primary[tm.ID].Delete(key)
	}
	slot, err := h.StoreRow(key, row)
	if err != nil {
		return err
	}
	h.PersistSlot(slot)
	e.primary[tm.ID].Put(key, slot)
	e.insertSecondaries(tm, key, row)
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
	var oldVars []uint64
	for _, ci := range upd.Cols {
		if vp := h.ColVarPtr(slot, ci); vp != 0 {
			oldVars = append(oldVars, vp)
		}
	}
	if err := h.WriteCols(slot, upd.Cols, upd.Vals); err != nil {
		return err
	}
	for _, vp := range oldVars {
		h.FreeVar(vp)
	}
	if old != nil {
		stopIdx := e.Bd.Timer(&e.Bd.Index)
		now := append([]core.Value(nil), old...)
		core.ApplyDelta(now, upd)
		e.refreshSecondaries(tm, key, old, now)
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
	e.removeSecondaries(tm, key, h.ReadRow(slot))
	h.FreeSlot(slot)
	e.primary[tm.ID].Delete(key)
}

func (e *Engine) insertSecondaries(tm *core.TableMeta, key uint64, row []core.Value) {
	for j, ix := range tm.Schema.Secondary {
		e.second[tm.ID][j].Put(core.SecComposite(ix.SecKey(row), key), key)
	}
}

func (e *Engine) removeSecondaries(tm *core.TableMeta, key uint64, row []core.Value) {
	for j, ix := range tm.Schema.Secondary {
		e.second[tm.ID][j].Delete(core.SecComposite(ix.SecKey(row), key))
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
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	_, exists := e.primary[tm.ID].Get(key)
	stopIdx()
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

	stopIdx = e.Bd.Timer(&e.Bd.Index)
	e.primary[tm.ID].Put(key, slot)
	e.insertSecondaries(tm, key, row)
	stopIdx()

	e.undo = append(e.undo, undoRec{op: core.WalInsert, table: tm.ID, key: key})
	e.MV.StageInsert(table, key)
	return nil
}

// Update modifies columns of an existing tuple in place.
func (e *Engine) Update(table string, key uint64, upd core.Update) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	slot, ok := e.primary[tm.ID].Get(key)
	stopIdx()
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

// refreshSecondaries re-keys secondary entries whose key changed.
func (e *Engine) refreshSecondaries(tm *core.TableMeta, key uint64, old, now []core.Value) {
	for j, ix := range tm.Schema.Secondary {
		ok, nk := ix.SecKey(old), ix.SecKey(now)
		if ok != nk {
			e.second[tm.ID][j].Delete(core.SecComposite(ok, key))
			e.second[tm.ID][j].Put(core.SecComposite(nk, key), key)
		}
	}
}

// Delete removes a tuple.
func (e *Engine) Delete(table string, key uint64) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	slot, ok := e.primary[tm.ID].Get(key)
	stopIdx()
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
	stopIdx = e.Bd.Timer(&e.Bd.Index)
	e.primary[tm.ID].Delete(key)
	e.removeSecondaries(tm, key, old)
	stopIdx()

	e.undo = append(e.undo, undoRec{op: core.WalDelete, table: tm.ID, key: key, before: old})
	e.MV.StageDelete(table, key, old)
	return nil
}

// find resolves a primary key to its heap and slot.
func (e *Engine) find(table string, key uint64) (*core.Heap, uint64, bool, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, 0, false, err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	slot, ok := e.primary[tm.ID].Get(key)
	stopIdx()
	return e.heaps[tm.ID], slot, ok, nil
}

// Get reads a tuple by primary key.
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	h, slot, ok, err := e.find(table, key)
	if !ok {
		return nil, false, err
	}
	defer e.Bd.Timer(&e.Bd.Storage)()
	return h.ReadRow(slot), true, nil
}

// GetCols implements core.ColReader: the index lookup of Get, then only the
// named columns' fields and var-slots.
func (e *Engine) GetCols(table string, key uint64, cols []int) ([]core.Value, bool, error) {
	h, slot, ok, err := e.find(table, key)
	if !ok {
		return nil, false, err
	}
	defer e.Bd.Timer(&e.Bd.Storage)()
	return h.ReadCols(slot, cols), true, nil
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	j, ok := tm.SecPos(index)
	if !ok {
		return fmt.Errorf("inp: unknown index %q", index)
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	lo, hi := core.SecRange(sec)
	e.second[tm.ID][j].Iter(lo, func(k, pk uint64) bool {
		if k >= hi {
			return false
		}
		return fn(pk)
	})
	return nil
}

// ScanRange iterates rows with primary key in [from, to).
func (e *Engine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	h := e.heaps[tm.ID]
	e.primary[tm.ID].Iter(from, func(k, slot uint64) bool {
		if k >= to {
			return false
		}
		return fn(k, h.ReadRow(slot))
	})
	return nil
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
	// Write the next slot: header (seq, txn floor, payload crc) + payload,
	// one fsync. The newest valid slot is never the one being overwritten,
	// so any crash here leaves the previous checkpoint intact; the WAL is
	// truncated only after the new slot is durable.
	seq := e.ckptSeq + 1
	name := ckptSlotA
	if seq%2 == 1 {
		name = ckptSlotB
	}
	payload := buf.Bytes()
	img := make([]byte, ckptHdrSize+len(payload))
	binary.LittleEndian.PutUint64(img[0:], ckptMagic)
	binary.LittleEndian.PutUint64(img[8:], seq)
	binary.LittleEndian.PutUint64(img[16:], e.TxnID)
	binary.LittleEndian.PutUint64(img[24:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(img[32:], crc32.Checksum(payload, ckptCRC))
	copy(img[ckptHdrSize:], payload)
	f, err := e.Env.FS.OpenOrCreate(name)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(img, 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	e.ckptDurable = int64(len(img))
	e.ckptSeq = seq
	e.ckptTxn = e.TxnID
	e.sinceCkpt = 0
	return e.wal.Truncate()
}

// readCkptSlot parses one checkpoint slot, returning its sequence number,
// transaction floor, and decompressed payload, or ok=false if the slot is
// missing, torn, or stale debris.
func (e *Engine) readCkptSlot(name string) (seq, txn uint64, payload []byte, ok bool) {
	f, err := e.Env.FS.OpenFile(name)
	if err != nil || f.Size() < ckptHdrSize {
		return 0, 0, nil, false
	}
	raw := make([]byte, f.Size())
	if _, err := f.ReadAt(raw, 0); err != nil {
		return 0, 0, nil, false
	}
	if binary.LittleEndian.Uint64(raw[0:]) != ckptMagic {
		return 0, 0, nil, false
	}
	n := binary.LittleEndian.Uint64(raw[24:])
	if ckptHdrSize+n > uint64(len(raw)) {
		return 0, 0, nil, false
	}
	payload = raw[ckptHdrSize : ckptHdrSize+n]
	if crc32.Checksum(payload, ckptCRC) != binary.LittleEndian.Uint32(raw[32:]) {
		return 0, 0, nil, false
	}
	return binary.LittleEndian.Uint64(raw[8:]), binary.LittleEndian.Uint64(raw[16:]), payload, true
}

// loadCheckpoint restores tuples from the newest valid checkpoint slot, if
// any.
func (e *Engine) loadCheckpoint() error {
	var payload []byte
	for _, name := range []string{ckptSlotA, ckptSlotB} {
		if seq, txn, p, ok := e.readCkptSlot(name); ok && seq > e.ckptSeq {
			e.ckptSeq, e.ckptTxn, payload = seq, txn, p
		}
	}
	if payload == nil {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	e.ckptDurable = int64(ckptHdrSize + len(payload))
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
