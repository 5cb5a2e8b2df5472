// Package logeng implements the log-structured updates engine (Log, §3.3),
// modelled on LevelDB: changes are batched in a MemTable (with a WAL on the
// filesystem for durability) and periodically flushed as immutable SSTables
// organized in a leveled LSM tree with bloom filters and a compaction
// process that bounds read amplification. Reads reconstruct tuples by
// coalescing entries spread across the MemTable and the runs.
//
// Large values are separated WiscKey-style into an append-only value log
// (internal/vlog): the LSM tree carries (segment, offset, len) pointers, so
// flushes and compactions move only keys and pointers. The flush path is an
// explicit staged pipeline — prepare (freeze the memtable, rotate the WAL
// segment), build (write the SSTable and separate values), install (manifest
// commit), release (WAL-segment delete strictly after the manifest commit) —
// followed by leveled compaction and a discard-stat-driven value-log GC that
// rewrites live records and removes dead segments crash-atomically.
package logeng

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"nstore/internal/btree"
	"nstore/internal/core"
	"nstore/internal/engine/lsm"
	"nstore/internal/mvcc"
	"nstore/internal/pmalloc"
	"nstore/internal/vlog"
)

const (
	walPrefix  = "log.wal"
	vlogPrefix = "vlog-"
	// The manifest alternates between two slot files so the newest valid
	// manifest is never the one being overwritten: a crash mid-write
	// (including a torn fsync) invalidates at most the in-progress slot and
	// recovery falls back to the previous generation, whose SSTables are
	// only removed after the next generation is durable. This replaces a
	// tmp-file + rename swap, which is not crash-atomic on pmfs.
	manifestSlotA = "log.manifest.0"
	manifestSlotB = "log.manifest.1"

	manifestMagic   = 0x4e534d414e463032 // "NSMANF02" (v2: vlog head + L0 list)
	manifestHdrSize = 32                 // magic, gen, payload len (u64) + payload crc (u32) + pad

	// gcMinRatio is the dead-byte fraction at which a sealed value-log
	// segment becomes a GC victim.
	gcMinRatio = 0.5
)

// manCRC is the checksum polynomial for manifest slot validation.
var manCRC = crc32.MakeTable(crc32.Castagnoli)

// frozenMem is a memtable sealed by the prepare stage: immutable, still
// readable, protected by its sealed WAL segment until its SSTable's
// manifest commit releases that segment.
type frozenMem struct {
	tree *btree.Tree
	// floor is the highest TxnID the memtable can contain (captured at the
	// freeze). It becomes the manifest's WAL-replay floor when this
	// memtable installs — using the freeze-time floor, not the install-time
	// TxnID, keeps later WAL segments replayable.
	floor uint64
	// walSeq is the sealed WAL segment protecting this memtable; released
	// only after the manifest commit that installs its SSTable.
	walSeq uint64
	// gen orders freezes; value-log segments condemned by GC are deleted
	// once the memtable generation holding their repointed records
	// installs.
	gen uint64
}

// condemnedSeg is a GC victim awaiting crash-safe deletion: its live
// records were rewritten into memtable generation gen, so it may be removed
// only after that generation's flush installs (release stage).
type condemnedSeg struct {
	seg uint32
	gen uint64
}

// Engine is the log-structured updates engine.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts  core.Options
	cache *blockCache

	mem      *btree.Tree // packed tree key -> memtable entry chunk
	memCount int
	memGen   uint64
	// imm is the frozen memtable whose flush has not installed (nil: none).
	// There is at most one: a failed flush is retried before the next freeze.
	imm    *frozenMem
	second [][]*btree.Tree // volatile secondary indexes

	wal    *core.FsWAL
	vl     *vlog.Manager // nil when value separation is disabled
	l0     []*sstable    // flushed, not yet compacted runs, oldest first
	levels []*sstable    // levels[i] holds one run, ~k^i MemTables big
	seq    uint64
	manGen uint64 // manifest generation (newest valid slot wins)
	// walFloor is the highest TxnID fully contained in the SSTables; WAL
	// records at or below it are stale debris from reused extents.
	walFloor uint64

	condemned []condemnedSeg
	fstats    core.FlushStats

	walMark  int
	undo     []memUndo
	secUndo  []secUndo
	txnFrees []pmalloc.Ptr // chunks the running transaction superseded
	// superseded are the chunks committed writes superseded, freed at the
	// next publish: a lazy pre-image of the pending groups may name one
	// (mvcc.Store.StageLazy).
	superseded []pmalloc.Ptr

	// pendingPtrs are value-log pointers harvested from the manifest runs
	// during recovery, validated once the value log is open.
	pendingPtrs []core.VlogPtr

	compactions int
}

type memUndo struct {
	key    uint64
	oldPtr uint64 // 0 = key absent before
	newPtr uint64
}

// secUndo is a secondary-index change rollback reverses.
type secUndo struct {
	table int
	core.SecFix
}

// New creates a fresh Log engine.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := lsm.Validate(schemas, opts); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	wal, err := core.NewSegmentedFsWAL(env.FS, walPrefix, e.opts.GroupCommitSize)
	if err != nil {
		return nil, err
	}
	if err := wal.UseArenaBuffer(env.Arena); err != nil {
		return nil, err
	}
	e.wal = wal
	e.cache = newBlockCache(env.Arena, 0)
	e.buildVolatile()
	if e.opts.VlogThreshold > 0 {
		b := vlog.NewFSBackend(env.FS, vlogPrefix)
		// Clear stale segments of a previous incarnation.
		if ids, err := b.List(); err == nil {
			for _, id := range ids {
				_ = b.Remove(id)
			}
		}
		vl, err := vlog.Open(b, vlog.Config{SegSize: int64(e.opts.VlogSegSize)})
		if err != nil {
			return nil, err
		}
		e.vl = vl
	}
	if err := e.writeManifest(0); err != nil {
		return nil, err
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) buildVolatile() {
	e.mem = btree.New(e.Env.Arena, e.opts.BTreeNodeSize)
	e.second = nil
	for _, tm := range e.Tables {
		var secs []*btree.Tree
		for range tm.Schema.Secondary {
			secs = append(secs, btree.New(e.Env.Arena, e.opts.BTreeNodeSize))
		}
		e.second = append(e.second, secs)
	}
}

// Open recovers a Log engine: reopen the SSTables from the manifest, replay
// the value-log head and validate every pointer the runs carry, rebuild the
// MemTable from the WAL segments, remove orphaned runs from interrupted
// flushes/compactions, and rebuild the secondary indexes (§3.3).
func Open(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := lsm.Validate(schemas, opts); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	e.cache = newBlockCache(env.Arena, 0)
	e.buildVolatile()

	var head vlog.Head
	if err := e.loadManifest(&head); err != nil {
		return nil, err
	}
	if e.opts.VlogThreshold > 0 {
		vl, err := vlog.Open(vlog.NewFSBackend(env.FS, vlogPrefix), vlog.Config{SegSize: int64(e.opts.VlogSegSize)})
		if err != nil {
			return nil, err
		}
		// Value-log head replay: everything past the manifest-checkpointed
		// durable head is debris (records referenced only by uninstalled
		// SSTables or by memtable repoints lost with the crash).
		if err := vl.RestrictToHead(head); err != nil {
			return nil, err
		}
		e.vl = vl
	}
	if err := e.validatePendingPtrs(); err != nil {
		return nil, err
	}
	e.removeOrphans()

	wal, err := core.OpenSegmentedFsWAL(env.FS, walPrefix, e.opts.GroupCommitSize)
	if err != nil {
		return nil, err
	}
	e.wal = wal
	maxTxn, err := e.replayWAL()
	if err != nil {
		return nil, err
	}
	e.TxnID = maxTxn
	if e.walFloor > e.TxnID {
		e.TxnID = e.walFloor
	}
	if err := e.rebuildSecondaries(); err != nil {
		return nil, err
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// validatePendingPtrs vets every value-log pointer harvested from the
// manifest runs: a pointer into a segment that no longer exists is legal
// (GC removed it and the entry is shadowed), but a pointer past a live
// segment's valid prefix means durable data vanished.
func (e *Engine) validatePendingPtrs() error {
	if len(e.pendingPtrs) == 0 {
		return nil
	}
	if e.vl == nil {
		return core.Corrupt(fmt.Errorf("logeng: manifest runs carry value-log pointers but separation is disabled"))
	}
	for _, p := range e.pendingPtrs {
		if err := e.vl.Validate(p); err != nil {
			return err
		}
	}
	e.pendingPtrs = nil
	return nil
}

func (e *Engine) replayWAL() (uint64, error) {
	return e.wal.ReplaySegments(e.walFloor, func(r core.WalRecord) error {
		e.Rec.Records++
		tk := core.TreePrimary(r.Table, r.Key)
		var ent lsm.Entry
		switch r.Type {
		case core.WalInsert:
			ent = lsm.Entry{Kind: lsm.KindFull, Payload: r.After}
		case core.WalUpdate:
			ent = lsm.Entry{Kind: lsm.KindDelta, Payload: r.After}
		case core.WalDelete:
			ent = lsm.Entry{Kind: lsm.KindTomb}
		default:
			return nil
		}
		oldPtr, _, err := e.putMem(e.Tables[r.Table].Schema, tk, ent)
		if err != nil {
			return err
		}
		if oldPtr != 0 {
			e.Env.Arena.Free(oldPtr)
		}
		return nil
	})
}

func (e *Engine) rebuildSecondaries() error {
	for _, tm := range e.Tables {
		if len(tm.Schema.Secondary) == 0 {
			continue
		}
		err := e.ScanRange(tm.Schema.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			for _, f := range tm.Schema.SecFixes(nil, pk, nil, row) {
				e.fixSecondary(tm.ID, f)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// discardIfPtr feeds the value log's discard stats when a chunk holding a
// separated-value pointer is superseded or rolled back.
func (e *Engine) discardIfPtr(chunk uint64) {
	if e.vl == nil || chunk == 0 {
		return
	}
	if e.Env.Dev.ReadU8(int64(chunk)) != lsm.KindFullPtr {
		return
	}
	var buf [core.VlogPtrSize]byte
	e.Env.Dev.Read(int64(chunk)+5, buf[:])
	if ptr, ok := core.DecodeVlogPtr(buf[:]); ok {
		e.vl.Discard(ptr.Seg, vlog.DiscardOf(ptr))
	}
}

// resolveEntry is the lsm.Resolver: it materializes a KindFullPtr entry by
// reading the value log.
func (e *Engine) resolveEntry(key uint64, ent lsm.Entry) (lsm.Entry, error) {
	ptr, ok := core.DecodeVlogPtr(ent.Payload)
	if !ok {
		return lsm.Entry{}, core.Corrupt(fmt.Errorf("logeng: malformed value-log pointer for key %d", key))
	}
	if e.vl == nil {
		return lsm.Entry{}, core.Corrupt(fmt.Errorf("logeng: value-log pointer for key %d with separation disabled", key))
	}
	val, err := e.vl.Read(ptr, key)
	if err != nil {
		return lsm.Entry{}, err
	}
	return lsm.Entry{Kind: lsm.KindFull, Payload: val}, nil
}

// putMem merges ent over any existing memtable entry for tk and installs
// the merged chunk. The superseded chunk is returned for deferred freeing.
func (e *Engine) putMem(s *core.Schema, tk uint64, ent lsm.Entry) (oldPtr, newPtr uint64, err error) {
	oldPtr, _ = e.mem.Get(tk)
	newPtr, err = e.putMemAt(s, tk, oldPtr, ent)
	return oldPtr, newPtr, err
}

// putMemAt installs ent as tk's memtable entry over old, the chunk the
// memtable holds for tk (0: none). A full image or a tombstone replaces old;
// only a delta reads it, to fold itself in.
func (e *Engine) putMemAt(s *core.Schema, tk, old uint64, ent lsm.Entry) (uint64, error) {
	if old != 0 && ent.Kind == lsm.KindDelta {
		prev, err := lsm.ReadEntryChunk(e.Env.Arena, old)
		if err != nil {
			return 0, err
		}
		if ent, err = lsm.MergeR(s, tk, ent, prev, e.resolveEntry); err != nil {
			return 0, err
		}
	}
	np, err := lsm.WriteEntryChunk(e.Env.Arena, ent)
	if err != nil {
		return 0, err
	}
	e.mem.Put(tk, np)
	if old == 0 {
		e.memCount++
	}
	return np, nil
}

// Name returns "log".
func (e *Engine) Name() string { return "log" }

// Begin starts a transaction.
func (e *Engine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.walMark = e.wal.Mark()
	e.undo = e.undo[:0]
	e.secUndo = e.secUndo[:0]
	e.txnFrees = e.txnFrees[:0]
	return nil
}

// Commit group-commits the WAL; when the MemTable is full it runs the
// staged flush pipeline inline. A pipeline failure after the commit barrier
// is surfaced to the caller, but the transaction IS durable: the frozen
// memtable and its WAL segment stay retained, and the next commit retries
// the flush.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	err := e.wal.TxnCommitted(e.TxnID)
	stop()
	if err != nil {
		// The commit record never became durable; the txn's memtable and
		// index changes are still undoable. Roll back and end the txn so
		// the caller can Begin again and retry.
		if rerr := e.rollback(); rerr != nil {
			return core.Corrupt(errors.Join(err, rerr))
		}
		return err
	}
	durable := e.wal.PendingTxns() == 0
	e.MV.CommitStaged(e.TxnID, durable)
	e.superseded = append(e.superseded, e.txnFrees...)
	e.txnFrees = e.txnFrees[:0]
	if durable {
		e.freeSuperseded()
	}
	var flushErr error
	if e.memCount >= e.opts.MemTableCap || e.imm != nil {
		flushErr = e.triggerFlush(e.memCount >= e.opts.MemTableCap)
	}
	endErr := e.EndTx()
	if flushErr != nil {
		// The transaction committed; only the pipeline failed. The caller
		// may retry the flush (or just keep committing) — acked commits
		// stay durable via the retained WAL segments.
		return flushErr
	}
	return endErr
}

// publish publishes every pending group to the snapshot readers, once the
// WAL's group has reached the device, and frees the chunks their writes
// superseded: no lazy pre-image names one any more.
func (e *Engine) publish() {
	e.MV.PublishDurable()
	e.freeSuperseded()
}

// freeSuperseded frees the chunks committed writes superseded.
func (e *Engine) freeSuperseded() {
	for _, p := range e.superseded {
		e.discardIfPtr(uint64(p))
		e.Env.Arena.Free(p)
	}
	e.superseded = e.superseded[:0]
}

// Abort rolls back memtable and secondary-index changes.
func (e *Engine) Abort() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	return e.rollback()
}

// rollback undoes the running transaction's memtable and secondary-index
// changes, drops its buffered WAL records, and ends the transaction. Shared
// by Abort and the commit-failure path, so every exit leaves the engine
// ready for Begin.
func (e *Engine) rollback() error {
	for i := len(e.undo) - 1; i >= 0; i-- {
		u := e.undo[i]
		if u.oldPtr != 0 {
			e.mem.Put(u.key, u.oldPtr)
		} else {
			e.mem.Delete(u.key)
			e.memCount--
		}
		e.discardIfPtr(u.newPtr)
		e.Env.Arena.Free(u.newPtr)
	}
	for i := len(e.secUndo) - 1; i >= 0; i-- {
		u := e.secUndo[i]
		u.Add = !u.Add
		e.fixSecondary(u.table, u.SecFix)
	}
	e.wal.DropTail(e.walMark)
	e.MV.DropStaged()
	e.txnFrees = e.txnFrees[:0]
	return e.EndTx()
}

// fixSecondaries carries out an operation's secondary-index changes, each
// recorded for rollback: index time.
func (e *Engine) fixSecondaries(tm *core.TableMeta, fixes []core.SecFix) {
	defer e.Bd.Timer(&e.Bd.Index)()
	for _, f := range fixes {
		e.fixSecondary(tm.ID, f)
		e.secUndo = append(e.secUndo, secUndo{tm.ID, f})
	}
}

// fixSecondary adds or removes one secondary-index entry.
func (e *Engine) fixSecondary(table int, f core.SecFix) {
	if f.Add {
		e.second[table][f.Idx].Put(f.Composite(), f.PK)
	} else {
		e.second[table][f.Idx].Delete(f.Composite())
	}
}

// applyMem routes one logical change through the memtable with undo
// tracking. memPtr is the memtable's entry for the key, as exists found it
// (0: none).
func (e *Engine) applyMem(tm *core.TableMeta, key, memPtr uint64, ent lsm.Entry) error {
	tk := core.TreePrimary(tm.ID, key)
	newPtr, err := e.putMemAt(tm.Schema, tk, memPtr, ent)
	if err != nil {
		return err
	}
	e.undo = append(e.undo, memUndo{key: tk, oldPtr: memPtr, newPtr: newPtr})
	if memPtr != 0 {
		e.txnFrees = append(e.txnFrees, pmalloc.Ptr(memPtr))
	}
	return nil
}

// logWrite appends an operation's WAL record. Only the after-image is
// logged: replay redoes it, and rollback undoes through the memtable.
func (e *Engine) logWrite(typ uint8, tm *core.TableMeta, key uint64, after []byte) {
	defer e.Bd.Timer(&e.Bd.Recovery)()
	e.wal.Append(core.WalRecord{Type: typ, TxnID: e.TxnID, Table: tm.ID, Key: key, After: after})
}

// Insert adds a tuple.
func (e *Engine) Insert(table string, key uint64, row []core.Value) error {
	tm, err := e.InsertTable(table, key)
	if err != nil {
		return err
	}
	live, memPtr, err := e.exists(core.TreePrimary(tm.ID, key))
	if err != nil {
		return err
	}
	if live {
		return core.ErrKeyExists
	}
	img := core.EncodeRow(tm.Schema, row)
	e.logWrite(core.WalInsert, tm, key, img)
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	err = e.applyMem(tm, key, memPtr, lsm.Entry{Kind: lsm.KindFull, Payload: img})
	stopSt()
	if err != nil {
		return err
	}
	e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, nil, row))
	e.MV.StageInsert(table, key)
	return nil
}

// Update records the updated fields as a delta entry. The delta is all the
// memtable needs: the tuple is coalesced only when the update can move it
// within a secondary index, or a pinned view needs its pre-image now.
// Otherwise its pre-image is staged as a pointer, the chunk the delta
// superseded, which a view pinned before the group's fsync has coalesced
// (PreImage).
func (e *Engine) Update(table string, key uint64, upd core.Update) error {
	tm, err := e.WriteTable(table)
	if err != nil {
		return err
	}
	live, memPtr, err := e.exists(core.TreePrimary(tm.ID, key))
	if err != nil {
		return err
	}
	if !live {
		return core.ErrKeyNotFound
	}
	var old []core.Value
	reindex := tm.Schema.IndexReads(upd.Cols)
	if reindex || e.MV.Capture() {
		if old, err = e.liveRow(tm, key); err != nil {
			return err
		}
	}
	delta := core.EncodeDelta(tm.Schema, upd)
	e.logWrite(core.WalUpdate, tm, key, delta)
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	err = e.applyMem(tm, key, memPtr, lsm.Entry{Kind: lsm.KindDelta, Payload: delta})
	stopSt()
	if err != nil {
		return err
	}
	if old == nil {
		e.MV.StageLazy(table, key, memPtr)
		return nil
	}
	if reindex {
		now := core.CloneRow(old)
		core.ApplyDelta(now, upd)
		e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, old, now))
	}
	pre := make([]core.Value, len(upd.Cols))
	for j, ci := range upd.Cols {
		pre[j] = old[ci]
	}
	e.MV.StageUpdate(table, key, upd.Cols, pre)
	return nil
}

// Delete marks the tuple with a tombstone; space is reclaimed during
// compaction (§3.3). The tuple is coalesced only for a table with secondary
// indexes, or for a pinned view; otherwise its pre-image is a pointer, as
// for Update.
func (e *Engine) Delete(table string, key uint64) error {
	tm, err := e.WriteTable(table)
	if err != nil {
		return err
	}
	live, memPtr, err := e.exists(core.TreePrimary(tm.ID, key))
	if err != nil {
		return err
	}
	if !live {
		return core.ErrKeyNotFound
	}
	var old []core.Value
	if len(tm.Schema.Secondary) > 0 || e.MV.Capture() {
		if old, err = e.liveRow(tm, key); err != nil {
			return err
		}
	}
	e.logWrite(core.WalDelete, tm, key, nil)
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	err = e.applyMem(tm, key, memPtr, lsm.Entry{Kind: lsm.KindTomb})
	stopSt()
	if err != nil {
		return err
	}
	if old == nil {
		e.MV.StageLazy(table, key, memPtr)
		return nil
	}
	e.fixSecondaries(tm, tm.Schema.SecFixes(nil, key, old, nil))
	e.MV.StageDelete(table, key, old)
	return nil
}

// liveRow coalesces the row of a key exists called live. The probe and the
// coalesced chain end at the same newest entry, so a row that is not there
// is a corrupt chain.
func (e *Engine) liveRow(tm *core.TableMeta, key uint64) ([]core.Value, error) {
	row, found, err := e.Get(tm.Schema.Name, key)
	if err == nil && !found {
		err = core.Corrupt(fmt.Errorf("logeng: key %d of %s is live by its newest entry's kind, absent by its chain", key, tm.Schema.Name))
	}
	return row, err
}

// PreImage is mvcc.PreImager: the row of key before the write that
// superseded ref, the memtable chunk the write replaced (0: the key was not
// in the memtable, so nothing above the frozen memtable and the runs held
// it). Nothing below ref changes before the write's group is published: ref
// is freed at the publish, and a memtable freezes only after one.
func (e *Engine) PreImage(table string, key, ref uint64) ([]core.Value, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	tk := core.TreePrimary(tm.ID, key)
	var top []lsm.Entry
	if ref != 0 {
		ent, err := lsm.ReadEntryChunk(e.Env.Arena, ref)
		if err != nil {
			return nil, err
		}
		top = append(top, ent)
	}
	row, _, err := e.coalesce(tm, tk, top, false)
	return row, err
}

// exists decides from the kind of tk's newest entry alone whether the tuple
// is live: the first entry of the memtable, the frozen memtable, L0 newest
// first, then the levels. A delta is only ever written over a live tuple,
// and a delete above it would be the newer entry, so anything but a
// tombstone means the tuple exists. It reads a memtable chunk's kind byte,
// or a run's filter, the offsets and keys its search probes and the entry's
// header: no payload, and no value log. It also returns the memtable's
// entry for tk (0: none), which the write folds into.
func (e *Engine) exists(tk uint64) (live bool, memPtr uint64, err error) {
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	for i, t := range e.mems(true) {
		if t == nil {
			continue
		}
		p, ok := t.Get(tk)
		if !ok {
			continue
		}
		kind, err := lsm.ReadEntryKind(e.Env.Arena, p)
		stopSt()
		if i == 0 {
			memPtr = p
		}
		return kind != lsm.KindTomb, memPtr, err
	}
	stopSt()
	defer e.Bd.Timer(&e.Bd.Index)()
	var kind uint8
	found := false
	err = e.eachRun(func(run *sstable) (bool, error) {
		var err error
		kind, found, err = run.kindOf(e.cache, e.Env.Dev, tk)
		return found, err
	})
	return found && kind != lsm.KindTomb, 0, err
}

// mems returns the memtables newest first: the active one if active is set,
// then the frozen one, if any; an entry is nil where there is none.
func (e *Engine) mems(active bool) [2]*btree.Tree {
	var ts [2]*btree.Tree
	if active {
		ts[0] = e.mem
	}
	if e.imm != nil {
		ts[1] = e.imm.tree
	}
	return ts
}

// eachRun calls fn on every run newest first — L0 newest to oldest, then the
// levels shallow to deep — until fn says stop or fails.
func (e *Engine) eachRun(fn func(run *sstable) (stop bool, err error)) error {
	for i := len(e.l0) - 1; i >= 0; i-- {
		if stop, err := fn(e.l0[i]); stop || err != nil {
			return err
		}
	}
	for _, run := range e.levels {
		if run == nil {
			continue
		}
		if stop, err := fn(run); stop || err != nil {
			return err
		}
	}
	return nil
}

// chain collects the entries for a tree key newest-first after those in
// entries — the active memtable if active is set, the frozen memtable, L0
// runs, then the levels — stopping at the first non-delta (terminal) entry.
func (e *Engine) chain(tk uint64, entries []lsm.Entry, active bool) ([]lsm.Entry, error) {
	done := func() bool { return len(entries) > 0 && entries[len(entries)-1].Kind != lsm.KindDelta }
	if done() {
		return entries, nil
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	for _, t := range e.mems(active) {
		if t == nil {
			continue
		}
		p, ok := t.Get(tk)
		if !ok {
			continue
		}
		ent, err := lsm.ReadEntryChunk(e.Env.Arena, p)
		if err != nil {
			stopSt()
			return nil, err
		}
		if entries = append(entries, ent); done() {
			stopSt()
			return entries, nil
		}
	}
	stopSt()
	defer e.Bd.Timer(&e.Bd.Index)()
	err := e.eachRun(func(run *sstable) (bool, error) {
		ent, ok, err := run.get(e.cache, e.Env.Dev, tk)
		if ok {
			entries = append(entries, ent)
		}
		return done(), err
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// coalesce reconstructs tk's tuple from the entries in top and those chain
// finds below them.
func (e *Engine) coalesce(tm *core.TableMeta, tk uint64, top []lsm.Entry, active bool) ([]core.Value, bool, error) {
	entries, err := e.chain(tk, top, active)
	if err != nil {
		return nil, false, err
	}
	return e.rowOf(tm, tk, entries)
}

// rowOf coalesces every entry of tk, newest first. A chain of deltas with no
// image under it is corrupt: a delta is only ever written over a live tuple.
func (e *Engine) rowOf(tm *core.TableMeta, tk uint64, entries []lsm.Entry) ([]core.Value, bool, error) {
	row, exists, resolved, err := lsm.CoalesceR(tm.Schema, tk, entries, e.resolveEntry)
	if err == nil && !resolved && len(entries) > 0 {
		err = core.Corrupt(fmt.Errorf("logeng: key %d of %s has deltas and no image under them", core.TreePK(tk), tm.Schema.Name))
	}
	if err != nil {
		return nil, false, err
	}
	return row, exists, nil
}

// Get reconstructs a tuple by coalescing entries from the MemTable and the
// LSM runs, newest first, stopping at the first full image or tombstone.
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, false, err
	}
	return e.coalesce(tm, core.TreePrimary(tm.ID, key), nil, true)
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	return core.ScanSecondary(&e.Base, e.second, table, index, sec, fn)
}

// ScanRange merges the MemTable, the frozen memtable, and every run over the
// key range, coalescing per key.
func (e *Engine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	lo, hi := core.TreePrimaryRange(tm.ID, from, to)
	if to > core.TreePK(^uint64(0)) {
		hi = core.TreePrimary(tm.ID, core.TreePK(^uint64(0)))
	}

	// Tree-backed sources sliced over the range, newest first: the active
	// memtable, then the frozen one (memtables are small).
	type kv struct {
		k uint64
		e lsm.Entry
	}
	var readErr error
	collect := func(t *btree.Tree) []kv {
		var out []kv
		t.Iter(lo, func(k, p uint64) bool {
			if k >= hi {
				return false
			}
			ent, err := lsm.ReadEntryChunk(e.Env.Arena, p)
			if err != nil {
				readErr = err
				return false
			}
			out = append(out, kv{k, ent})
			return true
		})
		return out
	}
	var memSrcs [][]kv
	memSrcs = append(memSrcs, collect(e.mem))
	if e.imm != nil {
		memSrcs = append(memSrcs, collect(e.imm.tree))
	}
	if readErr != nil {
		return readErr
	}
	memIdx := make([]int, len(memSrcs))

	// Run-backed sources, newest first.
	var runs []*runScanner
	err = e.eachRun(func(run *sstable) (bool, error) {
		off, err := run.lowerBound(e.cache, lo)
		if err != nil {
			return false, err
		}
		s := run.scanRange(e.cache, off, hi)
		if s.next() {
			runs = append(runs, s)
		}
		return false, s.err
	})
	if err != nil {
		return err
	}

	for {
		// Find the smallest next key across sources.
		minKey := ^uint64(0)
		for s, src := range memSrcs {
			if memIdx[s] < len(src) && src[memIdx[s]].k < minKey {
				minKey = src[memIdx[s]].k
			}
		}
		for _, s := range runs {
			if s.valid && s.key < minKey {
				minKey = s.key
			}
		}
		if minKey >= hi {
			return nil
		}
		// Gather entries for minKey, newest source first.
		var entries []lsm.Entry
		for s, src := range memSrcs {
			if memIdx[s] < len(src) && src[memIdx[s]].k == minKey {
				entries = append(entries, src[memIdx[s]].e)
				memIdx[s]++
			}
		}
		for _, s := range runs {
			if s.valid && s.key == minKey {
				entries = append(entries, s.ent)
				if !s.next() && s.err != nil {
					return s.err
				}
			}
		}
		row, exists, err := e.rowOf(tm, minKey, entries)
		if err != nil {
			return err
		}
		if exists {
			if !fn(core.TreePK(minKey), row) {
				return nil
			}
		}
	}
}

// Flush forces the pending group commit (not a MemTable flush).
func (e *Engine) Flush() error {
	defer e.Exclude()()
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	if err := e.wal.Flush(); err != nil {
		return err
	}
	e.publish()
	return nil
}

// FlushMemTable forces the MemTable through the full pipeline (test/bench
// hook).
func (e *Engine) FlushMemTable() error {
	defer e.Exclude()()
	return e.triggerFlush(true)
}

// WalStats exposes the WAL's cumulative counters (core.WalStatser).
func (e *Engine) WalStats() core.WalStats { return e.wal.Stats() }

// FlushStats exposes the staged-pipeline and value-log counters
// (core.FlushStatser). A metrics scrape calls it from outside the owner
// goroutine, so it reads under the exclusion, as a snapshot view does; the
// owner must not call it inside its own transaction.
func (e *Engine) FlushStats() core.FlushStats {
	x := e.Exclusion()
	x.Lock()
	defer x.Unlock()
	st := e.fstats
	if e.vl != nil {
		vs := e.vl.Stats()
		st.VlogSegments = int64(vs.Segments)
		st.VlogBytes = vs.Bytes
		st.VlogDiscard = vs.Discard
		st.VlogReclaimed = vs.Reclaimed
	}
	return st
}

// Compactions returns the number of merge compactions performed.
func (e *Engine) Compactions() int { return e.compactions }

// GCVlog forces one value-log GC pass over the deadest sealed segment, if
// any qualifies (test/bench hook). The condemned segment is deleted once
// the memtable generation holding its repointed records installs.
func (e *Engine) GCVlog() error {
	defer e.Exclude()()
	return e.gc(0)
}

// triggerFlush first retries the frozen memtable whose flush failed, if any,
// then — when freeze is set — runs the prepare stage on the active memtable
// and flushes it. Retrying first keeps one memtable from freezing behind
// another: the later one's install would advance the manifest floor past the
// older one's WAL segment, and replay would skip it.
func (e *Engine) triggerFlush(freeze bool) error {
	if e.imm != nil {
		if err := e.flush(); err != nil {
			return err
		}
	}
	if !freeze || e.memCount == 0 {
		return nil
	}
	start := time.Now()
	err := e.freeze()
	e.fstats.PrepareNs += time.Since(start).Nanoseconds()
	if err != nil {
		return err
	}
	return e.flush()
}

// freeze is the prepare stage: flush the group buffer (the durability
// barrier), seal the WAL segment, and swap in a fresh memtable. The frozen
// memtable (e.imm) stays readable until its SSTable installs.
func (e *Engine) freeze() error {
	if err := e.wal.Flush(); err != nil {
		return err
	}
	e.publish()
	sealed, err := e.wal.Rotate()
	if err != nil {
		return err
	}
	e.imm = &frozenMem{tree: e.mem, floor: e.TxnID, walSeq: sealed, gen: e.memGen}
	e.memGen++
	e.mem = btree.New(e.Env.Arena, e.opts.BTreeNodeSize)
	e.memCount = 0
	return nil
}

// sstBuild is what a flush's build stage made: the SSTable, the memtable
// chunks it copied (freed at release), and the value-log records it appended
// (marked dead if the flush fails).
type sstBuild struct {
	run      *sstable
	free     []uint64
	appended []core.VlogPtr
}

// flush runs the frozen memtable through build (buildSST), install — append
// the SSTable to L0 and commit the manifest — and release: delete the WAL
// segment, free the memtable, and compact. A build or install failure undoes
// the build and leaves the memtable frozen for retry; its WAL segment is
// still live, so acked commits stay durable.
func (e *Engine) flush() error {
	fz := e.imm
	var b sstBuild
	return lsm.RunStages(&e.fstats, "flush",
		func() (err error) {
			b, err = e.buildSST(fz)
			return err
		},
		func() error {
			e.l0 = append(e.l0, b.run)
			if err := e.writeManifest(fz.floor); err != nil {
				e.l0 = e.l0[:len(e.l0)-1]
				e.dropBuild(b.run.name, b.appended)
				return err
			}
			e.imm = nil
			return nil
		},
		func() error {
			// Strictly after the manifest commit: the flushed data is now
			// re-creatable from the SSTable, so the WAL segment may go.
			if err := e.wal.ReleaseThrough(fz.walSeq); err != nil {
				return err
			}
			for _, p := range b.free {
				e.Env.Arena.Free(pmalloc.Ptr(p))
			}
			fz.tree.Release()
			e.releaseCondemned(fz.gen)
			e.fstats.Flushes++
			return e.compact()
		})
}

// buildSST is a flush's build stage: it writes fz as an SSTable, separating
// large values into the value log and syncing their records, which must be
// durable before the manifest that installs pointers to them. A failure
// removes the partial table and marks the appended values dead.
func (e *Engine) buildSST(fz *frozenMem) (b sstBuild, err error) {
	stop := e.Bd.Timer(&e.Bd.Storage)
	defer stop()
	e.seq++
	name := fmt.Sprintf("sst-%06d", e.seq)
	w, err := newSSTWriter(e.Env.FS, name)
	if err != nil {
		e.fstats.Failures++
		return b, err
	}
	defer func() {
		if err != nil {
			e.dropBuild(name, b.appended)
		}
	}()
	fz.tree.Iter(0, func(k, p uint64) bool {
		var ent lsm.Entry
		if ent, err = lsm.ReadEntryChunk(e.Env.Arena, p); err != nil {
			return false
		}
		if e.vl != nil && ent.Kind == lsm.KindFull && len(ent.Payload) >= e.opts.VlogThreshold {
			var ptr core.VlogPtr
			if ptr, err = e.vl.Append(k, ent.Payload); err != nil {
				return false
			}
			b.appended = append(b.appended, ptr)
			ent = lsm.Entry{Kind: lsm.KindFullPtr, Payload: ptr.Encode(nil)}
		}
		w.add(k, ent)
		b.free = append(b.free, p)
		return true
	})
	if err != nil {
		return b, err
	}
	if e.vl != nil {
		if err = e.vl.Sync(); err != nil {
			return b, err
		}
	}
	if err = w.finish(); err != nil {
		return b, err
	}
	b.run, err = openSSTable(e.Env.FS, e.Env.Arena, name)
	return b, err
}

// dropBuild undoes a failed flush's build: the SSTable file, and the value
// bytes appended for it (dead weight the GC can count).
func (e *Engine) dropBuild(name string, appended []core.VlogPtr) {
	e.cache.drop(name)
	_ = e.Env.FS.Remove(name)
	for _, p := range appended {
		e.vl.Discard(p.Seg, vlog.DiscardOf(p))
	}
	e.fstats.Failures++
}

// releaseCondemned deletes GC victim segments whose repointed records are
// now installed (their memtable generation <= gen just released).
func (e *Engine) releaseCondemned(gen uint64) {
	kept := e.condemned[:0]
	for _, c := range e.condemned {
		if c.gen <= gen {
			_ = e.vl.Remove(c.seg)
		} else {
			kept = append(kept, c)
		}
	}
	e.condemned = kept
}

// compact folds every L0 run into the levels (one run per level, each deeper
// run larger), then runs a value-log GC pass if the merges' discard stats
// pushed a segment over the threshold.
func (e *Engine) compact() error {
	if len(e.l0) == 0 {
		return nil
	}
	var l0n, rest int
	var cur *sstable
	var obsolete []*sstable

	fail := func(err error) error {
		// Drop intermediate runs the cascade produced; input runs (still
		// referenced from l0/levels and the durable manifest) stay.
		isInput := func(t *sstable) bool {
			for _, r := range e.l0 {
				if r == t {
					return true
				}
			}
			for _, r := range e.levels {
				if r == t {
					return true
				}
			}
			return false
		}
		for _, o := range obsolete {
			if o != nil && o != cur && !isInput(o) {
				o.release(e.Env.Arena, e.cache)
				_ = e.Env.FS.Remove(o.name)
			}
		}
		if cur != nil && !isInput(cur) {
			cur.release(e.Env.Arena, e.cache)
			_ = e.Env.FS.Remove(cur.name)
		}
		e.fstats.Failures++
		return err
	}

	return lsm.RunStages(&e.fstats, "compact",
		func() error {
			stop := e.Bd.Timer(&e.Bd.Storage)
			defer stop()
			l0n = len(e.l0)
			cur = e.l0[l0n-1]
			fold := func(older *sstable, dropTombs bool) error {
				merged, err := e.mergeRuns(cur, older, dropTombs)
				if err != nil {
					return err
				}
				obsolete = append(obsolete, cur, older)
				cur = merged
				e.compactions++
				return nil
			}
			// Newer L0 runs fold over older ones, then cascade into the levels.
			for i := l0n - 2; i >= 0; i-- {
				if err := fold(e.l0[i], false); err != nil {
					return fail(err)
				}
			}
			for rest < len(e.levels) && e.levels[rest] != nil {
				rest++
			}
			deeper := false
			for j := rest + 1; j < len(e.levels); j++ {
				if e.levels[j] != nil {
					deeper = true
				}
			}
			for i := 0; i < rest; i++ {
				// Tombstones may only be dropped on the final merge of the
				// cascade, and only when no deeper run could still hold the
				// shadowed tuples.
				if err := fold(e.levels[i], i == rest-1 && !deeper); err != nil {
					return fail(err)
				}
			}
			return nil
		},
		func() error {
			savedL0, savedLevels := e.l0, append([]*sstable(nil), e.levels...)
			e.l0 = append([]*sstable(nil), e.l0[l0n:]...)
			for i := 0; i < rest; i++ {
				e.levels[i] = nil
			}
			for len(e.levels) <= rest {
				e.levels = append(e.levels, nil)
			}
			e.levels[rest] = cur
			if err := e.writeManifest(e.walFloor); err != nil {
				e.l0, e.levels = savedL0, savedLevels
				return fail(err)
			}
			return nil
		},
		func() error {
			for _, o := range obsolete {
				o.release(e.Env.Arena, e.cache)
				_ = e.Env.FS.Remove(o.name)
			}
			e.fstats.Compactions++
			// The compaction has installed; a failed GC pass is counted and
			// leaves its victim in place.
			_ = e.gc(gcMinRatio)
			return nil
		})
}

// gc runs a value-log GC pass if a sealed segment's dead ratio reaches
// minRatio (0 forces the best victim regardless). A failed pass is counted in
// FlushStats.Failures; the victim stays, so the pointers into it still
// resolve.
func (e *Engine) gc(minRatio float64) error {
	if e.vl == nil {
		return nil
	}
	victim, ok := e.vl.PickVictim(minRatio)
	if !ok {
		return nil
	}
	return lsm.RunStages(&e.fstats, "gc", func() error {
		if err := e.gcSegment(victim); err != nil {
			e.fstats.Failures++
			return err
		}
		e.fstats.GCRuns++
		e.vl.NoteGCRun()
		return nil
	}, nil, nil)
}

// gcSegment rewrites the victim's live records to the value-log tail and
// repoints them through the memtable, then condemns the segment. The
// deletion itself waits until the repointing memtable generation installs:
// a crash any time before that leaves the old pointers valid (the victim
// still exists), a crash after reads the repointed entries — never a
// dangling pointer.
func (e *Engine) gcSegment(victim uint32) error {
	gen := e.memGen
	err := e.vl.Scan(victim, func(key uint64, ptr core.VlogPtr, val []byte) error {
		entries, err := e.chain(key, nil, true)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return nil
		}
		term := entries[len(entries)-1]
		if term.Kind != lsm.KindFullPtr {
			return nil // dead: shadowed by a newer full image or tombstone
		}
		tp, ok := core.DecodeVlogPtr(term.Payload)
		if !ok || tp != ptr {
			return nil // dead: the live chain points elsewhere
		}
		tm := e.Tables[core.TreeTable(key)]
		row, exists, err := e.rowOf(tm, key, entries)
		if err != nil {
			return err
		}
		if !exists {
			return nil
		}
		img := core.EncodeRow(tm.Schema, row)
		var ent lsm.Entry
		if len(img) >= e.opts.VlogThreshold {
			nptr, err := e.vl.Append(key, img)
			if err != nil {
				return err
			}
			ent = lsm.Entry{Kind: lsm.KindFullPtr, Payload: nptr.Encode(nil)}
		} else {
			ent = lsm.Entry{Kind: lsm.KindFull, Payload: img}
		}
		// Repoint through the memtable without a WAL record: if the crash
		// eats the memtable, the old pointer chain is still intact because
		// the victim is only deleted after this generation installs.
		oldPtr, _, err := e.putMem(tm.Schema, key, ent)
		if err != nil {
			return err
		}
		if oldPtr != 0 {
			e.discardIfPtr(oldPtr)
			e.Env.Arena.Free(pmalloc.Ptr(oldPtr))
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.condemned = append(e.condemned, condemnedSeg{seg: victim, gen: gen})
	return nil
}

// mergeRuns merges a newer run over an older one into a fresh SSTable.
// Value-log pointers flow through opaquely unless a delta lands on one;
// superseded pointers feed the discard statistics that drive GC.
func (e *Engine) mergeRuns(newer, older *sstable, dropTombs bool) (*sstable, error) {
	e.seq++
	name := fmt.Sprintf("sst-%06d", e.seq)
	w, err := newSSTWriter(e.Env.FS, name)
	if err != nil {
		return nil, err
	}
	a, b := newer.scan(e.cache), older.scan(e.cache)
	emit := func(k uint64, ent lsm.Entry) {
		if dropTombs && ent.Kind == lsm.KindTomb {
			return
		}
		w.add(k, ent)
	}
	a.next()
	b.next()
	for a.valid || b.valid {
		switch {
		case !b.valid || a.valid && a.key < b.key:
			emit(a.key, a.ent)
			a.next()
		case !a.valid || b.key < a.key:
			emit(b.key, b.ent)
			b.next()
		default:
			// Schema for Merge: decode the table from the packed key.
			tm := e.Tables[core.TreeTable(a.key)]
			merged, err := lsm.MergeR(tm.Schema, a.key, a.ent, b.ent, e.resolveEntry)
			if err != nil {
				return nil, err
			}
			if b.ent.Kind == lsm.KindFullPtr && e.vl != nil {
				// The older separated value is superseded: its log
				// bytes are dead.
				if ptr, ok := core.DecodeVlogPtr(b.ent.Payload); ok {
					e.vl.Discard(ptr.Seg, vlog.DiscardOf(ptr))
				}
			}
			emit(a.key, merged)
			a.next()
			b.next()
		}
	}
	if err := errors.Join(a.err, b.err); err != nil {
		return nil, err
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return openSSTable(e.Env.FS, e.Env.Arena, name)
}

// Manifest payload (v2): seq u64, txnFloor u64, vlogSeg u32, vlogOff u64,
// l0Count u32 + {nameLen u32, name}, levelCount u32 + {level u32,
// nameLen u32, name}. The payload sits behind a slot header (magic,
// generation, length, CRC); the newest valid slot wins at open.

func (e *Engine) writeManifest(floor uint64) error {
	if floor < e.walFloor {
		floor = e.walFloor
	}
	var buf []byte
	var b8 [8]byte
	var b4 [4]byte
	binary.LittleEndian.PutUint64(b8[:], e.seq)
	buf = append(buf, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], floor)
	buf = append(buf, b8[:]...)
	var head vlog.Head
	if e.vl != nil {
		head = e.vl.HeadMark()
	}
	binary.LittleEndian.PutUint32(b4[:], head.Seg)
	buf = append(buf, b4[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(head.Off))
	buf = append(buf, b8[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(e.l0)))
	buf = append(buf, b4[:]...)
	for _, run := range e.l0 {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(run.name)))
		buf = append(buf, b4[:]...)
		buf = append(buf, run.name...)
	}
	var entries [][]byte
	for i, run := range e.levels {
		if run == nil {
			continue
		}
		var ent []byte
		binary.LittleEndian.PutUint32(b4[:], uint32(i))
		ent = append(ent, b4[:]...)
		binary.LittleEndian.PutUint32(b4[:], uint32(len(run.name)))
		ent = append(ent, b4[:]...)
		ent = append(ent, run.name...)
		entries = append(entries, ent)
	}
	binary.LittleEndian.PutUint32(b4[:], uint32(len(entries)))
	buf = append(buf, b4[:]...)
	for _, ent := range entries {
		buf = append(buf, ent...)
	}

	gen := e.manGen + 1
	img := make([]byte, manifestHdrSize+len(buf))
	binary.LittleEndian.PutUint64(img[0:], manifestMagic)
	binary.LittleEndian.PutUint64(img[8:], gen)
	binary.LittleEndian.PutUint64(img[16:], uint64(len(buf)))
	binary.LittleEndian.PutUint32(img[24:], crc32.Checksum(buf, manCRC))
	copy(img[manifestHdrSize:], buf)

	// Generation parity picks the slot NOT holding the newest valid
	// manifest; manGen only advances on durable success, so a failed
	// attempt retries into the same (expendable) slot.
	slot := manifestSlotA
	if gen%2 == 1 {
		slot = manifestSlotB
	}
	f, err := e.Env.FS.OpenOrCreate(slot)
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
	e.manGen = gen
	e.walFloor = floor
	return nil
}

// readManifestSlot validates one slot file; ok is false for a missing,
// torn, or corrupt slot (all expected after a crash).
func (e *Engine) readManifestSlot(name string) (gen uint64, payload []byte, ok bool) {
	f, err := e.Env.FS.OpenFile(name)
	if err != nil {
		return 0, nil, false
	}
	size := f.Size()
	if size < manifestHdrSize {
		return 0, nil, false
	}
	img := make([]byte, size)
	if _, err := f.ReadAt(img, 0); err != nil {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint64(img[0:]) != manifestMagic {
		return 0, nil, false
	}
	gen = binary.LittleEndian.Uint64(img[8:])
	plen := binary.LittleEndian.Uint64(img[16:])
	if plen > uint64(size-manifestHdrSize) {
		return 0, nil, false
	}
	payload = img[manifestHdrSize : manifestHdrSize+int(plen)]
	if crc32.Checksum(payload, manCRC) != binary.LittleEndian.Uint32(img[24:]) {
		return 0, nil, false
	}
	return gen, payload, true
}

// loadManifest restores state from the newest valid manifest slot. No
// valid slot means no MemTable flush ever completed (or the very first
// manifest write tore): the WAL still holds every committed transaction,
// so starting with empty levels is correct.
func (e *Engine) loadManifest(head *vlog.Head) error {
	gen, buf, ok := e.readManifestSlot(manifestSlotA)
	if g2, b2, ok2 := e.readManifestSlot(manifestSlotB); ok2 && (!ok || g2 > gen) {
		gen, buf, ok = g2, b2, true
	}
	if !ok {
		return nil
	}
	e.manGen = gen
	if len(buf) < 32 {
		return fmt.Errorf("logeng: manifest payload truncated")
	}
	e.seq = binary.LittleEndian.Uint64(buf)
	e.walFloor = binary.LittleEndian.Uint64(buf[8:])
	head.Seg = binary.LittleEndian.Uint32(buf[16:])
	head.Off = int64(binary.LittleEndian.Uint64(buf[20:]))
	nl0 := int(binary.LittleEndian.Uint32(buf[28:]))
	off := 32
	var specs []sstSpec
	for i := 0; i < nl0; i++ {
		if off+4 > len(buf) {
			return fmt.Errorf("logeng: manifest payload truncated")
		}
		nameLen := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if off+nameLen > len(buf) {
			return fmt.Errorf("logeng: manifest payload truncated")
		}
		specs = append(specs, sstSpec{level: i, l0: true, name: string(buf[off : off+nameLen])})
		off += nameLen
	}
	if off+4 > len(buf) {
		return fmt.Errorf("logeng: manifest payload truncated")
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < n; i++ {
		if off+8 > len(buf) {
			return fmt.Errorf("logeng: manifest payload truncated")
		}
		level := int(binary.LittleEndian.Uint32(buf[off:]))
		nameLen := int(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
		if off+nameLen > len(buf) {
			return fmt.Errorf("logeng: manifest payload truncated")
		}
		specs = append(specs, sstSpec{level: level, name: string(buf[off : off+nameLen])})
		off += nameLen
	}
	for _, sp := range specs {
		run, err := openSSTable(e.Env.FS, e.Env.Arena, sp.name)
		if err != nil {
			return err
		}
		e.placeRun(sp, run)
		e.Rec.Records += run.count
		// Harvest pointers for validation once the value log is open.
		s := run.scan(e.cache)
		for s.next() {
			if s.ent.Kind == lsm.KindFullPtr {
				ptr, ok := core.DecodeVlogPtr(s.ent.Payload)
				if !ok {
					return core.Corrupt(fmt.Errorf("logeng: %s carries malformed value-log pointer", run.name))
				}
				e.pendingPtrs = append(e.pendingPtrs, ptr)
			}
		}
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

func (e *Engine) placeRun(sp sstSpec, run *sstable) {
	if sp.l0 {
		for len(e.l0) <= sp.level {
			e.l0 = append(e.l0, nil)
		}
		e.l0[sp.level] = run
		return
	}
	for len(e.levels) <= sp.level {
		e.levels = append(e.levels, nil)
	}
	e.levels[sp.level] = run
}

// removeOrphans deletes SSTable files not referenced by the manifest
// (leftovers from a flush or compaction interrupted by the crash).
func (e *Engine) removeOrphans() {
	ref := make(map[string]bool)
	for _, run := range e.l0 {
		if run != nil {
			ref[run.name] = true
		}
	}
	for _, run := range e.levels {
		if run != nil {
			ref[run.name] = true
		}
	}
	for _, name := range e.Env.FS.List() {
		if len(name) >= 4 && name[:4] == "sst-" && !ref[name] {
			e.Env.FS.Remove(name)
		}
	}
}

// Footprint reports storage usage (Fig. 14). A snapshot reader's Get fills
// the block cache and the arena under it, so Footprint takes the exclusion.
func (e *Engine) Footprint() core.Footprint {
	defer e.Exclude()()
	u := e.Env.Arena.Usage()
	var sst int64
	for _, run := range e.l0 {
		if run != nil {
			sst += run.size
		}
	}
	for _, run := range e.levels {
		if run != nil {
			sst += run.size
		}
	}
	if e.vl != nil {
		sst += e.vl.Bytes()
	}
	return core.Footprint{
		Table:      sst + u[pmalloc.TagTable],
		Index:      u[pmalloc.TagIndex],
		Log:        e.wal.SizeBytes(),
		Checkpoint: 0,
		Other:      e.cache.bytes(),
	}
}
