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
	"sync"
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
	tree  *btree.Tree
	count int
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
	gen       uint64
	submitted bool // a pipeline task is queued/running for it
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

	// mu is the engine monitor: the device/pmfs data path underneath is
	// single-owner, so every public method and every background pipeline
	// task holds it.
	mu sync.Mutex

	mem      *btree.Tree // packed tree key -> memtable entry chunk
	memCount int
	memGen   uint64
	imm      []*frozenMem    // frozen memtables, oldest first
	second   [][]*btree.Tree // volatile secondary indexes

	wal    *core.FsWAL
	vl     *vlog.Manager // nil when value separation is disabled
	l0     []*sstable    // flushed, not yet compacted runs, oldest first
	levels []*sstable    // levels[i] holds one run, ~k^i MemTables big
	seq    uint64
	manGen uint64 // manifest generation (newest valid slot wins)
	// walFloor is the highest TxnID fully contained in the SSTables; WAL
	// records at or below it are stale debris from reused extents.
	walFloor uint64

	fm            *lsm.FlushManager
	compactQueued bool
	gcQueued      bool
	condemned     []condemnedSeg
	fstats        core.FlushStats

	walMark  int
	undo     []memUndo
	secUndo  []secUndo
	txnFrees []pmalloc.Ptr // superseded chunks, freed at commit

	// pendingPtrs are value-log pointers harvested from the manifest runs
	// during recovery, validated once the value log is open.
	pendingPtrs []core.VlogPtr

	compactions int
	closed      bool
}

type memUndo struct {
	key    uint64
	oldPtr uint64 // 0 = key absent before
	newPtr uint64
}

type secUndo struct {
	table, idx int
	composite  uint64
	pk         uint64
	added      bool // true: entry was added (undo = delete)
}

// New creates a fresh Log engine.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := core.ValidatePacked(schemas); err != nil {
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
	e.initFlushManager()
	if err := e.writeManifest(0); err != nil {
		return nil, err
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) initFlushManager() {
	// A background stage takes the exclusion before the monitor, like a
	// transaction: it runs between transactions and snapshot reads.
	x := e.Exclusion()
	e.fm = lsm.NewFlushManager(e.opts.FlushWorkers > 0,
		func() { x.Lock(); e.mu.Lock() }, func() { e.mu.Unlock(); x.Unlock() }, lsm.StageTimes(&e.fstats))
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
	if err := core.ValidatePacked(schemas); err != nil {
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
		workers := core.RecoveryWorkers(e.opts.RecoveryParallelism)
		vl, err := vlog.Open(vlog.NewFSBackend(env.FS, vlogPrefix), vlog.Config{
			SegSize: int64(e.opts.VlogSegSize), Workers: workers})
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
	e.initFlushManager()
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
		err := e.scanRange(tm.Schema.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			for j, ix := range tm.Schema.Secondary {
				e.second[tm.ID][j].Put(core.SecComposite(ix.SecKey(row), pk), pk)
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
	if old, ok := e.mem.Get(tk); ok {
		merged, err := lsm.MergeR(s, tk, ent, lsm.ReadEntryChunk(e.Env.Dev, old), e.resolveEntry)
		if err != nil {
			return 0, 0, err
		}
		np, err := lsm.WriteEntryChunk(e.Env.Arena, merged)
		if err != nil {
			return 0, 0, err
		}
		e.mem.Put(tk, np)
		return old, np, nil
	}
	np, err := lsm.WriteEntryChunk(e.Env.Arena, ent)
	if err != nil {
		return 0, 0, err
	}
	e.mem.Put(tk, np)
	e.memCount++
	return 0, np, nil
}

// Name returns "log".
func (e *Engine) Name() string { return "log" }

// Begin starts a transaction.
func (e *Engine) Begin() error {
	if err := e.BeginTxUnder(e.mu.Lock); err != nil {
		return err
	}
	defer e.mu.Unlock()
	e.walMark = e.wal.Mark()
	e.undo = e.undo[:0]
	e.secUndo = e.secUndo[:0]
	e.txnFrees = e.txnFrees[:0]
	return nil
}

// Commit group-commits the WAL; when the MemTable is full it runs the
// staged flush pipeline (inline or queued on the background worker). A
// pipeline failure after the commit barrier is surfaced to the caller, but
// the transaction IS durable: the frozen memtable and its WAL segment stay
// retained, and the next commit retries the flush.
func (e *Engine) Commit() error {
	e.mu.Lock()
	defer e.mu.Unlock()
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
	e.MV.CommitStaged(e.TxnID, e.wal.PendingTxns() == 0)
	for _, p := range e.txnFrees {
		e.discardIfPtr(uint64(p))
		e.Env.Arena.Free(p)
	}
	e.txnFrees = e.txnFrees[:0]
	var flushErr error
	if e.memCount >= e.opts.MemTableCap || e.hasUnsubmitted() {
		flushErr = e.triggerFlush(e.memCount >= e.opts.MemTableCap)
	}
	if flushErr == nil {
		flushErr = e.fm.TakeErr()
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

// Abort rolls back memtable and secondary-index changes.
func (e *Engine) Abort() error {
	e.mu.Lock()
	defer e.mu.Unlock()
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
		if u.added {
			e.second[u.table][u.idx].Delete(u.composite)
		} else {
			e.second[u.table][u.idx].Put(u.composite, u.pk)
		}
	}
	e.wal.DropTail(e.walMark)
	e.MV.DropStaged()
	e.txnFrees = e.txnFrees[:0]
	return e.EndTx()
}

func (e *Engine) secAdd(tm *core.TableMeta, j int, sec uint32, pk uint64) {
	c := core.SecComposite(sec, pk)
	e.second[tm.ID][j].Put(c, pk)
	e.secUndo = append(e.secUndo, secUndo{table: tm.ID, idx: j, composite: c, pk: pk, added: true})
}

func (e *Engine) secDel(tm *core.TableMeta, j int, sec uint32, pk uint64) {
	c := core.SecComposite(sec, pk)
	e.second[tm.ID][j].Delete(c)
	e.secUndo = append(e.secUndo, secUndo{table: tm.ID, idx: j, composite: c, pk: pk, added: false})
}

// applyMem routes one logical change through the memtable with undo
// tracking.
func (e *Engine) applyMem(tm *core.TableMeta, key uint64, ent lsm.Entry) error {
	tk := core.TreePrimary(tm.ID, key)
	oldPtr, newPtr, err := e.putMem(tm.Schema, tk, ent)
	if err != nil {
		return err
	}
	e.undo = append(e.undo, memUndo{key: tk, oldPtr: oldPtr, newPtr: newPtr})
	if oldPtr != 0 {
		e.txnFrees = append(e.txnFrees, pmalloc.Ptr(oldPtr))
	}
	return nil
}

// Insert adds a tuple.
func (e *Engine) Insert(table string, key uint64, row []core.Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	_, exists, err := e.get(table, key)
	if err != nil {
		return err
	}
	if exists {
		return core.ErrKeyExists
	}
	img := core.EncodeRow(tm.Schema, row)
	stop := e.Bd.Timer(&e.Bd.Recovery)
	e.wal.Append(core.WalRecord{Type: core.WalInsert, TxnID: e.TxnID,
		Table: tm.ID, Key: key, After: img})
	stop()
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	err = e.applyMem(tm, key, lsm.Entry{Kind: lsm.KindFull, Payload: img})
	stopSt()
	if err != nil {
		return err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	for j, ix := range tm.Schema.Secondary {
		e.secAdd(tm, j, ix.SecKey(row), key)
	}
	stopIdx()
	e.MV.StageInsert(table, key)
	return nil
}

// Update records the updated fields as a delta entry.
func (e *Engine) Update(table string, key uint64, upd core.Update) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	old, exists, err := e.get(table, key)
	if err != nil {
		return err
	}
	if !exists {
		return core.ErrKeyNotFound
	}
	beforeUpd := core.Update{Cols: upd.Cols, Vals: make([]core.Value, len(upd.Cols))}
	for j, ci := range upd.Cols {
		beforeUpd.Vals[j] = old[ci]
	}
	delta := core.EncodeDelta(tm.Schema, upd)
	stop := e.Bd.Timer(&e.Bd.Recovery)
	e.wal.Append(core.WalRecord{Type: core.WalUpdate, TxnID: e.TxnID,
		Table: tm.ID, Key: key,
		Before: core.EncodeDelta(tm.Schema, beforeUpd), After: delta})
	stop()
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	err = e.applyMem(tm, key, lsm.Entry{Kind: lsm.KindDelta, Payload: delta})
	stopSt()
	if err != nil {
		return err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	now := core.CloneRow(old)
	core.ApplyDelta(now, upd)
	for j, ix := range tm.Schema.Secondary {
		ok, nk := ix.SecKey(old), ix.SecKey(now)
		if ok != nk {
			e.secDel(tm, j, ok, key)
			e.secAdd(tm, j, nk, key)
		}
	}
	stopIdx()
	e.MV.StageUpdate(table, key, beforeUpd.Cols, beforeUpd.Vals) // the WAL's before-image
	return nil
}

// Delete marks the tuple with a tombstone; space is reclaimed during
// compaction (§3.3).
func (e *Engine) Delete(table string, key uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	old, exists, err := e.get(table, key)
	if err != nil {
		return err
	}
	if !exists {
		return core.ErrKeyNotFound
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	e.wal.Append(core.WalRecord{Type: core.WalDelete, TxnID: e.TxnID,
		Table: tm.ID, Key: key, Before: core.EncodeRow(tm.Schema, old)})
	stop()
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	err = e.applyMem(tm, key, lsm.Entry{Kind: lsm.KindTomb})
	stopSt()
	if err != nil {
		return err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	for j, ix := range tm.Schema.Secondary {
		e.secDel(tm, j, ix.SecKey(old), key)
	}
	stopIdx()
	e.MV.StageDelete(table, key, old)
	return nil
}

// chain collects the entries for a tree key newest-first — memtable, frozen
// memtables, L0 runs, then the levels — stopping at the first non-delta
// (terminal) entry.
func (e *Engine) chain(tk uint64) ([]lsm.Entry, error) {
	var entries []lsm.Entry
	add := func(ent lsm.Entry) bool {
		entries = append(entries, ent)
		return ent.Kind != lsm.KindDelta
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	if p, ok := e.mem.Get(tk); ok && add(lsm.ReadEntryChunk(e.Env.Dev, p)) {
		stopSt()
		return entries, nil
	}
	for i := len(e.imm) - 1; i >= 0; i-- {
		if p, ok := e.imm[i].tree.Get(tk); ok && add(lsm.ReadEntryChunk(e.Env.Dev, p)) {
			stopSt()
			return entries, nil
		}
	}
	stopSt()
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	for i := len(e.l0) - 1; i >= 0; i-- {
		ent, ok, err := e.l0[i].get(e.cache, e.Env.Dev, tk)
		if err != nil {
			return nil, err
		}
		if ok && add(ent) {
			return entries, nil
		}
	}
	for _, run := range e.levels {
		if run == nil {
			continue
		}
		ent, ok, err := run.get(e.cache, e.Env.Dev, tk)
		if err != nil {
			return nil, err
		}
		if ok && add(ent) {
			return entries, nil
		}
	}
	return entries, nil
}

// Get reconstructs a tuple by coalescing entries from the MemTable and the
// LSM runs, newest first, stopping at the first full image or tombstone.
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.get(table, key)
}

func (e *Engine) get(table string, key uint64) ([]core.Value, bool, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, false, err
	}
	tk := core.TreePrimary(tm.ID, key)
	entries, err := e.chain(tk)
	if err != nil {
		return nil, false, err
	}
	row, exists, _, err := lsm.CoalesceR(tm.Schema, tk, entries, e.resolveEntry)
	if err != nil {
		return nil, false, err
	}
	return row, exists, nil
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	j, ok := tm.SecPos(index)
	if !ok {
		return fmt.Errorf("logeng: unknown index %q", index)
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

// ScanRange merges the MemTable, the frozen memtables, and every run over
// the key range, coalescing per key.
func (e *Engine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.scanRange(table, from, to, fn)
}

func (e *Engine) scanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	lo, hi := core.TreePrimaryRange(tm.ID, from, to)
	if to > core.TreePK(^uint64(0)) {
		hi = core.TreePrimary(tm.ID, core.TreePK(^uint64(0)))
	}

	// Tree-backed sources sliced over the range, newest first: the active
	// memtable, then frozen memtables newest to oldest (memtables are
	// small).
	type kv struct {
		k uint64
		e lsm.Entry
	}
	collect := func(t *btree.Tree) []kv {
		var out []kv
		t.Iter(lo, func(k, p uint64) bool {
			if k >= hi {
				return false
			}
			out = append(out, kv{k, lsm.ReadEntryChunk(e.Env.Dev, p)})
			return true
		})
		return out
	}
	var memSrcs [][]kv
	memSrcs = append(memSrcs, collect(e.mem))
	for i := len(e.imm) - 1; i >= 0; i-- {
		memSrcs = append(memSrcs, collect(e.imm[i].tree))
	}
	memIdx := make([]int, len(memSrcs))

	// Run-backed sources, newest first: L0 newest to oldest, then levels
	// shallow to deep.
	var iters []*sstIter
	addRun := func(run *sstable) error {
		pos, err := run.lowerBound(e.cache, lo)
		if err != nil {
			return err
		}
		iters = append(iters, &sstIter{t: run, c: e.cache, pos: pos})
		return nil
	}
	for i := len(e.l0) - 1; i >= 0; i-- {
		if err := addRun(e.l0[i]); err != nil {
			return err
		}
	}
	for _, run := range e.levels {
		if run == nil {
			continue
		}
		if err := addRun(run); err != nil {
			return err
		}
	}

	for {
		// Find the smallest next key across sources.
		minKey := ^uint64(0)
		for s, src := range memSrcs {
			if memIdx[s] < len(src) && src[memIdx[s]].k < minKey {
				minKey = src[memIdx[s]].k
			}
		}
		for _, it := range iters {
			if !it.valid() {
				continue
			}
			k, _, err := it.entry()
			if err != nil {
				return err
			}
			if k < minKey {
				minKey = k
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
		for _, it := range iters {
			if !it.valid() {
				continue
			}
			k, ent, err := it.entry()
			if err != nil {
				return err
			}
			if k == minKey {
				entries = append(entries, ent)
				it.next()
			}
		}
		row, exists, _, err := lsm.CoalesceR(tm.Schema, minKey, entries, e.resolveEntry)
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
	e.mu.Lock()
	defer e.mu.Unlock()
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	if err := e.wal.Flush(); err != nil {
		return err
	}
	e.MV.PublishDurable()
	return nil
}

// FlushMemTable forces the MemTable through the full pipeline (test/bench
// hook), draining background workers before returning.
func (e *Engine) FlushMemTable() error {
	release := e.Exclude()
	e.mu.Lock()
	err := e.triggerFlush(true)
	e.mu.Unlock()
	release() // a background worker takes it to finish
	if err != nil {
		return err
	}
	e.fm.Drain()
	return e.fm.TakeErr()
}

// Close drains in-flight background flush/compaction work, then marks the
// engine closed. It must be called without e.mu held: the worker needs the
// monitor to finish its current task.
func (e *Engine) Close() error {
	e.fm.Close()
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	return e.fm.TakeErr()
}

// WalStats exposes the WAL's cumulative counters (core.WalStatser).
func (e *Engine) WalStats() core.WalStats { return e.wal.Stats() }

// FlushStats exposes the staged-pipeline and value-log counters
// (core.FlushStatser).
func (e *Engine) FlushStats() core.FlushStats {
	e.mu.Lock()
	defer e.mu.Unlock()
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
func (e *Engine) Compactions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compactions
}

// GCVlog forces one value-log GC pass over the deadest sealed segment, if
// any qualifies (test/bench hook). The condemned segment is deleted once
// the memtable generation holding its repointed records installs.
func (e *Engine) GCVlog() error {
	release := e.Exclude()
	e.mu.Lock()
	e.submitGC(0)
	e.mu.Unlock()
	release()
	e.fm.Drain()
	return e.fm.TakeErr()
}

// hasUnsubmitted reports whether a frozen memtable is awaiting (re)submission
// after a pipeline failure.
func (e *Engine) hasUnsubmitted() bool {
	for _, fz := range e.imm {
		if !fz.submitted {
			return true
		}
	}
	return false
}

// triggerFlush runs the prepare stage and submits pipeline tasks: first any
// frozen memtable whose earlier task failed (retry, in order), then — when
// freeze is set — the active memtable. Caller holds e.mu.
func (e *Engine) triggerFlush(freeze bool) error {
	for _, fz := range e.imm {
		if !fz.submitted {
			fz.submitted = true
			if err := e.fm.Submit(e.flushTask(fz)); err != nil {
				return err
			}
		}
	}
	if !freeze || e.memCount == 0 {
		return nil
	}
	start := time.Now()
	fz, err := e.freeze()
	e.fm.Observe("flush", lsm.StagePrepare, time.Since(start))
	if err != nil {
		return err
	}
	fz.submitted = true
	return e.fm.Submit(e.flushTask(fz))
}

// freeze is the prepare stage: flush the group buffer (the durability
// barrier), seal the WAL segment, and swap in a fresh memtable. The frozen
// memtable stays readable until its SSTable installs.
func (e *Engine) freeze() (*frozenMem, error) {
	if err := e.wal.Flush(); err != nil {
		return nil, err
	}
	e.MV.PublishDurable()
	sealed, err := e.wal.Rotate()
	if err != nil {
		return nil, err
	}
	fz := &frozenMem{tree: e.mem, count: e.memCount, floor: e.TxnID, walSeq: sealed, gen: e.memGen}
	e.memGen++
	e.imm = append(e.imm, fz)
	e.mem = btree.New(e.Env.Arena, e.opts.BTreeNodeSize)
	e.memCount = 0
	return fz, nil
}

// flushTask builds the pipeline task for one frozen memtable: build writes
// the SSTable (separating large values into the value log), install appends
// it to L0 and commits the manifest, release deletes the WAL segment and
// frees the memtable. Build/install failures put the memtable back up for
// retry; its WAL segment is still live, so acked commits stay durable.
func (e *Engine) flushTask(fz *frozenMem) *lsm.FlushTask {
	var run *sstable
	var freeList []uint64
	var appended []core.VlogPtr
	t := &lsm.FlushTask{Kind: "flush"}

	fail := func(name string, err error) error {
		// Undo build side effects: the partial SSTable file and the value
		// bytes appended for it (they become dead weight the GC can count).
		if name != "" {
			e.cache.drop(name)
			_ = e.Env.FS.Remove(name)
		}
		for _, p := range appended {
			e.vl.Discard(p.Seg, vlog.DiscardOf(p))
		}
		appended = appended[:0]
		freeList = freeList[:0]
		run = nil
		fz.submitted = false
		e.fstats.Failures++
		return err
	}

	t.Build = func() error {
		stop := e.Bd.Timer(&e.Bd.Storage)
		defer stop()
		e.seq++
		name := fmt.Sprintf("sst-%06d", e.seq)
		w, err := newSSTWriter(e.Env.FS, name)
		if err != nil {
			return fail("", err)
		}
		fz.tree.Iter(0, func(k, p uint64) bool {
			ent := lsm.ReadEntryChunk(e.Env.Dev, p)
			if e.vl != nil && ent.Kind == lsm.KindFull && len(ent.Payload) >= e.opts.VlogThreshold {
				ptr, aerr := e.vl.Append(k, ent.Payload)
				if aerr != nil {
					err = aerr
					return false
				}
				appended = append(appended, ptr)
				ent = lsm.Entry{Kind: lsm.KindFullPtr, Payload: ptr.Encode(nil)}
			}
			w.add(k, ent)
			freeList = append(freeList, p)
			return true
		})
		if err != nil {
			return fail(name, err)
		}
		if e.vl != nil {
			// Value records must be durable before the manifest that
			// installs pointers to them.
			if err := e.vl.Sync(); err != nil {
				return fail(name, err)
			}
		}
		if err := w.finish(); err != nil {
			return fail(name, err)
		}
		run, err = openSSTable(e.Env.FS, e.Env.Arena, name)
		if err != nil {
			return fail(name, err)
		}
		return nil
	}

	t.Install = func() error {
		// FIFO discipline: an older frozen memtable whose task failed must
		// install first, or the manifest floor would advance past its WAL
		// segment and replay would skip it.
		if len(e.imm) == 0 || e.imm[0] != fz {
			return fail(run.name, core.Retryable(fmt.Errorf("logeng: earlier memtable flush pending")))
		}
		e.l0 = append(e.l0, run)
		if err := e.writeManifest(fz.floor); err != nil {
			e.l0 = e.l0[:len(e.l0)-1]
			return fail(run.name, err)
		}
		e.imm = e.imm[1:]
		return nil
	}

	t.Release = func() error {
		// Strictly after the manifest commit: the flushed data is now
		// re-creatable from the SSTable, so the WAL segment may go.
		if err := e.wal.ReleaseThrough(fz.walSeq); err != nil {
			return err
		}
		for _, p := range freeList {
			e.Env.Arena.Free(pmalloc.Ptr(p))
		}
		fz.tree.Release()
		e.releaseCondemned(fz.gen)
		e.fstats.Flushes++
		// Chain the leveled compaction (and possibly a GC pass behind it).
		return e.submitCompact()
	}
	return t
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

// submitCompact queues a leveled compaction folding every L0 run into the
// levels (one run per level, each deeper run larger). Caller holds e.mu.
func (e *Engine) submitCompact() error {
	if e.compactQueued || len(e.l0) == 0 {
		return nil
	}
	e.compactQueued = true
	var l0n, rest int
	var cur *sstable
	var obsolete []*sstable
	t := &lsm.FlushTask{Kind: "compact"}

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
		cur, obsolete = nil, nil
		e.compactQueued = false
		e.fstats.Failures++
		return err
	}

	t.Build = func() error {
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
		rest = 0
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
	}

	t.Install = func() error {
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
	}

	t.Release = func() error {
		for _, o := range obsolete {
			o.release(e.Env.Arena, e.cache)
			_ = e.Env.FS.Remove(o.name)
		}
		e.compactQueued = false
		e.fstats.Compactions++
		// Compaction discard stats may have pushed a segment over the GC
		// threshold.
		e.submitGC(gcMinRatio)
		return nil
	}
	if err := e.fm.Submit(t); err != nil {
		e.compactQueued = false
		if errors.Is(err, lsm.ErrClosed) {
			// Shutdown race: the release stage of the last in-flight flush
			// chains a compaction after Close. The L0 runs are durable in the
			// manifest; the next open compacts them.
			return nil
		}
		return err
	}
	return nil
}

// submitGC queues a value-log GC pass if a sealed segment's dead ratio
// reaches minRatio (0 forces the best victim regardless). Caller holds
// e.mu.
func (e *Engine) submitGC(minRatio float64) {
	if e.vl == nil || e.gcQueued {
		return
	}
	victim, ok := e.vl.PickVictim(minRatio)
	if !ok {
		return
	}
	e.gcQueued = true
	t := &lsm.FlushTask{Kind: "gc"}
	t.Build = func() error {
		defer func() { e.gcQueued = false }()
		if !e.vl.Has(victim) {
			return nil
		}
		if err := e.gcSegment(victim); err != nil {
			e.fstats.Failures++
			return err
		}
		e.fstats.GCRuns++
		e.vl.NoteGCRun()
		return nil
	}
	// Submit failure (manager closed) just skips the pass.
	if err := e.fm.Submit(t); err != nil {
		e.gcQueued = false
	}
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
		entries, err := e.chain(key)
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
		row, exists, _, err := lsm.CoalesceR(tm.Schema, key, entries, e.resolveEntry)
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
	a := &sstIter{t: newer, c: e.cache}
	b := &sstIter{t: older, c: e.cache}
	emit := func(k uint64, ent lsm.Entry) {
		if dropTombs && ent.Kind == lsm.KindTomb {
			return
		}
		w.add(k, ent)
	}
	for a.valid() || b.valid() {
		switch {
		case !b.valid():
			k, ent, err := a.entry()
			if err != nil {
				return nil, err
			}
			emit(k, ent)
			a.next()
		case !a.valid():
			k, ent, err := b.entry()
			if err != nil {
				return nil, err
			}
			emit(k, ent)
			b.next()
		default:
			ka, ea, err := a.entry()
			if err != nil {
				return nil, err
			}
			kb, eb, err := b.entry()
			if err != nil {
				return nil, err
			}
			switch {
			case ka < kb:
				emit(ka, ea)
				a.next()
			case kb < ka:
				emit(kb, eb)
				b.next()
			default:
				// Schema for Merge: decode the table from the packed key.
				tm := e.Tables[core.TreeTable(ka)]
				merged, err := lsm.MergeR(tm.Schema, ka, ea, eb, e.resolveEntry)
				if err != nil {
					return nil, err
				}
				if eb.Kind == lsm.KindFullPtr && e.vl != nil {
					// The older separated value is superseded: its log
					// bytes are dead.
					if ptr, ok := core.DecodeVlogPtr(eb.Payload); ok {
						e.vl.Discard(ptr.Seg, vlog.DiscardOf(ptr))
					}
				}
				emit(ka, merged)
				a.next()
				b.next()
			}
		}
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
	workers := core.RecoveryWorkers(e.opts.RecoveryParallelism)
	if workers > 1 && len(specs) > 1 {
		return e.loadRunsParallel(specs, workers)
	}
	for _, sp := range specs {
		run, err := openSSTable(e.Env.FS, e.Env.Arena, sp.name)
		if err != nil {
			return err
		}
		e.placeRun(sp, run)
		e.Rec.Records += run.count
		// Harvest pointers for validation once the value log is open.
		it := &sstIter{t: run, c: e.cache}
		for it.valid() {
			_, ent, err := it.entry()
			if err != nil {
				return err
			}
			if ent.Kind == lsm.KindFullPtr {
				ptr, ok := core.DecodeVlogPtr(ent.Payload)
				if !ok {
					return core.Corrupt(fmt.Errorf("logeng: %s carries malformed value-log pointer", run.name))
				}
				e.pendingPtrs = append(e.pendingPtrs, ptr)
			}
			it.next()
		}
	}
	e.Rec.Workers = 1
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

// loadRunsParallel loads all manifest runs with the bloom filters rebuilt
// from the entry keys concurrently. File and device access stay on the owner
// goroutine: the owner bulk-reads each run's entry and offset regions into
// host buffers, workers harvest keys, rebuild the filters, and collect the
// value-log pointers for validation, and the owner installs the filter bits
// into allocator memory.
func (e *Engine) loadRunsParallel(specs []sstSpec, workers int) error {
	imgs := make([]*sstImage, len(specs))
	for i, sp := range specs {
		img, err := readSSTImage(e.Env.FS, sp)
		if err != nil {
			return err
		}
		imgs[i] = img
	}
	blooms := make([][]byte, len(specs))
	kks := make([]int, len(specs))
	ptrs := make([][]core.VlogPtr, len(specs))
	err := core.ParallelChunks(workers, len(specs), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			bm, k, err := imgs[i].rebuildBloom()
			if err != nil {
				return err
			}
			blooms[i], kks[i] = bm, k
			ps, err := imgs[i].harvestPtrs()
			if err != nil {
				return err
			}
			ptrs[i] = ps
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, img := range imgs {
		bm := blooms[i]
		ptr, err := e.Env.Arena.Alloc(len(bm)-8, pmalloc.TagIndex)
		if err != nil {
			return err
		}
		e.Env.Arena.Device().Write(int64(ptr), bm[8:])
		e.placeRun(specs[i], &sstable{
			name:       img.spec.name,
			f:          img.f,
			count:      img.count,
			offsetsPos: img.offsetsPos,
			bloomPtr:   ptr,
			bloomWords: uint64((len(bm) - 8) / 8),
			bloomK:     kks[i],
			size:       img.size,
		})
		e.Rec.Records += img.count
		e.pendingPtrs = append(e.pendingPtrs, ptrs[i]...)
	}
	e.Rec.Workers = workers
	return nil
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

// Footprint reports storage usage (Fig. 14).
func (e *Engine) Footprint() core.Footprint {
	e.mu.Lock()
	defer e.mu.Unlock()
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
