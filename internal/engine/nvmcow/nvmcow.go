// Package nvmcow implements the NVM-aware copy-on-write updates engine
// (NVM-CoW, §4.2). Differences from the traditional CoW engine:
//
//   - The copy-on-write B+tree is non-volatile and maintained with the
//     allocator interface; there is no filesystem, no kernel crossing.
//   - Tuples are persisted directly as allocator chunks with the sync
//     primitive; the directories store only non-volatile tuple pointers,
//     avoiding the CoW engine's tuple transformation and copying costs.
//   - The master record is updated with an atomic durable write.
//
// Like the CoW engine it has no recovery process: after a restart the
// master record already points to a consistent current directory, and the
// storage consumed by the lost dirty directory (pages and tuple copies) is
// reclaimed by a reachability sweep over the allocator.
package nvmcow

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/core"
	"nstore/internal/cowbtree"
	"nstore/internal/mvcc"
	"nstore/internal/pmalloc"
)

const rootSlot = 0

// Engine is the NVM-aware copy-on-write updates engine.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts core.Options

	pager *cowbtree.ArenaPager
	tree  *cowbtree.Tree

	sinceGroup  int
	txnNew      []pmalloc.Ptr // tuple copies made by the running txn
	txnOld      []pmalloc.Ptr // tuples superseded by the running txn
	pendingFree []pmalloc.Ptr // superseded tuples, freed after next Persist
}

// New creates a fresh NVM-CoW engine anchored at arena root slot 0.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := core.ValidatePacked(schemas); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	pg, err := cowbtree.CreateArenaPager(env.Arena, rootSlot, e.opts.CowPageSize)
	if err != nil {
		return nil, err
	}
	tr, err := cowbtree.Create(pg)
	if err != nil {
		return nil, err
	}
	e.pager, e.tree = pg, tr
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// Open re-attaches after a restart: read the master record, then sweep the
// allocator for pages and tuple copies orphaned by the crash (the paper's
// asynchronous reclamation, done inline here).
func Open(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := core.ValidatePacked(schemas); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	pg, err := cowbtree.OpenArenaPager(env.Arena, rootSlot, e.opts.CowPageSize)
	if err != nil {
		return nil, err
	}
	tr := cowbtree.Attach(pg)
	e.pager, e.tree = pg, tr
	e.TxnID = tr.Meta()

	workers := core.RecoveryWorkers(e.opts.RecoveryParallelism)
	reach := make(map[uint64]bool)
	tr.ReachableParallel(workers, func(id uint64) { reach[id] = true }, func(v []byte) {
		if len(v) == 8 {
			reach[binary.LittleEndian.Uint64(v)] = true
		}
	})

	// Collect the allocator's chunk directory on the owner goroutine (the
	// device data path is single-owner), classify the stripes in parallel
	// against the host-memory reach set, then free serially.
	type chunkRec struct {
		p   pmalloc.Ptr
		tag pmalloc.Tag
		st  pmalloc.State
	}
	var chunks []chunkRec
	env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
		chunks = append(chunks, chunkRec{p: p, tag: tag, st: st})
	})
	orphans := make([][]pmalloc.Ptr, workers)
	_ = core.ParallelChunks(workers, len(chunks), func(w, lo, hi int) error {
		for _, c := range chunks[lo:hi] {
			if c.tag == pmalloc.TagTable && c.st == pmalloc.StatePersisted && !reach[c.p] {
				orphans[w] = append(orphans[w], c.p)
			}
		}
		return nil
	})
	for _, list := range orphans {
		for _, p := range list {
			env.Arena.Free(p)
		}
	}
	e.Rec = core.RecoveryReport{Records: int64(len(reach) + len(chunks)), Workers: workers}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// writeTuple persists a tuple image as an allocator chunk (Table 2: "Sync
// tuple with NVM ... update tuple state as persisted").
func (e *Engine) writeTuple(img []byte) (pmalloc.Ptr, error) {
	p, err := e.Env.Arena.Alloc(4+len(img), pmalloc.TagTable)
	if err != nil {
		// Table-arena exhaustion is reachable from normal inserts/updates:
		// return it so the transaction can abort cleanly.
		return 0, err
	}
	buf := make([]byte, 4+len(img))
	binary.LittleEndian.PutUint32(buf, uint32(len(img)))
	copy(buf[4:], img)
	e.Env.Dev.WriteStream(int64(p), buf)
	e.Env.Dev.Fence()
	e.Env.Arena.SetPersisted(p)
	return p, nil
}

func (e *Engine) readTuple(p pmalloc.Ptr) []byte {
	d := e.Env.Dev
	n := int(d.ReadU32(int64(p)))
	img := make([]byte, n)
	d.Read(int64(p)+4, img)
	return img
}

func ptrBytes(p pmalloc.Ptr) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], p)
	return b[:]
}

// Name returns "nvm-cow".
func (e *Engine) Name() string { return "nvm-cow" }

// Begin starts a transaction against the dirty directory.
func (e *Engine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.tree.Begin()
	e.txnNew = e.txnNew[:0]
	e.txnOld = e.txnOld[:0]
	return nil
}

// Commit keeps the transaction in the dirty directory; a full group
// persists the batch with an atomic master-record update.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	e.tree.SetMeta(e.TxnID)
	e.tree.Commit()
	e.pendingFree = append(e.pendingFree, e.txnOld...)
	e.txnOld = e.txnOld[:0]
	e.sinceGroup++
	var err error
	if e.sinceGroup >= e.opts.GroupCommitSize {
		err = e.persist()
	}
	stop()
	if err != nil {
		// The txn is already folded into the volatile batch; only reopening
		// from the last durable master record restores a known state. End
		// the transaction so the next Begin does not trip over ErrInTxn.
		_ = e.EndTx()
		return core.Corrupt(err)
	}
	// sinceGroup == 0 means this commit persisted the whole batch — the
	// durability barrier passed and versions may publish to readers.
	e.MV.CommitStaged(e.TxnID, e.sinceGroup == 0)
	return e.EndTx()
}

func (e *Engine) persist() error {
	e.sinceGroup = 0
	if err := e.tree.Persist(); err != nil {
		return err
	}
	// Tuples superseded by the batch are unreferenced now that the swap is
	// durable.
	for _, p := range e.pendingFree {
		if e.Env.Arena.StateOf(p) != pmalloc.StateFree {
			e.Env.Arena.Free(p)
		}
	}
	e.pendingFree = e.pendingFree[:0]
	return nil
}

// Abort discards the transaction: its directory pages and tuple copies are
// released immediately ("Recover tuple space immediately", Table 2).
func (e *Engine) Abort() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	e.tree.Abort()
	for _, p := range e.txnNew {
		if e.Env.Arena.StateOf(p) != pmalloc.StateFree {
			e.Env.Arena.Free(p)
		}
	}
	e.txnNew = e.txnNew[:0]
	e.txnOld = e.txnOld[:0]
	e.MV.DropStaged()
	return e.EndTx()
}

// Insert persists the tuple and stores its pointer in the dirty directory.
func (e *Engine) Insert(table string, key uint64, row []core.Value) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	tk := core.TreePrimary(tm.ID, key)
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	_, exists := e.tree.Get(tk)
	stopIdx()
	if exists {
		return core.ErrKeyExists
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	p, err := e.writeTuple(core.EncodeRow(tm.Schema, row))
	if err != nil {
		stopSt()
		return err
	}
	e.txnNew = append(e.txnNew, p)
	err = e.tree.Put(tk, ptrBytes(p))
	stopSt()
	if err != nil {
		return err
	}
	stopIdx = e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	for j, ix := range tm.Schema.Secondary {
		if err := e.tree.Put(core.TreeSecondary(tm.ID, j, ix.SecKey(row), key), nil); err != nil {
			return err
		}
	}
	e.MV.StageUpsert(table, key, row)
	return nil
}

// Update makes a copy of the tuple, applies the changes to the copy, syncs
// it, and stores only the new pointer in the dirty directory (Table 2).
func (e *Engine) Update(table string, key uint64, upd core.Update) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	tk := core.TreePrimary(tm.ID, key)
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	v, ok := e.tree.Get(tk)
	stopSt()
	if !ok || len(v) != 8 {
		return core.ErrKeyNotFound
	}
	oldPtr := binary.LittleEndian.Uint64(v)
	old, err := core.DecodeRow(tm.Schema, e.readTuple(oldPtr))
	if err != nil {
		return err
	}
	now := core.CloneRow(old)
	core.ApplyDelta(now, upd)

	stopSt = e.Bd.Timer(&e.Bd.Storage)
	p, err := e.writeTuple(core.EncodeRow(tm.Schema, now))
	if err != nil {
		stopSt()
		return err
	}
	e.txnNew = append(e.txnNew, p)
	e.txnOld = append(e.txnOld, oldPtr)
	err = e.tree.Put(tk, ptrBytes(p))
	stopSt()
	if err != nil {
		return err
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	for j, ix := range tm.Schema.Secondary {
		ok, nk := ix.SecKey(old), ix.SecKey(now)
		if ok != nk {
			if _, err := e.tree.Delete(core.TreeSecondary(tm.ID, j, ok, key)); err != nil {
				return err
			}
			if err := e.tree.Put(core.TreeSecondary(tm.ID, j, nk, key), nil); err != nil {
				return err
			}
		}
	}
	e.MV.StageUpsert(table, key, now)
	return nil
}

// Delete removes the pointer from the dirty directory; the tuple chunk is
// reclaimed once the batch persists.
func (e *Engine) Delete(table string, key uint64) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	tk := core.TreePrimary(tm.ID, key)
	v, ok := e.tree.Get(tk)
	if !ok || len(v) != 8 {
		return core.ErrKeyNotFound
	}
	oldPtr := binary.LittleEndian.Uint64(v)
	old, err := core.DecodeRow(tm.Schema, e.readTuple(oldPtr))
	if err != nil {
		return err
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	_, err = e.tree.Delete(tk)
	stopSt()
	if err != nil {
		return err
	}
	e.txnOld = append(e.txnOld, oldPtr)
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	for j, ix := range tm.Schema.Secondary {
		if _, err := e.tree.Delete(core.TreeSecondary(tm.ID, j, ix.SecKey(old), key)); err != nil {
			return err
		}
	}
	e.MV.StageDelete(table, key)
	return nil
}

// Get locates the tuple pointer in the appropriate directory and fetches
// the contents (Table 2).
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, false, err
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	v, ok := e.tree.Get(core.TreePrimary(tm.ID, key))
	stopSt()
	if !ok || len(v) != 8 {
		return nil, false, nil
	}
	row, err := core.DecodeRow(tm.Schema, e.readTuple(binary.LittleEndian.Uint64(v)))
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	j, ok := tm.SecPos(index)
	if !ok {
		return fmt.Errorf("nvmcow: unknown index %q", index)
	}
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	lo, hi := core.TreeSecRange(tm.ID, j, sec)
	e.tree.Iter(lo, func(k uint64, v []byte) bool {
		if k >= hi {
			return false
		}
		return fn(core.TreeSecPK(k))
	})
	return nil
}

// ScanRange iterates a table's tuples with pk in [from, to).
func (e *Engine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	lo, hi := core.TreePrimaryRange(tm.ID, from, to)
	var derr error
	e.tree.Iter(lo, func(k uint64, v []byte) bool {
		if k >= hi {
			return false
		}
		if len(v) != 8 {
			return true
		}
		row, err := core.DecodeRow(tm.Schema, e.readTuple(binary.LittleEndian.Uint64(v)))
		if err != nil {
			derr = err
			return false
		}
		return fn(core.TreePK(k), row)
	})
	return derr
}

// Flush persists any batched transactions.
func (e *Engine) Flush() error {
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	if err := e.persist(); err != nil {
		return err
	}
	e.MV.PublishDurable()
	return nil
}

// Footprint reports storage usage (Fig. 14): directory pages and tuples
// both live in allocator chunks tagged as table storage.
func (e *Engine) Footprint() core.Footprint {
	u := e.Env.Arena.Usage()
	return core.Footprint{
		Table: u[pmalloc.TagTable],
		Index: u[pmalloc.TagIndex],
		Other: u[pmalloc.TagOther],
	}
}
