// Package cow implements the copy-on-write updates engines, CoW (§3.2,
// modelled on LMDB's shadow-paging B+tree) and NVM-CoW (§4.2), as one Engine
// over the two things the paper varies:
//   - the pager: CoW's directory is a file behind the filesystem interface,
//     its master record swung after an fsync; NVM-CoW's is allocator chunks —
//     no filesystem, no kernel crossing — under an atomic durable master write;
//   - the tuple placement (placement.go): a CoW leaf holds the tuple's inlined
//     image, an NVM-CoW leaf a non-volatile pointer to a tuple persisted once
//     as its own chunk, avoiding the transformation and copying costs.
//
// Neither writes a WAL: committing a group of transactions makes the dirty
// pages durable and atomically swings the master record, so there is no
// recovery process — after a crash the master record already points at a
// consistent directory, and what the lost dirty directory held is reclaimed
// by a reachability sweep (asynchronous in the paper; inline at Open here).
// All tables and secondary indexes of the partition share one tree (packed
// key space, see core.TreePrimary), so multi-table transactions are atomic
// under the single master record.
package cow

import (
	"fmt"

	"nstore/internal/core"
	"nstore/internal/cowbtree"
	"nstore/internal/mvcc"
)

// Engine is the copy-on-write updates engine, traditional or NVM-aware.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts       core.Options
	name       string
	tree       *cowbtree.Tree
	tup        placement
	sinceGroup int // transactions in the un-persisted batch
}

// New creates a fresh CoW engine: file pager, tuples inlined in the leaves.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("cow", filePlacement, env, schemas, opts, false)
}

// Open re-attaches a CoW engine after a restart.
func Open(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("cow", filePlacement, env, schemas, opts, true)
}

// NewNVM creates a fresh NVM-CoW engine: arena pager, tuples in chunks.
func NewNVM(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("nvm-cow", arenaPlacement, env, schemas, opts, false)
}

// OpenNVM re-attaches an NVM-CoW engine after a restart.
func OpenNVM(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("nvm-cow", arenaPlacement, env, schemas, opts, true)
}

// start builds the engine over the pager and placement mk creates or reopens.
// Reopening replays nothing: the master record's meta word carries the highest
// persisted txn id, and the placement reclaims what the dirty directory held.
func start(name string, mk func(*core.Env, int, bool) (cowbtree.Pager, placement, error),
	env *core.Env, schemas []*core.Schema, opts core.Options, reopen bool) (*Engine, error) {
	if err := opts.CheckVestigial(); err != nil {
		return nil, err
	}
	if err := core.ValidatePacked(schemas); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults(), name: name}
	e.InitBase(env, schemas)
	if reopen {
		defer e.Bd.Timer(&e.Bd.Recovery)()
	}
	pg, tup, err := mk(env, e.opts.CowPageSize, reopen)
	if err != nil {
		return nil, err
	}
	e.tup = tup
	if reopen {
		e.tree = cowbtree.Attach(pg)
		e.TxnID = e.tree.Meta()
		records, err := tup.reclaim(e.tree)
		if err != nil {
			return nil, err
		}
		e.Rec = core.RecoveryReport{Records: records}
	} else if e.tree, err = cowbtree.Create(pg); err != nil {
		return nil, err
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// Name returns "cow" or "nvm-cow".
func (e *Engine) Name() string { return e.name }

// Begin starts a transaction against the dirty directory.
func (e *Engine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.tree.Begin()
	return nil
}

// Commit keeps the transaction's changes in the dirty directory and, once
// the group is full, persists the batch by swinging the master record.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	e.tree.SetMeta(e.TxnID)
	e.tree.Commit()
	e.tup.commit()
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
	// sinceGroup == 0 means this commit persisted the batch: the whole
	// group is durable and its versions may publish to snapshot readers.
	e.MV.CommitStaged(e.TxnID, e.sinceGroup == 0)
	return e.EndTx()
}

// persist makes the batch durable; only then may what it superseded be freed.
func (e *Engine) persist() error {
	e.sinceGroup = 0
	err := e.tree.Persist()
	if err == nil {
		e.tup.persisted()
	}
	return err
}

// Abort discards the transaction: its directory pages and the tuples it
// placed are released at once ("Recover tuple space immediately", Table 2).
func (e *Engine) Abort() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	e.tree.Abort()
	e.tup.abort()
	e.MV.DropStaged()
	return e.EndTx()
}

// Insert places the tuple and stores its leaf value in the dirty directory.
func (e *Engine) Insert(table string, key uint64, row []core.Value) error {
	tm, err := e.InsertTable(table, key)
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
	if err := e.store(tk, core.EncodeRow(tm.Schema, row)); err != nil {
		return err
	}
	if err := e.reindex(tm, key, nil, row); err != nil {
		return err
	}
	e.MV.StageInsert(table, key)
	return nil
}

// Update copies the tuple, applies the changes to the copy, and stores the
// copy "even if a transaction only modifies a subset of the tuple's fields"
// (§3.2); NVM-CoW puts only the copy's pointer in the directory (Table 2).
func (e *Engine) Update(table string, key uint64, upd core.Update) error {
	tm, leaf, old, err := e.current(table, key)
	if err != nil {
		return err
	}
	now := core.CloneRow(old)
	core.ApplyDelta(now, upd)
	if err := e.store(core.TreePrimary(tm.ID, key), core.EncodeRow(tm.Schema, now)); err != nil {
		return err
	}
	e.tup.retire(leaf)
	if err := e.reindex(tm, key, old, now); err != nil {
		return err
	}
	e.MV.StageUpdate(table, key, nil, old) // the copy's original
	return nil
}

// Delete removes a tuple's leaf entry and its secondary entries; what the
// entry named is reclaimed once the batch persists. Storage time covers the
// lookup as well as the removal, and stops on the error path too.
func (e *Engine) Delete(table string, key uint64) error {
	tm, leaf, old, err := e.current(table, key)
	if err != nil {
		return err
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	_, err = e.tree.Delete(core.TreePrimary(tm.ID, key))
	stopSt()
	if err != nil {
		return err
	}
	e.tup.retire(leaf)
	if err := e.reindex(tm, key, old, nil); err != nil {
		return err
	}
	e.MV.StageDelete(table, key, old)
	return nil
}

// current resolves a write to an existing tuple: inside a transaction, the
// table, the tuple's leaf value and its decoded row, or ErrKeyNotFound.
func (e *Engine) current(table string, key uint64) (*core.TableMeta, []byte, []core.Value, error) {
	tm, err := e.WriteTable(table)
	if err != nil {
		return nil, nil, nil, err
	}
	leaf, old, ok, err := e.read(tm, key)
	if err == nil && !ok {
		err = core.ErrKeyNotFound
	}
	return tm, leaf, old, err
}

// read looks key up in the dirty directory and decodes the image its leaf
// value names; the lookup and the image read are storage time.
func (e *Engine) read(tm *core.TableMeta, key uint64) (leaf []byte, row []core.Value, ok bool, err error) {
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	var img []byte
	if leaf, ok = e.tree.Get(core.TreePrimary(tm.ID, key)); ok {
		img, ok, err = e.tup.get(leaf)
	}
	stopSt()
	if !ok {
		return nil, nil, false, err
	}
	row, err = core.DecodeRow(tm.Schema, img)
	return leaf, row, err == nil, err
}

// store places an image and puts its leaf value under tk: storage time.
func (e *Engine) store(tk uint64, img []byte) error {
	defer e.Bd.Timer(&e.Bd.Storage)()
	leaf, err := e.tup.put(img)
	if err != nil {
		return err
	}
	return e.tree.Put(tk, leaf)
}

// reindex moves key's secondary entries from row old to row now, where a nil
// row has none: index time.
func (e *Engine) reindex(tm *core.TableMeta, key uint64, old, now []core.Value) error {
	defer e.Bd.Timer(&e.Bd.Index)()
	for _, f := range tm.Schema.SecFixes(nil, key, old, now) {
		k := core.TreeSecondary(tm.ID, f.Idx, f.Sec, f.PK)
		var err error
		if f.Add {
			err = e.tree.Put(k, nil)
		} else {
			_, err = e.tree.Delete(k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Get fetches the master record's directory, looks the tuple up (§5.2) and,
// on NVM-CoW, follows the pointer to its contents (Table 2).
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, false, err
	}
	_, row, ok, err := e.read(tm, key)
	return row, ok, err
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	j, ok := tm.SecPos(index)
	if !ok {
		return fmt.Errorf("%s: unknown index %q", e.Name(), index)
	}
	defer e.Bd.Timer(&e.Bd.Index)()
	lo, hi := core.TreeSecRange(tm.ID, j, sec)
	e.tree.Iter(lo, func(k uint64, v []byte) bool { return k < hi && fn(core.TreeSecPK(k)) })
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
		img, ok, err := e.tup.get(v)
		if err != nil {
			derr = err
			return false
		}
		if !ok {
			return true
		}
		row, err := core.DecodeRow(tm.Schema, img)
		if err != nil {
			derr = err
			return false
		}
		return fn(core.TreePK(k), row)
	})
	return derr
}

// Flush persists any batched transactions. A transient fsync failure is
// tagged retryable: Persist flushed nothing and may simply be retried. The
// arena pager has no such failure, so NVM-CoW's errors pass through as they are.
func (e *Engine) Flush() error {
	defer e.Exclude()()
	defer e.Bd.Timer(&e.Bd.Recovery)()
	if err := core.ClassifyDurability(e.persist()); err != nil {
		return err
	}
	e.MV.PublishDurable()
	return nil
}

// Footprint reports storage usage (Fig. 14).
func (e *Engine) Footprint() core.Footprint { return e.tup.footprint() }
