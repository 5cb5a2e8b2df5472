// Package logeng implements the log-structured updates engines, Log (§3.3,
// modelled on LevelDB) and NVM-Log (§4.3), as one Engine over the two run
// stores the paper varies. Both batch changes in a MemTable and reconstruct a
// tuple by coalescing its entries — full images for inserts, updated fields
// for updates, tombstones for deletes — newest first across the MemTable and
// the immutable runs below it, each run behind a Bloom filter resident on the
// device. The engine writes the operations, the newest-entry probe, the read
// chain and the range merge once; a store (disk.go, nvm.go) keeps the rest:
//
//   - the disk store: a volatile MemTable behind a redo WAL on the filesystem,
//     flushed through a staged pipeline — prepare, build, install, release —
//     into SSTables on pmfs, listed by a two-slot manifest, read through a
//     block cache; a compaction merges every L0 run and the levels above the
//     first empty one into that level in one k-way pass. Large values — full
//     images, and large deltas folded into images at the flush — are
//     separated WiscKey-style into a value log whose GC rewrites live
//     records and removes dead segments crash-atomically;
//   - the NVM store: the MemTable is durable, so a full one is simply listed
//     as the newest immutable run (one run-list swap) and a fresh one starts,
//     and the WAL only undoes uncommitted transactions: recovery rebuilds no
//     MemTable. Entry pointers carry their kind, and a merge of a size-ratio
//     set of the newest runs adopts every chunk whose entry decides its key.
package logeng

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nstore/internal/bloom"
	"nstore/internal/core"
	"nstore/internal/engine/lsm"
	"nstore/internal/mvcc"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// Engine is the log-structured updates engine, traditional or NVM-aware.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts core.Options
	name string
	st   store
	// indexes are the secondary indexes as the reads see them; the store
	// keeps its typed trees, which its writes change.
	indexes [][]core.IndexTree

	fstats      core.FlushStats
	compactions int
}

// store is what the two engines vary: where the MemTable and the runs live,
// how an operation is logged and undone, and how a full MemTable leaves.
type store interface {
	// mems returns the MemTables newest first: the active one if active is
	// set, then one frozen awaiting its flush; nil where there is none.
	mems(active bool) [2]core.IndexTree
	// kind and entry read what a MemTable value names: the entry's kind
	// alone, or the whole entry.
	kind(v uint64) (uint8, error)
	entry(v uint64) (lsm.Entry, error)
	// eachRun calls fn on every run newest first until fn says stop or fails.
	eachRun(fn func(r run) (stop bool, err error)) error
	// resolve materializes a separated image (lsm.Resolver).
	resolve(key uint64, ent lsm.Entry) (lsm.Entry, error)
	// write logs one operation, installs its entry over memPtr — the
	// MemTable's entry for the key, 0 for none — and carries out its
	// secondary-index fixes, all undoable until the transaction ends.
	write(tm *core.TableMeta, typ uint8, key, memPtr uint64, ent lsm.Entry, fixes []core.SecFix) error
	// stageLazy stages the pre-image of a write that coalesced no row: the
	// MemTable entry it superseded, if the store publishes after the commit.
	stageLazy(table string, key, ref uint64)
	begin()
	// commit commits the transaction, durably or into a group not yet
	// durable; a failure leaves it to be rolled back.
	commit() (durable bool, err error)
	abort() error
	// maintain runs after a commit: it moves a full MemTable out.
	maintain() error
	flushGroup() error
	footprint() core.Footprint
	walStats() core.WalStats
	// vlogStats adds the value log's counters to st.
	vlogStats(st *core.FlushStats)
}

// run is one immutable sorted run: an SSTable or a durable MemTable. Its
// Bloom filter (mayContain) is probed before kindOf or find reads it.
type run interface {
	mayContain(dev *nvm.Device, key uint64) bool
	// kindOf returns the kind of the run's entry for tk, reading no payload.
	kindOf(tk uint64) (kind uint8, ok bool, err error)
	find(tk uint64) (lsm.Entry, bool, error)
	// from returns the run's entries in [lo, hi) as a range-merge source.
	from(lo, hi uint64) (source, error)
}

// New creates a fresh Log engine.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("log", newDisk, env, schemas, opts, false)
}

// Open recovers a Log engine: reopen the SSTables from the manifest, replay
// the value-log head and validate every pointer the runs carry, rebuild the
// MemTable from the WAL segments, remove orphaned runs from interrupted
// flushes/compactions, and rebuild the secondary indexes (§3.3).
func Open(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("log", newDisk, env, schemas, opts, true)
}

// NewNVM creates a fresh NVM-Log engine anchored at arena root slot 0.
func NewNVM(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("nvm-log", newNVM, env, schemas, opts, false)
}

// OpenNVM recovers an NVM-Log engine: reopen the durable MemTables and
// indexes, undo in-flight transactions via the WAL, complete any interrupted
// rotation, and sweep orphaned chunks. No MemTable rebuild (§4.3).
func OpenNVM(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	return start("nvm-log", newNVM, env, schemas, opts, true)
}

// start builds the engine over the store mk creates or recovers; mk sets
// e.st before its recovery reads through the engine.
func start(name string, mk func(e *Engine, reopen bool) error, env *core.Env, schemas []*core.Schema, opts core.Options, reopen bool) (*Engine, error) {
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
	if err := mk(e, reopen); err != nil {
		return nil, err
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// addIndexes records a table's secondary trees as the reads see them.
func addIndexes[T core.IndexTree](e *Engine, secs []T) {
	view := make([]core.IndexTree, len(secs))
	for i, t := range secs {
		view[i] = t
	}
	e.indexes = append(e.indexes, view)
}

// Name returns "log" or "nvm-log".
func (e *Engine) Name() string { return e.name }

// Begin starts a transaction.
func (e *Engine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.st.begin()
	return nil
}

// Commit commits the transaction, then moves a full MemTable out inline. A
// failure of that maintenance is surfaced to the caller, but the transaction
// IS committed: the store keeps what it needs to retry at a later commit.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	durable, err := e.st.commit()
	stop()
	if err != nil {
		// The commit never took; the transaction is still undoable. Roll it
		// back and end it so the caller can Begin again and retry.
		if rerr := e.rollback(); rerr != nil {
			return core.Corrupt(errors.Join(err, rerr))
		}
		return err
	}
	e.MV.CommitStaged(e.TxnID, durable)
	maintErr := e.st.maintain()
	if endErr := e.EndTx(); maintErr == nil {
		return endErr
	}
	return maintErr
}

// Abort rolls the transaction back.
func (e *Engine) Abort() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	return e.rollback()
}

// rollback undoes the running transaction in the store, drops its staged
// versions and ends it, so every exit leaves the engine ready for Begin. A
// store that cannot undo has volatile and durable state diverged: only
// recovery restores it.
func (e *Engine) rollback() error {
	err := e.st.abort()
	e.MV.DropStaged()
	if endErr := e.EndTx(); err == nil {
		return endErr
	}
	return core.Corrupt(err)
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
	ent := lsm.Entry{Kind: lsm.KindFull, Payload: core.EncodeRow(tm.Schema, row)}
	if err := e.st.write(tm, core.WalInsert, key, memPtr, ent, tm.Schema.SecFixes(nil, key, nil, row)); err != nil {
		return err
	}
	e.MV.StageInsert(table, key)
	return nil
}

// Update records the updated fields as a delta entry. The delta is all the
// MemTable needs: the tuple is coalesced only when the update can move it
// within a secondary index, or a pinned view needs its pre-image now.
// Otherwise the store stages the pre-image lazily (stageLazy).
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
	var fixes []core.SecFix
	reindex := tm.Schema.IndexReads(upd.Cols)
	if reindex || e.MV.Capture() {
		if old, err = e.liveRow(tm, key); err != nil {
			return err
		}
	}
	if reindex {
		now := core.CloneRow(old)
		core.ApplyDelta(now, upd)
		fixes = tm.Schema.SecFixes(nil, key, old, now)
	}
	ent := lsm.Entry{Kind: lsm.KindDelta, Payload: core.EncodeDelta(tm.Schema, upd)}
	if err := e.st.write(tm, core.WalUpdate, key, memPtr, ent, fixes); err != nil {
		return err
	}
	if old == nil {
		e.st.stageLazy(table, key, memPtr)
		return nil
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
// indexes, or for a pinned view; otherwise its pre-image is staged lazily, as
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
	if err := e.st.write(tm, core.WalDelete, key, memPtr, lsm.Entry{Kind: lsm.KindTomb}, tm.Schema.SecFixes(nil, key, old, nil)); err != nil {
		return err
	}
	if old == nil {
		e.st.stageLazy(table, key, memPtr)
		return nil
	}
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
// superseded ref, the MemTable chunk the write replaced (0: the key was not
// in the MemTable, so nothing above the frozen MemTable and the runs held
// it). Nothing below ref changes before the write's group is published: ref
// is freed at the publish, and a MemTable freezes only after one.
func (e *Engine) PreImage(table string, key, ref uint64) ([]core.Value, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	tk := core.TreePrimary(tm.ID, key)
	var top []lsm.Entry
	if ref != 0 {
		ent, err := e.st.entry(ref)
		if err != nil {
			return nil, err
		}
		top = append(top, ent)
	}
	row, _, err := e.coalesce(tm, tk, top, false)
	return row, err
}

// exists decides from the kind of tk's newest entry alone whether the tuple
// is live: the first entry of the MemTables, newest first, then of the runs.
// A delta is only ever written over a live tuple, and a delete above it would
// be the newer entry, so anything but a tombstone means the tuple exists. It
// reads no payload and no value log: a MemTable entry's kind, or a run's
// filter and what its index lookup reads. It also returns the active
// MemTable's entry for tk (0: none), which the write folds into.
func (e *Engine) exists(tk uint64) (live bool, memPtr uint64, err error) {
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	for i, t := range e.st.mems(true) {
		if t == nil {
			continue
		}
		v, ok := t.Get(tk)
		if !ok {
			continue
		}
		kind, err := e.st.kind(v)
		stopSt()
		if i == 0 {
			memPtr = v
		}
		return kind != lsm.KindTomb, memPtr, err
	}
	stopSt()
	defer e.Bd.Timer(&e.Bd.Index)()
	var kind uint8
	found := false
	err = e.st.eachRun(func(r run) (bool, error) {
		if !r.mayContain(e.Env.Dev, tk) {
			return false, nil
		}
		var err error
		kind, found, err = r.kindOf(tk)
		return found, err
	})
	return found && kind != lsm.KindTomb, 0, err
}

// chain collects the entries for a tree key newest-first after those in
// entries — the active MemTable if active is set, a frozen one, then the
// runs (runChain) — stopping at the first non-delta (terminal) entry.
func (e *Engine) chain(tk uint64, entries []lsm.Entry, active bool) ([]lsm.Entry, error) {
	if terminal(entries) {
		return entries, nil
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	for _, t := range e.st.mems(active) {
		if t == nil {
			continue
		}
		v, ok := t.Get(tk)
		if !ok {
			continue
		}
		ent, err := e.st.entry(v)
		if err != nil {
			stopSt()
			return nil, err
		}
		if entries = append(entries, ent); terminal(entries) {
			stopSt()
			return entries, nil
		}
	}
	stopSt()
	defer e.Bd.Timer(&e.Bd.Index)()
	return e.runChain(tk, entries)
}

// terminal reports whether entries, newest first, end in a full image or a
// tombstone: no older entry can change the row.
func terminal(entries []lsm.Entry) bool {
	return len(entries) > 0 && entries[len(entries)-1].Kind != lsm.KindDelta
}

// runChain appends tk's entries in the runs whose filters pass it, newest
// first, to entries, stopping at the first terminal one.
func (e *Engine) runChain(tk uint64, entries []lsm.Entry) ([]lsm.Entry, error) {
	err := e.st.eachRun(func(r run) (bool, error) {
		if !r.mayContain(e.Env.Dev, tk) {
			return false, nil
		}
		ent, ok, err := r.find(tk)
		if ok {
			entries = append(entries, ent)
		}
		return terminal(entries), err
	})
	return entries, err
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
	row, exists, resolved, err := lsm.CoalesceR(tm.Schema, tk, entries, e.st.resolve)
	if err == nil && !resolved && len(entries) > 0 {
		err = core.Corrupt(fmt.Errorf("logeng: key %d of %s has deltas and no image under them", core.TreePK(tk), tm.Schema.Name))
	}
	if err != nil {
		return nil, false, err
	}
	return row, exists, nil
}

// Get reconstructs a tuple by coalescing entries from the MemTables and the
// runs, newest first, stopping at the first full image or tombstone.
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, false, err
	}
	return e.coalesce(tm, core.TreePrimary(tm.ID, key), nil, true)
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	return core.ScanSecondary(&e.Base, e.indexes, table, index, sec, fn)
}

// source is one input of a range merge, positioned at its next entry.
type source interface {
	head() (key uint64, ent lsm.Entry, ok bool)
	advance() error
}

// memRange is a range of a tree's entries read into memory, a MemTable's or a
// durable run's, as a range-merge source.
type memRange []keyedEntry

type keyedEntry struct {
	k uint64
	e lsm.Entry
}

func (m *memRange) head() (uint64, lsm.Entry, bool) {
	if len(*m) == 0 {
		return 0, lsm.Entry{}, false
	}
	return (*m)[0].k, (*m)[0].e, true
}

func (m *memRange) advance() error {
	*m = (*m)[1:]
	return nil
}

// readRange reads the entries t names in [lo, hi) through entry.
func readRange(t core.IndexTree, lo, hi uint64, entry func(uint64) (lsm.Entry, error)) (*memRange, error) {
	var m memRange
	var err error
	t.Iter(lo, func(k, v uint64) bool {
		if k >= hi {
			return false
		}
		var ent lsm.Entry
		if ent, err = entry(v); err != nil {
			return false
		}
		m = append(m, keyedEntry{k, ent})
		return true
	})
	return &m, err
}

// ScanRange merges the MemTables and every run over the key range, newest
// source first, coalescing per key.
func (e *Engine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	lo, hi := core.TreePrimaryRange(tm.ID, from, to)
	if to > core.TreePK(^uint64(0)) {
		hi = core.TreePrimary(tm.ID, core.TreePK(^uint64(0)))
	}
	var srcs []source
	for _, t := range e.st.mems(true) {
		if t == nil {
			continue
		}
		m, err := readRange(t, lo, hi, e.st.entry)
		if err != nil {
			return err
		}
		srcs = append(srcs, m)
	}
	err = e.st.eachRun(func(r run) (bool, error) {
		s, err := r.from(lo, hi)
		srcs = append(srcs, s)
		return false, err
	})
	if err != nil {
		return err
	}
	var entries []lsm.Entry
	for {
		var k uint64
		if k, entries, err = nextKey(srcs, entries[:0]); err != nil || len(entries) == 0 {
			return err
		}
		row, exists, err := e.rowOf(tm, k, entries)
		if err != nil {
			return err
		}
		if exists && !fn(core.TreePK(k), row) {
			return nil
		}
	}
}

// nextKey is one step of a merge of sorted sources, newest first: it appends
// the entries of the smallest next key across srcs to entries, newest source
// first, and advances each source past it. It appends none once every source
// is spent.
func nextKey(srcs []source, entries []lsm.Entry) (uint64, []lsm.Entry, error) {
	minKey, found := uint64(0), false
	for _, s := range srcs {
		if k, _, ok := s.head(); ok && (!found || k < minKey) {
			minKey, found = k, true
		}
	}
	for _, s := range srcs {
		if k, ent, ok := s.head(); ok && k == minKey {
			entries = append(entries, ent)
			if err := s.advance(); err != nil {
				return 0, nil, err
			}
		}
	}
	return minKey, entries, nil
}

// Flush forces the pending group commit (not a MemTable flush).
func (e *Engine) Flush() error { return e.st.flushGroup() }

// Footprint reports storage usage (Fig. 14).
func (e *Engine) Footprint() core.Footprint { return e.st.footprint() }

// WalStats exposes the WAL's cumulative counters (core.WalStatser).
func (e *Engine) WalStats() core.WalStats { return e.st.walStats() }

// FlushStats exposes the staged-pipeline and value-log counters
// (core.FlushStatser). A metrics scrape calls it from outside the owner
// goroutine, so it reads under the exclusion, as a snapshot view does; the
// owner must not call it inside its own transaction.
func (e *Engine) FlushStats() core.FlushStats {
	x := e.Exclusion()
	x.Lock()
	defer x.Unlock()
	st := e.fstats
	e.st.vlogStats(&st)
	return st
}

// Compactions returns the number of merges performed.
func (e *Engine) Compactions() int { return e.compactions }

// filter is a run's Bloom filter, its words resident on the device at ptr:
// an SSTable's in volatile allocator memory, a durable MemTable's persisted
// beside it. A filter of no words passes every key.
type filter struct {
	ptr   pmalloc.Ptr
	words uint64
	k     int
}

// newFilter streams the words of a marshalled filter (bloom.Filter.Marshal)
// to the device through stream: pmalloc.Arena.StreamAlloc, or
// StreamPersisted for a durable run.
func newFilter(bm []byte, stream func(pmalloc.Tag, []byte) (pmalloc.Ptr, error)) (filter, error) {
	p, err := stream(pmalloc.TagIndex, bm[8:])
	return filter{ptr: p, words: uint64(len(bm)-8) / 8, k: int(binary.LittleEndian.Uint64(bm))}, err
}

// mayContain probes the filter's words on dev.
func (f *filter) mayContain(dev *nvm.Device, key uint64) bool {
	ok := true
	if f.words > 0 {
		bloom.Probes(key, f.k, f.words*64, func(bit uint64) bool {
			ok = dev.ReadU64(int64(f.ptr)+int64(bit/64)*8)&(1<<(bit%64)) != 0
			return ok
		})
	}
	return ok
}
