// Package nvminp implements the NVM-aware in-place updates engine (NVM-InP,
// §4.1) — the engine the paper finds best overall. Differences from the
// traditional InP engine:
//
//   - The WAL is a non-volatile linked list of entries that record
//     non-volatile *pointers* to tuples (inserts/deletes) and before-images
//     of just the updated fields (updates) — no full after-images, since
//     the referenced data is itself durable on NVM.
//   - Changes are persisted with the allocator interface's sync primitive
//     when they happen; commit is a single atomic durable write of the
//     committed-transaction marker, after which the log is truncated.
//   - Indexes are non-volatile B+trees usable immediately after restart.
//   - Recovery has no redo phase: it only undoes the transactions that were
//     in flight at the crash, so its latency is independent of the number
//     of executed transactions (Fig. 12).
package nvminp

import (
	"fmt"

	"nstore/internal/core"
	"nstore/internal/mvcc"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

const (
	hdrMagic = 0x4e564d494e503131 // "NVMINP11"

	rootSlot = 0

	// Engine header layout.
	hMagic     = 0
	hCommitted = 8
	hWalHead   = 16
	hNTables   = 24
	hAnchors   = 32

	// WAL entry layout (chunk, tagged TagLog).
	wNext  = 0
	wTxn   = 8
	wType  = 16 // core.WalInsert / WalUpdate / WalDelete
	wTable = 17
	wNCols = 18
	wNSec  = 19
	wKey   = 24
	wSlot  = 32
	wData  = 40 // update before-image: nCols x (col u8, value u64), then
	// the secondary repair list: nSec x (idx u8, op u8, composite u64).
	// Undo replays the repair list with absolute, idempotent operations
	// (op 1 = was added, undo deletes; op 2 = was removed, undo re-adds),
	// so a crash anywhere inside an interrupted undo re-converges.
	colRec = 9
	secRec = 10
)

// secFix describes one secondary-index change for idempotent WAL undo.
type secFix struct {
	idx       int
	added     bool
	composite uint64
}

// Engine is the NVM-aware in-place updates engine.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts core.Options

	hdr     pmalloc.Ptr
	heaps   []*core.Heap
	primary []*nvbtree.Tree
	second  [][]*nvbtree.Tree

	// Volatile transaction state.
	ops []txnOp
}

type txnOp struct {
	typ     uint8
	table   int
	key     uint64
	slot    uint64
	entry   pmalloc.Ptr
	oldVars []uint64 // var-slots superseded by this update (freed at commit)
	delSlot uint64   // delete: slot reclaimed at commit
}

func (e *Engine) dev() *nvm.Device { return e.Env.Dev }

// anchorsPerTable returns the number of u64 anchors table t needs.
func anchorsPerTable(s *core.Schema) int { return 2 + len(s.Secondary) }

// New creates a fresh NVM-InP engine anchored at arena root slot 0.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	n := 0
	for _, s := range schemas {
		n += anchorsPerTable(s)
	}
	hdr, err := env.Arena.Alloc(hAnchors+8*n, pmalloc.TagOther)
	if err != nil {
		return nil, err
	}
	e.hdr = hdr
	d := e.dev()
	d.WriteU64(int64(hdr)+hMagic, hdrMagic)
	d.WriteU64(int64(hdr)+hCommitted, 0)
	d.WriteU64(int64(hdr)+hWalHead, 0)
	d.WriteU64(int64(hdr)+hNTables, uint64(len(schemas)))

	off := int64(hAnchors)
	for _, tm := range e.Tables {
		h := core.NewHeap(env.Arena, tm.Schema, true)
		e.heaps = append(e.heaps, h)
		d.WriteU64(int64(hdr)+off, h.Header())
		off += 8
		pt, err := nvbtree.Create(env.Arena, e.opts.BTreeNodeSize)
		if err != nil {
			return nil, err
		}
		e.primary = append(e.primary, pt)
		d.WriteU64(int64(hdr)+off, pt.Header())
		off += 8
		var secs []*nvbtree.Tree
		for range tm.Schema.Secondary {
			st, err := nvbtree.Create(env.Arena, e.opts.BTreeNodeSize)
			if err != nil {
				return nil, err
			}
			secs = append(secs, st)
			d.WriteU64(int64(hdr)+off, st.Header())
			off += 8
		}
		e.second = append(e.second, secs)
	}
	d.Sync(int64(hdr), hAnchors+8*n)
	env.Arena.SetPersisted(hdr)
	env.Arena.SetRoot(rootSlot, hdr)
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// Open recovers the engine after a crash: reopen the non-volatile indexes
// and heaps, undo in-flight transactions via the WAL, and truncate it. No
// redo phase, no index rebuild (§4.1).
func Open(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()

	hdr := env.Arena.Root(rootSlot)
	if hdr == 0 || env.Dev.ReadU64(int64(hdr)+hMagic) != hdrMagic {
		return nil, fmt.Errorf("nvminp: no engine header")
	}
	e.hdr = hdr
	d := e.dev()
	if int(d.ReadU64(int64(hdr)+hNTables)) != len(schemas) {
		return nil, fmt.Errorf("nvminp: schema mismatch")
	}
	// Open trees first (their journals replay before any allocation), then
	// the heaps.
	off := int64(hAnchors)
	heapHdrs := make([]pmalloc.Ptr, len(e.Tables))
	for _, tm := range e.Tables {
		heapHdrs[tm.ID] = d.ReadU64(int64(hdr) + off)
		off += 8
		pt, err := nvbtree.Open(env.Arena, d.ReadU64(int64(hdr)+off))
		if err != nil {
			return nil, err
		}
		e.primary = append(e.primary, pt)
		off += 8
		var secs []*nvbtree.Tree
		for range tm.Schema.Secondary {
			st, err := nvbtree.Open(env.Arena, d.ReadU64(int64(hdr)+off))
			if err != nil {
				return nil, err
			}
			secs = append(secs, st)
			off += 8
		}
		e.second = append(e.second, secs)
	}
	for _, tm := range e.Tables {
		e.heaps = append(e.heaps, core.OpenHeap(env.Arena, tm.Schema, heapHdrs[tm.ID]))
	}
	if err := e.undoWAL(); err != nil {
		return nil, err
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// undoWAL removes the effects of the transactions in flight at the crash
// (newest entry first — the list head is the most recent append).
func (e *Engine) undoWAL() error {
	d := e.dev()
	head := d.ReadU64(int64(e.hdr) + hWalHead)
	var frees []pmalloc.Ptr
	for p := head; p != 0; p = d.ReadU64(int64(p) + wNext) {
		frees = append(frees, p)
		// Truncation is the commit point: any entry still linked belongs to
		// an uncommitted transaction.
		if err := e.undoEntry(p); err != nil {
			return err
		}
	}
	// Truncate: head reset is the atomic point; chunk frees follow.
	d.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	for _, p := range frees {
		if e.Env.Arena.StateOf(p) != pmalloc.StateFree {
			e.Env.Arena.Free(p)
		}
	}
	// Sweep WAL-tagged chunks orphaned by a crash between the commit
	// marker and the chunk frees. The chunk directory is collected on the
	// owner goroutine (the device data path is single-owner); the three-state
	// classification of the stripes is pure host-memory work and fans out,
	// then the frees happen serially.
	workers := core.RecoveryWorkers(e.opts.RecoveryParallelism)
	type chunkRec struct {
		p   pmalloc.Ptr
		tag pmalloc.Tag
		st  pmalloc.State
	}
	var chunks []chunkRec
	e.Env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
		chunks = append(chunks, chunkRec{p: p, tag: tag, st: st})
	})
	orphans := make([][]pmalloc.Ptr, workers)
	_ = core.ParallelChunks(workers, len(chunks), func(w, lo, hi int) error {
		for _, c := range chunks[lo:hi] {
			if c.tag == pmalloc.TagLog && c.st == pmalloc.StatePersisted {
				orphans[w] = append(orphans[w], c.p)
			}
		}
		return nil
	})
	for _, list := range orphans {
		for _, p := range list {
			e.Env.Arena.Free(p)
		}
	}
	e.Rec = core.RecoveryReport{Records: int64(len(frees) + len(chunks)), Workers: workers}
	return nil
}

// undoEntry reverses one WAL entry's operation.
func (e *Engine) undoEntry(p pmalloc.Ptr) error {
	d := e.dev()
	typ := d.ReadU8(int64(p) + wType)
	table := int(d.ReadU8(int64(p) + wTable))
	key := d.ReadU64(int64(p) + wKey)
	slot := d.ReadU64(int64(p) + wSlot)
	tm := e.Tables[table]
	h := e.heaps[table]

	switch typ {
	case core.WalInsert:
		// Release the tuple's storage using the pointer recorded in the WAL
		// entry, and drop its index entries.
		if h.State(slot) != core.SlotFree {
			if _, err := e.primary[table].Delete(key); err != nil {
				return err
			}
			if err := e.unlinkSecondaries(tm, h, slot, key); err != nil {
				return err
			}
			h.FreeSlot(slot)
		}
	case core.WalUpdate:
		if h.State(slot) == core.SlotFree {
			return nil
		}
		n := int(d.ReadU8(int64(p) + wNCols))
		for i := 0; i < n; i++ {
			base := int64(p) + wData + int64(i)*colRec
			ci := int(d.ReadU8(base))
			val := d.ReadU64(base + 1)
			if tm.Schema.Columns[ci].Type == core.TInt {
				if err := h.WriteCol(slot, ci, core.Value{I: int64(val)}); err != nil {
					return err
				}
			} else {
				// Free the new var-slot and restore the old pointer.
				cur := h.ColVarPtr(slot, ci)
				if cur != 0 && cur != val {
					h.FreeVar(cur)
				}
				e.restoreVarPtr(slot, ci, val)
			}
		}
		h.SyncTuple(slot)
		// Replay the logged secondary repair list: absolute, idempotent
		// operations, safe to re-run if a crash interrupts this undo.
		nSec := int(d.ReadU8(int64(p) + wNSec))
		secBase := int64(p) + wData + int64(n)*colRec
		for i := 0; i < nSec; i++ {
			base := secBase + int64(i)*secRec
			idx := int(d.ReadU8(base))
			op := d.ReadU8(base + 1)
			composite := d.ReadU64(base + 2)
			if op == 1 {
				if _, err := e.second[table][idx].Delete(composite); err != nil {
					return err
				}
			} else {
				if err := e.second[table][idx].Put(composite, core.SecPK(composite)); err != nil {
					return err
				}
			}
		}
	case core.WalDelete:
		// The tuple slot was only logically discarded; re-link the indexes.
		if h.State(slot) == core.SlotFree {
			return nil
		}
		if err := e.primary[table].Put(key, slot); err != nil {
			return err
		}
		if len(tm.Schema.Secondary) > 0 {
			row := h.ReadRow(slot)
			for j, ix := range tm.Schema.Secondary {
				if err := e.second[table][j].Put(core.SecComposite(ix.SecKey(row), key), key); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// unlinkSecondaries removes the secondary entries of the tuple at slot. A
// table without indexes has none, and its row is not read.
func (e *Engine) unlinkSecondaries(tm *core.TableMeta, h *core.Heap, slot, key uint64) error {
	if len(tm.Schema.Secondary) == 0 {
		return nil
	}
	row := h.ReadRow(slot)
	for j, ix := range tm.Schema.Secondary {
		if _, err := e.second[tm.ID][j].Delete(core.SecComposite(ix.SecKey(row), key)); err != nil {
			return err
		}
	}
	return nil
}

// restoreVarPtr writes a raw var-slot pointer back into a string field.
func (e *Engine) restoreVarPtr(slot uint64, col int, vp uint64) {
	e.dev().WriteU64(int64(slot)+16+int64(col*8), vp)
}

// appendWAL builds a WAL entry chunk, syncs it, and links it with an atomic
// durable head update.
func (e *Engine) appendWAL(typ uint8, table int, key, slot uint64, befCols []int, befVals []uint64, fixes []secFix) (pmalloc.Ptr, error) {
	d := e.dev()
	size := wData + colRec*len(befCols) + secRec*len(fixes)
	p, err := e.Env.Arena.Alloc(size, pmalloc.TagLog)
	if err != nil {
		// Log-arena exhaustion is reachable from normal traffic: surface it
		// instead of panicking; the transaction can be aborted cleanly.
		return 0, err
	}
	d.WriteU64(int64(p)+wNext, d.ReadU64(int64(e.hdr)+hWalHead))
	d.WriteU64(int64(p)+wTxn, e.TxnID)
	d.WriteU8(int64(p)+wType, typ)
	d.WriteU8(int64(p)+wTable, uint8(table))
	d.WriteU8(int64(p)+wNCols, uint8(len(befCols)))
	d.WriteU8(int64(p)+wNSec, uint8(len(fixes)))
	d.WriteU64(int64(p)+wKey, key)
	d.WriteU64(int64(p)+wSlot, slot)
	for i, ci := range befCols {
		base := int64(p) + wData + int64(i)*colRec
		d.WriteU8(base, uint8(ci))
		d.WriteU64(base+1, befVals[i])
	}
	secBase := int64(p) + wData + int64(len(befCols))*colRec
	for i, f := range fixes {
		base := secBase + int64(i)*secRec
		d.WriteU8(base, uint8(f.idx))
		op := uint8(2)
		if f.added {
			op = 1
		}
		d.WriteU8(base+1, op)
		d.WriteU64(base+2, f.composite)
	}
	e.Env.Arena.Persist(p, size)
	d.WriteU64Durable(int64(e.hdr)+hWalHead, p)
	return p, nil
}

// Name returns "nvm-inp".
func (e *Engine) Name() string { return "nvm-inp" }

// Begin starts a transaction.
func (e *Engine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.ops = e.ops[:0]
	return nil
}

// Commit truncates the WAL with one atomic durable write — since the WAL is
// undo-only and every change was persisted as it happened, an empty WAL *is*
// the committed state — then reclaims space owed by deletes and updates
// (Table 2: "Reclaim space at the end of transaction").
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()
	d := e.dev()
	// The atomic commit point: after this, recovery has nothing to undo.
	d.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	for _, op := range e.ops {
		for _, vp := range op.oldVars {
			e.heaps[op.table].FreeVar(vp)
		}
		if op.typ == core.WalDelete {
			e.heaps[op.table].FreeSlot(op.delSlot)
		}
		if op.entry != 0 {
			e.Env.Arena.Free(op.entry)
		}
	}
	// The WAL truncation above is the durability barrier: versions publish
	// to snapshot readers immediately (NVM-InP is durable at commit).
	e.MV.CommitStaged(e.TxnID, true)
	return e.EndTx()
}

// Abort undoes the transaction using the in-memory op list (equivalently
// the WAL), then truncates the log.
func (e *Engine) Abort() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	for i := len(e.ops) - 1; i >= 0; i-- {
		if err := e.undoEntry(e.ops[i].entry); err != nil {
			// A failed rollback leaves volatile and durable state diverged;
			// only the engine's crash-recovery path can restore consistency.
			// The transaction is over either way — end it so recovery's
			// replacement Begin path is not blocked by ErrInTxn.
			_ = e.EndTx()
			return core.Corrupt(err)
		}
	}
	d := e.dev()
	d.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	for _, op := range e.ops {
		if op.entry != 0 {
			e.Env.Arena.Free(op.entry)
		}
	}
	e.MV.DropStaged()
	return e.EndTx()
}

// Insert adds a tuple per Table 2: sync tuple, record its pointer in the
// WAL, sync the entry, mark the slot persisted, add the index entries.
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
	h := e.heaps[tm.ID]

	stopSt := e.Bd.Timer(&e.Bd.Storage)
	slot, err := h.StoreRow(key, row)
	if err != nil {
		stopSt()
		return err
	}
	h.SyncTuple(slot)
	stopSt()

	stopRec := e.Bd.Timer(&e.Bd.Recovery)
	entry, err := e.appendWAL(core.WalInsert, tm.ID, key, slot, nil, nil, nil)
	stopRec()
	if err != nil {
		h.FreeSlot(slot)
		return err
	}
	// Record the op before touching the indexes so Abort can undo a
	// partially applied insert if an index update fails below.
	e.ops = append(e.ops, txnOp{typ: core.WalInsert, table: tm.ID, key: key, slot: slot, entry: entry})

	stopSt = e.Bd.Timer(&e.Bd.Storage)
	h.PersistSlot(slot)
	stopSt()

	stopIdx = e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	if err := e.primary[tm.ID].Put(key, slot); err != nil {
		return err
	}
	for j, ix := range tm.Schema.Secondary {
		if err := e.second[tm.ID][j].Put(core.SecComposite(ix.SecKey(row), key), key); err != nil {
			return err
		}
	}
	e.MV.StageUpsert(table, key, row)
	return nil
}

// Update records the before-image (field values / var-slot pointers) in the
// WAL, then modifies the tuple in place and syncs the changes.
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

	// The before-image is the updated fields and nothing else (Table 2): an
	// int's value, a string's var-slot pointer. The rest of the row is read
	// only when the update can move the tuple within a secondary index.
	befVals := make([]uint64, len(upd.Cols))
	var oldVars []uint64
	for j, ci := range upd.Cols {
		if tm.Schema.Columns[ci].Type == core.TInt {
			befVals[j] = uint64(h.ReadCol(slot, ci).I)
		} else {
			befVals[j] = h.ColVarPtr(slot, ci)
			oldVars = append(oldVars, befVals[j])
		}
	}
	var fixes []secFix
	if tm.Schema.IndexReads(upd.Cols) {
		old := h.ReadRow(slot)
		now := append([]core.Value(nil), old...)
		core.ApplyDelta(now, upd)
		for j, ix := range tm.Schema.Secondary {
			ok, nk := ix.SecKey(old), ix.SecKey(now)
			if ok != nk {
				fixes = append(fixes,
					secFix{idx: j, added: true, composite: core.SecComposite(nk, key)},
					secFix{idx: j, added: false, composite: core.SecComposite(ok, key)})
			}
		}
	}

	stopRec := e.Bd.Timer(&e.Bd.Recovery)
	entry, err := e.appendWAL(core.WalUpdate, tm.ID, key, slot, upd.Cols, befVals, fixes)
	stopRec()
	if err != nil {
		return err
	}
	// Record the op before modifying anything so Abort can undo a
	// partially applied update from the WAL entry's before-image.
	e.ops = append(e.ops, txnOp{typ: core.WalUpdate, table: tm.ID, key: key, slot: slot, entry: entry})

	stopSt := e.Bd.Timer(&e.Bd.Storage)
	if err := h.WriteCols(slot, upd.Cols, upd.Vals); err != nil {
		// The slot is untouched and the logged before-image is what it
		// holds, so undoing the entry changes nothing; the superseded
		// var-slots stay the tuple's.
		stopSt()
		return err
	}
	e.ops[len(e.ops)-1].oldVars = oldVars
	h.SyncTuple(slot)
	h.PersistCols(slot, upd.Cols...) // the var-slots this update allocated
	stopSt()

	stopIdx = e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	for _, f := range fixes {
		if f.added {
			if err := e.second[tm.ID][f.idx].Put(f.composite, core.SecPK(f.composite)); err != nil {
				return err
			}
		} else {
			if _, err := e.second[tm.ID][f.idx].Delete(f.composite); err != nil {
				return err
			}
		}
	}
	e.MV.StageUpdate(table, key, upd)
	return nil
}

// Delete logs the tuple pointer, discards the index entries, and reclaims
// the slot at commit (Table 2).
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

	stopRec := e.Bd.Timer(&e.Bd.Recovery)
	entry, err := e.appendWAL(core.WalDelete, tm.ID, key, slot, nil, nil, nil)
	stopRec()
	if err != nil {
		return err
	}
	// Record the op first so Abort re-links the indexes if a removal below
	// fails partway.
	e.ops = append(e.ops, txnOp{typ: core.WalDelete, table: tm.ID, key: key,
		slot: slot, entry: entry, delSlot: slot})

	stopIdx = e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	if _, err := e.primary[tm.ID].Delete(key); err != nil {
		return err
	}
	if err := e.unlinkSecondaries(tm, h, slot, key); err != nil {
		return err
	}
	e.MV.StageDelete(table, key)
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

// Get reads a tuple through the non-volatile primary index.
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
		return fmt.Errorf("nvminp: unknown index %q", index)
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

// Flush is a no-op: every commit is immediately durable.
func (e *Engine) Flush() error { return nil }

// Footprint reports storage usage (Fig. 14).
func (e *Engine) Footprint() core.Footprint {
	u := e.Env.Arena.Usage()
	return core.Footprint{
		Table: u[pmalloc.TagTable],
		Index: u[pmalloc.TagIndex],
		Log:   u[pmalloc.TagLog],
		Other: u[pmalloc.TagOther],
	}
}
