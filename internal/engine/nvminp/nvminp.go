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
	"encoding/binary"
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
	rec []byte // scratch: the WAL entry being built
}

type txnOp struct {
	typ     uint8
	table   int
	key     uint64
	slot    uint64
	entry   pmalloc.Ptr
	entryN  int           // the WAL entry's length, which frees it unread
	oldVars []core.VarRef // var-slots superseded by this update (freed at commit)
	delSlot uint64        // delete: slot reclaimed at commit
}

func (e *Engine) dev() *nvm.Device { return e.Env.Dev }

// anchorsPerTable returns the number of u64 anchors table t needs.
func anchorsPerTable(s *core.Schema) int { return 2 + len(s.Secondary) }

// New creates a fresh NVM-InP engine anchored at arena root slot 0.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := opts.CheckVestigial(); err != nil {
		return nil, err
	}
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
	if err := opts.CheckVestigial(); err != nil {
		return nil, err
	}
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
		if err := e.undoEntry(p, true); err != nil {
			return err
		}
	}
	// Truncate: head reset is the atomic point, behind a fence of its own so
	// that no undone field can be lost with the entry that would redo the
	// undo; chunk frees follow.
	d.Fence()
	d.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	for _, p := range frees {
		if e.Env.Arena.StateOf(p) != pmalloc.StateFree {
			e.Env.Arena.Free(p)
		}
	}
	// Sweep the chunks no one names any more: every persisted WAL chunk (the
	// log is empty now), and every persisted table chunk no heap reaches — a
	// var-slot streamed with its mark for a tuple or a field that the crash
	// or the undo above took back, or one an update superseded or a delete
	// released whose free at commit never reached the medium. This is the
	// one place recovery frees a var-slot: nothing was freed while an entry
	// that names it could still be replayed. The directory walk lists the
	// orphans; they are freed after it, so no free changes the directory under
	// the walk.
	reach := make(map[pmalloc.Ptr]bool)
	for _, h := range e.heaps {
		h.Reach(func(p pmalloc.Ptr) { reach[p] = true })
	}
	var orphans []pmalloc.Ptr
	chunks := 0
	e.Env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
		chunks++
		if st == pmalloc.StatePersisted && (tag == pmalloc.TagLog || tag == pmalloc.TagTable && !reach[p]) {
			orphans = append(orphans, p)
		}
	})
	for _, p := range orphans {
		e.Env.Arena.Free(p)
	}
	e.Rec = core.RecoveryReport{Records: int64(len(frees) + chunks)}
	return nil
}

// undoEntry reverses one WAL entry's operation. What it writes to the heap is
// written back but not fenced: the caller fences before it unlinks the entry.
//
// In recovery every step is absolute and idempotent, so a crash inside an
// interrupted undo re-converges: fields are restored, index entries put or
// deleted by value, and no var-slot is freed — an index rewrite further down
// the log could recycle the chunk, and a second run would free it again as a
// live node. The var-slots the undone operation streamed are left unnamed for
// undoWAL's sweep. Abort is not re-run and has no sweep behind it, so it frees
// them here: the ones the slot's fields name and the before-image does not.
func (e *Engine) undoEntry(p pmalloc.Ptr, recovering bool) error {
	d := e.dev()
	table := int(d.ReadU8(int64(p) + wTable))
	key := d.ReadU64(int64(p) + wKey)
	slot := d.ReadU64(int64(p) + wSlot)
	tm, h := e.Tables[table], e.heaps[table]
	if h.State(slot) == core.SlotFree {
		return nil
	}

	switch d.ReadU8(int64(p) + wType) {
	case core.WalInsert:
		// Release the tuple's storage using the pointer recorded in the WAL
		// entry, and drop its index entries. A slot the crash caught marked
		// ahead of its fields has none, and may not read as a row at all.
		if _, err := e.primary[table].Delete(key); err != nil {
			return err
		}
		if row, err := e.readForIndexes(tm, h, slot); err == nil {
			if err := e.moveSecondaries(tm, row, key, false); err != nil {
				return err
			}
		} else if !recovering {
			return err
		}
		if recovering {
			h.FreeSlotOnly(slot)
		} else {
			h.FreeSlot(slot)
		}
	case core.WalUpdate:
		cols := make([]int, int(d.ReadU8(int64(p)+wNCols)))
		base := int64(p) + wData
		for i := range cols {
			cols[i] = int(d.ReadU8(base))
			bef := d.ReadU64(base + 1)
			if cur := h.ColVar(slot, cols[i]); !recovering && cur != 0 && uint64(cur) != bef {
				h.FreeVar(cur) // 0 for an int column
			}
			h.RestoreCol(slot, cols[i], bef)
			base += colRec
		}
		h.WriteBackCols(slot, cols)
		// Replay the logged secondary repair list.
		for n := int(d.ReadU8(int64(p) + wNSec)); n > 0; n-- {
			if err := e.fixSecondary(table, int(d.ReadU8(base)), d.ReadU8(base+1) != 1, d.ReadU64(base+2)); err != nil {
				return err
			}
			base += secRec
		}
	case core.WalDelete:
		// The tuple slot was only logically discarded; re-link the indexes.
		if err := e.primary[table].Put(key, slot); err != nil {
			return err
		}
		row, err := e.readForIndexes(tm, h, slot)
		if err != nil {
			return err
		}
		return e.moveSecondaries(tm, row, key, true)
	}
	return nil
}

// readForIndexes reads the tuple at slot if the table has secondary indexes to
// key it by; a table without them has no use for the row, and it is not read.
func (e *Engine) readForIndexes(tm *core.TableMeta, h *core.Heap, slot uint64) ([]core.Value, error) {
	if len(tm.Schema.Secondary) == 0 {
		return nil, nil
	}
	row, err := h.TryReadRow(slot)
	if err != nil {
		return nil, core.Corrupt(err)
	}
	return row, nil
}

// moveSecondaries adds or removes the secondary entries of the tuple row.
func (e *Engine) moveSecondaries(tm *core.TableMeta, row []core.Value, key uint64, add bool) error {
	for j, ix := range tm.Schema.Secondary {
		if err := e.fixSecondary(tm.ID, j, add, core.SecComposite(ix.SecKey(row), key)); err != nil {
			return err
		}
	}
	return nil
}

// fixSecondary adds or removes one secondary-index entry.
func (e *Engine) fixSecondary(table, idx int, add bool, composite uint64) error {
	if add {
		return e.second[table][idx].Put(composite, core.SecPK(composite))
	}
	_, err := e.second[table][idx].Delete(composite)
	return err
}

// applyFixes carries out an operation's secondary-index changes.
func (e *Engine) applyFixes(table int, fixes []secFix) error {
	for _, f := range fixes {
		if err := e.fixSecondary(table, f.idx, f.added, f.composite); err != nil {
			return err
		}
	}
	return nil
}

// appendWAL builds a WAL entry, streams it into a fresh chunk with its
// persisted mark, fences, and links it with an atomic durable head update: two
// fences, after which undo owns what the entry names. The first fence also
// covers whatever the caller streamed or wrote back before the call. An entry
// a crash leaves marked but unlinked is a persisted log chunk nothing reaches,
// which undoWAL's sweep frees. Log-arena exhaustion is reachable from normal
// traffic: it is an error, nothing was written, and the transaction can be
// aborted cleanly. It returns the entry and its length.
func (e *Engine) appendWAL(typ uint8, table int, key, slot uint64, befCols []int, befVals []uint64, fixes []secFix) (pmalloc.Ptr, int, error) {
	d := e.dev()
	rec := append(e.rec[:0], make([]byte, wData)...)
	le := binary.LittleEndian
	le.PutUint64(rec[wNext:], d.ReadU64(int64(e.hdr)+hWalHead))
	le.PutUint64(rec[wTxn:], e.TxnID)
	rec[wType], rec[wTable] = typ, uint8(table)
	rec[wNCols], rec[wNSec] = uint8(len(befCols)), uint8(len(fixes))
	le.PutUint64(rec[wKey:], key)
	le.PutUint64(rec[wSlot:], slot)
	for i, ci := range befCols {
		rec = le.AppendUint64(append(rec, uint8(ci)), befVals[i])
	}
	for _, f := range fixes {
		op := uint8(2)
		if f.added {
			op = 1
		}
		rec = le.AppendUint64(append(rec, uint8(f.idx), op), f.composite)
	}
	e.rec = rec
	p, err := e.Env.Arena.StreamPersisted(pmalloc.TagLog, rec)
	if err != nil {
		return 0, 0, err
	}
	d.Fence()
	d.WriteU64Durable(int64(e.hdr)+hWalHead, p)
	return p, len(rec), nil
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
// (Table 2: "Reclaim space at the end of transaction"). A transaction that
// logged nothing left the WAL empty and writes nothing.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	if len(e.ops) > 0 {
		// The atomic commit point: after this, recovery has nothing to undo.
		e.dev().WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	}
	for _, op := range e.ops {
		for _, r := range op.oldVars {
			e.heaps[op.table].FreeVar(r)
		}
		if op.typ == core.WalDelete {
			e.heaps[op.table].FreeSlot(op.delSlot)
		}
		e.Env.Arena.FreeStreamed(op.entry, op.entryN, pmalloc.TagLog)
	}
	stop() // before EndTx: a snapshot read times into the same breakdown
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
		if err := e.undoEntry(e.ops[i].entry, false); err != nil {
			// A failed rollback leaves volatile and durable state diverged;
			// only the engine's crash-recovery path can restore consistency.
			// The transaction is over either way — end it so recovery's
			// replacement Begin path is not blocked by ErrInTxn.
			_ = e.EndTx()
			return core.Corrupt(err)
		}
	}
	if len(e.ops) > 0 {
		d := e.dev()
		d.Fence() // what undo restored, before the entries that would redo it go
		d.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	}
	for _, op := range e.ops {
		e.Env.Arena.FreeStreamed(op.entry, op.entryN, pmalloc.TagLog)
	}
	e.MV.DropStaged()
	return e.EndTx()
}

// Insert adds a tuple (Table 2) in three fence intervals: the var-slots,
// streamed with their marks, and the WAL entry that names the slot; the WAL
// head; then the slot itself, state, key and fields. The index entries follow.
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
	stopSt()
	if err != nil {
		return err
	}

	stopRec := e.Bd.Timer(&e.Bd.Recovery)
	entry, n, err := e.appendWAL(core.WalInsert, tm.ID, key, slot, nil, nil, nil)
	stopRec()
	if err != nil {
		h.FreeSlot(slot)
		return err
	}
	// Record the op before touching the indexes so Abort can undo a
	// partially applied insert if an index update fails below.
	e.ops = append(e.ops, txnOp{typ: core.WalInsert, table: tm.ID, key: key, slot: slot, entry: entry, entryN: n})

	stopSt = e.Bd.Timer(&e.Bd.Storage)
	h.PersistSlot(slot)
	e.dev().Fence()
	stopSt()

	stopIdx = e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	if err := e.primary[tm.ID].Put(key, slot); err != nil {
		return err
	}
	for j, ix := range tm.Schema.Secondary {
		if err := e.fixSecondary(tm.ID, j, true, core.SecComposite(ix.SecKey(row), key)); err != nil {
			return err
		}
	}
	e.MV.StageInsert(table, key)
	return nil
}

// Update records the before-image (field values / var-slot pointers) in the
// WAL, then modifies the tuple in place: the new var-slots are streamed with
// their marks, the fields' lines written back, and one fence covers both.
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
	// int's value, a string's VarRef. The rest of the row is read only when
	// the update can move the tuple within a secondary index.
	befVals := make([]uint64, len(upd.Cols))
	var oldVars []core.VarRef
	for j, ci := range upd.Cols {
		befVals[j] = h.RawCol(slot, ci)
		if tm.Schema.Columns[ci].Type == core.TString {
			oldVars = append(oldVars, core.VarRef(befVals[j]))
		}
	}
	// A pinned view needs the old values of the updated columns: the row
	// read for the indexes, or, only then, the columns themselves.
	var fixes []secFix
	var preCols []int
	var pre []core.Value
	if tm.Schema.IndexReads(upd.Cols) {
		old, err := h.TryReadRow(slot)
		if err != nil {
			return core.Corrupt(err)
		}
		pre = old
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
	} else if e.MV.Capture() {
		preCols, pre = upd.Cols, make([]core.Value, len(upd.Cols))
		for j, ci := range upd.Cols {
			if pre[j], err = h.TryReadCol(slot, ci); err != nil {
				return core.Corrupt(err)
			}
		}
	}
	stopRec := e.Bd.Timer(&e.Bd.Recovery)
	entry, n, err := e.appendWAL(core.WalUpdate, tm.ID, key, slot, upd.Cols, befVals, fixes)
	stopRec()
	if err != nil {
		return err // nothing logged, nothing touched
	}
	// Record the op before modifying anything so Abort can undo a
	// partially applied update from the WAL entry's before-image.
	e.ops = append(e.ops, txnOp{typ: core.WalUpdate, table: tm.ID, key: key, slot: slot, entry: entry, entryN: n})

	stopSt := e.Bd.Timer(&e.Bd.Storage)
	if err := h.WriteCols(slot, upd.Cols, upd.Vals); err != nil {
		// The slot is untouched and the logged before-image is what it
		// holds, so undoing the entry changes nothing; the superseded
		// var-slots stay the tuple's.
		stopSt()
		return err
	}
	e.ops[len(e.ops)-1].oldVars = oldVars
	h.WriteBackCols(slot, upd.Cols)
	e.dev().Fence()
	stopSt()

	stopIdx = e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	if err := e.applyFixes(tm.ID, fixes); err != nil {
		return err
	}
	e.MV.StageUpdate(table, key, preCols, pre)
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

	stopRec := e.Bd.Timer(&e.Bd.Recovery)
	entry, n, err := e.appendWAL(core.WalDelete, tm.ID, key, slot, nil, nil, nil)
	stopRec()
	if err != nil {
		return err
	}
	// Record the op first so Abort re-links the indexes if a removal below
	// fails partway.
	e.ops = append(e.ops, txnOp{typ: core.WalDelete, table: tm.ID, key: key,
		slot: slot, entry: entry, entryN: n, delSlot: slot})

	stopIdx = e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	if _, err := e.primary[tm.ID].Delete(key); err != nil {
		return err
	}
	h := e.heaps[tm.ID]
	row, err := e.readForIndexes(tm, h, slot)
	if err != nil {
		return err
	}
	if row == nil && e.MV.Capture() { // a pinned view needs the row
		if row, err = h.TryReadRow(slot); err != nil {
			return core.Corrupt(err)
		}
	}
	if err := e.moveSecondaries(tm, row, key, false); err != nil {
		return err
	}
	e.MV.StageDelete(table, key, row)
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
	return checked(h.TryReadRow(slot))
}

// checked turns a read that met a garbage var-slot pointer into Corrupt.
func checked(row []core.Value, err error) ([]core.Value, bool, error) {
	if err != nil {
		return nil, false, core.Corrupt(err)
	}
	return row, true, nil
}

// GetCols implements core.ColReader: the index lookup of Get, then only the
// named columns' fields and var-slots.
func (e *Engine) GetCols(table string, key uint64, cols []int) ([]core.Value, bool, error) {
	h, slot, ok, err := e.find(table, key)
	if !ok {
		return nil, false, err
	}
	defer e.Bd.Timer(&e.Bd.Storage)()
	return checked(h.TryReadCols(slot, cols))
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
	var damage error
	e.primary[tm.ID].Iter(from, func(k, slot uint64) bool {
		if k >= to {
			return false
		}
		var row []core.Value
		row, damage = h.TryReadRow(slot)
		return damage == nil && fn(k, row)
	})
	if damage != nil {
		return core.Corrupt(damage)
	}
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
