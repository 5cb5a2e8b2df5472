// Package nvminp implements the NVM-aware in-place updates engine (NVM-InP,
// §4.1) — the engine the paper finds best overall. Differences from the
// traditional InP engine:
//
//   - The WAL is a non-volatile log of self-validating entries that record
//     non-volatile *pointers* to tuples (inserts/deletes) and before-images
//     of just the updated fields (updates) — no full after-images, since
//     the referenced data is itself durable on NVM.
//   - Changes are persisted with the allocator interface's sync primitive
//     when they happen; commit is one streamed line, fenced, that moves the
//     log's epoch on, after which its entries are stale and freed.
//   - Indexes are non-volatile B+trees usable immediately after restart.
//   - Recovery has no redo phase: it only undoes the transactions that were
//     in flight at the crash, so its latency is independent of the number
//     of executed transactions (Fig. 12).
package nvminp

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/core"
	"nstore/internal/engine/undolog"
	"nstore/internal/mvcc"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

const (
	hdrMagic = 0x4e564d494e503135 // "NVMINP15": the packed undo entry header

	rootSlot = 0

	// Engine header layout. The header is a chunk of more than a line, so it
	// starts one and its payload 16 bytes into it: the payload's second line
	// starts at hCommit, and is the undo log's alone. Words 16 to 40 are
	// reserved.
	hMagic   = 0
	hNTables = 8
	hCommit  = 48 // the undo log's commit line
	hAnchors = hCommit + nvm.LineSize

	// An undo entry's body (undolog): the slot, then an update's
	// before-image, a record per column (col u8, value u64).
	colRec = 9
)

var le = binary.LittleEndian

// Engine is the NVM-aware in-place updates engine.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts core.Options

	hdr     pmalloc.Ptr
	heaps   []*core.Heap
	primary []*nvbtree.Tree
	second  [][]*nvbtree.Tree
	log     *undolog.Log

	// Volatile transaction state.
	ops  []txnOp // one per undo entry
	body []byte  // scratch: the undo entry's body being built
}

type txnOp struct {
	typ     uint8
	table   int
	slot    uint64        // delete: reclaimed at commit
	oldVars []core.VarRef // var-slots superseded by this update (freed at commit)
}

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
	e.hdr, e.log = hdr, undolog.Format(env.Arena, int64(hdr)+hCommit, e.Tables)
	d := e.Env.Dev
	d.WriteU64(int64(hdr)+hMagic, hdrMagic)
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
	if hdr == 0 {
		return nil, fmt.Errorf("nvminp: no engine header")
	}
	if m := env.Dev.ReadU64(int64(hdr) + hMagic); m != hdrMagic {
		if m>>16 == hdrMagic>>16 { // "NVMINP" of another format
			return nil, core.Corrupt(fmt.Errorf("nvminp: image of format %q", binary.BigEndian.AppendUint64(nil, m)))
		}
		return nil, fmt.Errorf("nvminp: no engine header")
	}
	e.hdr, e.log = hdr, undolog.Open(env.Arena, int64(hdr)+hCommit, e.Tables)
	d := e.Env.Dev
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

// undoWAL removes the effects of the transaction in flight at the crash,
// newest entry first.
func (e *Engine) undoWAL() error {
	// One walk over the arena's chunks serves both passes: the log picks the
	// open epoch's entries from it, and the sweep below its orphans. Recovery
	// frees no log or table chunk in between, so each is still what the walk
	// found.
	chunks, walked := core.PersistedChunks(e.Env.Arena)
	// The epoch moves on behind a fence of its own, so that no undone field
	// can be lost with the entry that would redo the undo.
	undone, err := e.log.Recover(chunks, func(ent undolog.Entry) error { return e.undoEntry(ent, true) }, true)
	if err != nil {
		return err
	}
	// Sweep the chunks no one names any more: every persisted WAL chunk (the
	// epoch has moved past them all), and every persisted table or index chunk
	// no heap or tree reaches — a var-slot streamed with its mark for a tuple
	// or a field that the crash or the undo above took back, one an update
	// superseded or a delete released whose free at commit never reached the
	// medium, and an index node a rewrite replaced, whose free the crash lost.
	// This is the one place recovery frees a var-slot: nothing was freed while
	// an entry that names it could still be replayed. The undo's own index
	// rewrites may have freed a node the walk found.
	reach := make(map[pmalloc.Ptr]bool)
	mark := func(p pmalloc.Ptr) { reach[p] = true }
	for t, h := range e.heaps {
		h.Reach(mark)
		for _, tr := range append([]*nvbtree.Tree{e.primary[t]}, e.second[t]...) {
			tr.Nodes(mark)
		}
	}
	a := e.Env.Arena
	core.FreeOrphans(a, chunks, func(c core.Chunk) bool {
		return c.Tag == pmalloc.TagLog || !reach[c.P] && (c.Tag == pmalloc.TagTable ||
			c.Tag == pmalloc.TagIndex && a.StateOf(c.P) == pmalloc.StatePersisted)
	})
	e.Rec = core.RecoveryReport{Records: int64(undone + walked)}
	return nil
}

// undoEntry reverses one undo entry's operation. What it writes to the heap is
// written back but not fenced: the caller fences before the epoch moves past
// the entry.
//
// In recovery every step is absolute and idempotent, so a crash inside an
// interrupted undo re-converges: fields are restored, index entries put or
// deleted by value, and no var-slot is freed — an index rewrite further down
// the log could recycle the chunk, and a second run would free it again as a
// live node. The var-slots the undone operation streamed are left unnamed for
// undoWAL's sweep. Abort is not re-run and has no sweep behind it, so it frees
// them here: the ones the slot's fields name and the before-image does not.
func (e *Engine) undoEntry(ent undolog.Entry, recovering bool) error {
	tm, h, b := e.Tables[ent.Table], e.heaps[ent.Table], ent.Body
	// The slot it names is a state word, a key word and the fields.
	if len(b) < 8 || (len(b)-8)%colRec != 0 || !e.Env.Arena.Holds(le.Uint64(b), 16+tm.Schema.FixedSize()) {
		return core.Corrupt(fmt.Errorf("nvminp: undo entry body of %d bytes", len(b)))
	}
	slot, key := le.Uint64(b), ent.Key
	if h.State(slot) == core.SlotFree {
		return nil
	}

	switch ent.Type {
	case core.WalInsert:
		// Release the tuple's storage using the pointer recorded in the WAL
		// entry, and drop its index entries. A slot the crash caught marked
		// ahead of its fields has none, and may not read as a row at all.
		if _, err := e.primary[tm.ID].Delete(key); err != nil {
			return err
		}
		if row, err := e.readForIndexes(tm, h, slot); err == nil {
			if err := undolog.Fix(e.second[tm.ID], tm.Schema.SecFixes(nil, key, row, nil), false); err != nil {
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
		cols := make([]int, (len(b)-8)/colRec)
		for i := range cols {
			r := b[8+i*colRec:]
			if cols[i] = int(r[0]); cols[i] >= len(tm.Schema.Columns) {
				return core.Corrupt(fmt.Errorf("nvminp: undo entry names column %d", cols[i]))
			}
			bef := le.Uint64(r[1:])
			if cur := h.ColVar(slot, cols[i]); !recovering && cur != 0 && uint64(cur) != bef {
				h.FreeVar(cur) // 0 for an int column
			}
			h.RestoreCol(slot, cols[i], bef)
		}
		h.WriteBackCols(slot, cols)
		return undolog.Fix(e.second[tm.ID], ent.Fixes, true)
	case core.WalDelete:
		// The tuple slot was only logically discarded; re-link the indexes.
		if err := e.primary[tm.ID].Put(key, slot); err != nil {
			return err
		}
		row, err := e.readForIndexes(tm, h, slot)
		if err != nil {
			return err
		}
		return undolog.Fix(e.second[tm.ID], tm.Schema.SecFixes(nil, key, nil, row), false)
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

// logOp appends the undo entry of an operation on slot (undolog.Log.Append)
// and fences it: the operation writes in place next, and a field that
// reached the medium ahead of the entry that restores it could not be
// undone. Its body is the slot and an update's before-image, the fields'
// values and var-slot pointers. It records the op, so Abort can undo a
// partially applied one from the entry.
func (e *Engine) logOp(typ uint8, tm *core.TableMeta, key, slot uint64, befCols []int, befVals []uint64, fixes []core.SecFix) error {
	defer e.Bd.Timer(&e.Bd.Recovery)()
	b := le.AppendUint64(e.body[:0], slot)
	for i, ci := range befCols {
		b = le.AppendUint64(append(b, uint8(ci)), befVals[i])
	}
	e.body = b
	if err := e.log.Append(undolog.Entry{Type: typ, Table: tm.ID, Key: key, Fixes: fixes, Body: b}); err != nil {
		return err
	}
	e.Env.Dev.Fence()
	e.ops = append(e.ops, txnOp{typ: typ, table: tm.ID, slot: slot})
	return nil
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

// Commit truncates the WAL with one durable write, its commit line streamed
// with the next epoch — since the WAL is undo-only and every change was
// persisted as it happened, a WAL with no entry of the open epoch *is* the
// committed state — then reclaims space owed by deletes and updates (Table 2:
// "Reclaim space at the end of transaction"). A transaction that logged
// nothing left the WAL empty and writes nothing.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	// The atomic commit point: after the truncation, recovery has nothing to
	// undo.
	e.log.Truncate(func(i int) {
		op := e.ops[i]
		for _, r := range op.oldVars {
			e.heaps[op.table].FreeVar(r)
		}
		if op.typ == core.WalDelete {
			e.heaps[op.table].FreeSlot(op.slot)
		}
	})
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
	if err := e.log.Undo(func(_ int, ent undolog.Entry) error { return e.undoEntry(ent, false) }); err != nil {
		// A failed rollback leaves volatile and durable state diverged;
		// only the engine's crash-recovery path can restore consistency.
		// The transaction is over either way — end it so recovery's
		// replacement Begin path is not blocked by ErrInTxn.
		_ = e.EndTx()
		return core.Corrupt(err)
	}
	if len(e.ops) > 0 {
		e.Env.Dev.Fence() // what undo restored, before the entries that would redo it go
	}
	e.log.Truncate(nil)
	e.MV.DropStaged()
	return e.EndTx()
}

// Insert adds a tuple (Table 2) in two fence intervals: the var-slots,
// streamed with their marks, and the WAL entry that names the slot; then the
// slot itself, state, key and fields. The index entries follow.
func (e *Engine) Insert(table string, key uint64, row []core.Value) error {
	tm, err := e.InsertTable(table, key)
	if err != nil {
		return err
	}
	_, exists := core.IndexGet(&e.Base, e.primary[tm.ID], key)
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

	if err := e.logOp(core.WalInsert, tm, key, slot, nil, nil, nil); err != nil {
		h.FreeSlot(slot)
		return err
	}

	stopSt = e.Bd.Timer(&e.Bd.Storage)
	h.PersistSlot(slot)
	e.Env.Dev.Fence()
	stopSt()

	defer e.Bd.Timer(&e.Bd.Index)()
	if err := e.primary[tm.ID].Put(key, slot); err != nil {
		return err
	}
	if err := undolog.Fix(e.second[tm.ID], tm.Schema.SecFixes(nil, key, nil, row), false); err != nil {
		return err
	}
	e.MV.StageInsert(table, key)
	return nil
}

// Update records the before-image (field values / var-slot pointers) in the
// WAL, then modifies the tuple in place: the new var-slots are streamed with
// their marks, the fields' lines written back, and one fence covers both.
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
	var fixes []core.SecFix
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
		fixes = tm.Schema.SecFixes(nil, key, old, now)
	} else if e.MV.Capture() {
		preCols, pre = upd.Cols, make([]core.Value, len(upd.Cols))
		for j, ci := range upd.Cols {
			if pre[j], err = h.TryReadCol(slot, ci); err != nil {
				return core.Corrupt(err)
			}
		}
	}
	if err := e.logOp(core.WalUpdate, tm, key, slot, upd.Cols, befVals, fixes); err != nil {
		return err // nothing logged, nothing touched
	}

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
	e.Env.Dev.Fence()
	stopSt()

	defer e.Bd.Timer(&e.Bd.Index)()
	if err := undolog.Fix(e.second[tm.ID], fixes, false); err != nil {
		return err
	}
	e.MV.StageUpdate(table, key, preCols, pre)
	return nil
}

// Delete logs the tuple pointer, discards the index entries, and reclaims
// the slot at commit (Table 2).
func (e *Engine) Delete(table string, key uint64) error {
	tm, err := e.WriteTable(table)
	if err != nil {
		return err
	}
	slot, ok := core.IndexGet(&e.Base, e.primary[tm.ID], key)
	if !ok {
		return core.ErrKeyNotFound
	}

	if err := e.logOp(core.WalDelete, tm, key, slot, nil, nil, nil); err != nil {
		return err
	}

	defer e.Bd.Timer(&e.Bd.Index)()
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
	if err := undolog.Fix(e.second[tm.ID], tm.Schema.SecFixes(nil, key, row, nil), false); err != nil {
		return err
	}
	e.MV.StageDelete(table, key, row)
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

// Flush is a no-op: every commit is immediately durable.
func (e *Engine) Flush() error { return nil }

// Footprint reports storage usage (Fig. 14).
func (e *Engine) Footprint() core.Footprint { return core.ArenaFootprint(e.Env.Arena) }
