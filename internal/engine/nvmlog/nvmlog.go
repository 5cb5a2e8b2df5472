// Package nvmlog implements the NVM-aware log-structured updates engine
// (NVM-Log, §4.3). Differences from the traditional Log engine:
//
//   - MemTables are never flushed to the filesystem: a full MemTable is
//     simply marked immutable (it is already durable on NVM) and a new
//     mutable MemTable starts. Compaction merges a set of the newest
//     immutable MemTables, chosen by size ratio, into a new, larger one.
//   - The WAL is a non-volatile linked list whose purpose is only to *undo*
//     uncommitted transactions — the MemTable itself is durable, so there
//     is no redo/rebuild at recovery (§4.3: "Its recovery latency is
//     therefore lower than the Log engine as it no longer needs to rebuild
//     the MemTable").
//   - Each immutable MemTable carries a Bloom filter to skip index
//     look-ups while coalescing tuples across runs.
package nvmlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"nstore/internal/bloom"
	"nstore/internal/core"
	"nstore/internal/engine/lsm"
	"nstore/internal/mvcc"
	"nstore/internal/nvbtree"
	"nstore/internal/pmalloc"
)

const (
	hdrMagic = 0x4e564d4c4f473133 // "NVMLOG13"
	// untaggedMagic marks an image whose trees hold bare entry-chunk
	// pointers, without the kind in the low bits.
	untaggedMagic = 0x4e564d4c4f473132 // "NVMLOG12"
	rootSlot      = 0

	// Engine header layout.
	hMagic     = 0
	hCommitted = 8
	hWalHead   = 16
	hMutable   = 24 // current mutable MemTable tree header
	hRunList   = 32 // immutable run list chunk (0 = none)
	hVlogDir   = 40 // reserved, 0: the slot of a value-log segment directory
	hNTables   = 48
	hAnchors   = 56 // per table: secondary tree headers

	// Run list chunk: n u64, then per run {treeHdr, bloomPtr, bloomMeta}.
	// bloomMeta packs words<<8 | k. Runs are ordered newest first.
	runEntSize = 24

	// WAL entry layout (TagLog chunk).
	wNext   = 0
	wTxn    = 8
	wType   = 16
	wTable  = 17
	wNSec   = 18
	wKey    = 24
	wOldPtr = 32
	wNewPtr = 40
	wSec    = 48 // nSec x {idx u8, op u8 (1 added, 2 removed), composite u64}
	secRec  = 10
)

// The kind of an entry rides in the pointer to its chunk. pmalloc payloads
// are 16-byte aligned, so the MemTable, every run and the undo list hold
// ptr|kind: a lookup that ends at a tombstone, an existence check, and a
// compaction deciding whether it may adopt a chunk all learn the kind from
// the tree node they already read, without loading the chunk. The allocator
// and the chunk reads see the bare pointer (chunkOf).
const kindMask = 15

func tagPtr(p pmalloc.Ptr, kind uint8) uint64 { return p | uint64(kind) }
func chunkOf(v uint64) pmalloc.Ptr            { return v &^ kindMask }
func kindOf(v uint64) uint8                   { return uint8(v & kindMask) }

// readEntry returns the entry a tagged pointer names. A tombstone has no
// payload, so its chunk is not read. A pointer or a length the arena does not
// hold is a corrupt error (lsm.ReadEntryChunk).
func (e *Engine) readEntry(v uint64) (lsm.Entry, error) {
	if kindOf(v) == lsm.KindTomb {
		return lsm.Entry{Kind: lsm.KindTomb}, nil
	}
	return lsm.ReadEntryChunk(e.Env.Arena, chunkOf(v))
}

// run is one immutable MemTable.
type run struct {
	tree *nvbtree.Tree
	// keys is the number of entries the tree holds, for the merge rule. It is
	// not persisted: rotation, a merge and the recovery sweep each count it.
	keys       int
	bloomPtr   pmalloc.Ptr
	bloomWords uint64
	bloomK     int
}

// Engine is the NVM-aware log-structured updates engine.
type Engine struct {
	core.Base
	mvcc.Snapshots
	opts core.Options

	hdr      pmalloc.Ptr
	mem      *nvbtree.Tree
	memCount int
	runs     []*run // newest first
	second   [][]*nvbtree.Tree

	fstats core.FlushStats

	ops         []txnOp
	rec         []byte // scratch: the WAL entry being built
	compactions int
}

type txnOp struct {
	entry  pmalloc.Ptr
	entryN int    // the WAL entry's length, which frees it unread
	oldPtr uint64 // superseded entry chunk (tagged), freed at commit
	added  bool   // the op added its key to the MemTable (counted in memCount)
}

// New creates a fresh NVM-Log engine anchored at arena root slot 0.
func New(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := lsm.Validate(schemas, opts); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	nSec := 0
	for _, s := range schemas {
		nSec += len(s.Secondary)
	}
	hdr, err := env.Arena.Alloc(hAnchors+8*nSec, pmalloc.TagOther)
	if err != nil {
		return nil, err
	}
	e.hdr = hdr
	d := env.Dev
	d.WriteU64(int64(hdr)+hMagic, hdrMagic)
	d.WriteU64(int64(hdr)+hCommitted, 0)
	d.WriteU64(int64(hdr)+hWalHead, 0)
	d.WriteU64(int64(hdr)+hRunList, 0)
	d.WriteU64(int64(hdr)+hVlogDir, 0)
	d.WriteU64(int64(hdr)+hNTables, uint64(len(schemas)))
	mem, err := nvbtree.Create(env.Arena, e.opts.BTreeNodeSize)
	if err != nil {
		return nil, err
	}
	e.mem = mem
	d.WriteU64(int64(hdr)+hMutable, e.mem.Header())
	off := int64(hAnchors)
	for _, tm := range e.Tables {
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
	d.Sync(int64(hdr), hAnchors+8*nSec)
	env.Arena.SetPersisted(hdr)
	env.Arena.SetRoot(rootSlot, hdr)
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

// Open recovers the engine: reopen the durable MemTables and indexes, undo
// in-flight transactions via the WAL, complete any interrupted rotation,
// and sweep orphaned chunks. No MemTable rebuild (§4.3).
func Open(env *core.Env, schemas []*core.Schema, opts core.Options) (*Engine, error) {
	if err := lsm.Validate(schemas, opts); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts.WithDefaults()}
	e.InitBase(env, schemas)
	stop := e.Bd.Timer(&e.Bd.Recovery)
	defer stop()

	hdr := env.Arena.Root(rootSlot)
	if hdr == 0 {
		return nil, fmt.Errorf("nvmlog: no engine header")
	}
	d := env.Dev
	switch d.ReadU64(int64(hdr) + hMagic) {
	case hdrMagic:
	case untaggedMagic:
		// A device image is outside input: reading bare pointers as tagged
		// ones would take every entry for an unknown kind.
		return nil, core.Corrupt(fmt.Errorf("nvmlog: image holds untagged entry pointers (NVMLOG12)"))
	default:
		return nil, fmt.Errorf("nvmlog: no engine header")
	}
	e.hdr = hdr
	if int(d.ReadU64(int64(hdr)+hNTables)) != len(schemas) {
		return nil, fmt.Errorf("nvmlog: schema mismatch")
	}
	// The engine has no value log. An entry chunk holding a value-log pointer
	// cannot exist without a segment directory, so this one read vouches for
	// every entry chunk in the image.
	if d.ReadU64(int64(hdr)+hVlogDir) != 0 {
		return nil, core.Corrupt(fmt.Errorf("nvmlog: reserved value-log directory slot is not zero"))
	}
	mem, err := nvbtree.Open(env.Arena, d.ReadU64(int64(hdr)+hMutable))
	if err != nil {
		return nil, err
	}
	e.mem = mem
	if err := e.loadRuns(); err != nil {
		return nil, err
	}
	// A crash between the run-list swap and the mutable swap leaves the
	// same tree both mutable and newest-immutable; finish the rotation.
	if len(e.runs) > 0 && e.runs[0].tree.Header() == e.mem.Header() {
		fresh, err := nvbtree.Create(env.Arena, e.opts.BTreeNodeSize)
		if err != nil {
			return nil, err
		}
		e.mem = fresh
		d.WriteU64Durable(int64(e.hdr)+hMutable, e.mem.Header())
	}
	off := int64(hAnchors)
	for _, tm := range e.Tables {
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
	if err := e.undoWAL(); err != nil {
		if errors.Is(err, nvbtree.ErrCorrupt) {
			err = core.Corrupt(fmt.Errorf("nvmlog: undo: %w", err))
		}
		return nil, err
	}
	e.memCount = e.mem.Count()
	if err := e.sweep(); err != nil {
		return nil, err
	}
	if err := e.InitSnapshots(e, schemas, e.TxnID); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) loadRuns() error {
	d := e.Env.Dev
	list := d.ReadU64(int64(e.hdr) + hRunList)
	if list == 0 {
		return nil
	}
	n := int(d.ReadU64(int64(list)))
	for i := 0; i < n; i++ {
		base := int64(list) + 8 + int64(i)*runEntSize
		tr, err := nvbtree.Open(e.Env.Arena, d.ReadU64(base))
		if err != nil {
			return err
		}
		meta := d.ReadU64(base + 16)
		e.runs = append(e.runs, &run{
			tree:       tr,
			bloomPtr:   d.ReadU64(base + 8),
			bloomWords: meta >> 8,
			bloomK:     int(meta & 0xff),
		})
	}
	return nil
}

// reachable marks every chunk the engine header reaches: the header and run
// list, the MemTable's and every listed run's nodes and entry chunks, the
// Bloom filters and the secondary indexes. It also returns each run's keys,
// which the sweep needs next.
func (e *Engine) reachable() (reach map[pmalloc.Ptr]bool, runKeys [][]uint64) {
	reach = make(map[pmalloc.Ptr]bool)
	mark := func(p pmalloc.Ptr) { reach[p] = true }
	reach[e.hdr] = true
	if list := e.Env.Dev.ReadU64(int64(e.hdr) + hRunList); list != 0 {
		reach[list] = true
	}
	markTree := func(t *nvbtree.Tree, keys *[]uint64) {
		t.Nodes(mark)
		t.Iter(0, func(k, v uint64) bool {
			reach[chunkOf(v)] = true
			if keys != nil {
				*keys = append(*keys, k)
			}
			return true
		})
	}
	markTree(e.mem, nil)
	runKeys = make([][]uint64, len(e.runs))
	for i, r := range e.runs {
		markTree(r.tree, &runKeys[i])
		if r.bloomPtr != 0 {
			reach[r.bloomPtr] = true
		}
	}
	for _, secs := range e.second {
		for _, st := range secs {
			st.Nodes(mark)
		}
	}
	return reach, runKeys
}

// sweep reclaims persisted chunks orphaned by crashes: an entry chunk, WAL
// entry, Bloom filter or run list marked persisted (StreamPersisted) before
// the crash kept it from being linked, and what rotation, compaction and WAL
// truncation had unlinked but not yet freed. It then re-verifies each
// immutable run's Bloom filter against its tree. A chunk reachable from any
// listed tree survives, which is what lets a compaction's merged run share
// entry chunks with the runs it replaces.
func (e *Engine) sweep() error {
	// The marking pass over each run doubles as the key harvest for the
	// Bloom verification below.
	reach, runKeys := e.reachable()
	var orphans []pmalloc.Ptr
	chunks := 0
	e.Env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
		chunks++
		if st == pmalloc.StatePersisted && !reach[p] {
			orphans = append(orphans, p)
		}
	})
	for _, p := range orphans {
		e.Env.Arena.Free(p)
	}
	var nkeys int64
	for i, ks := range runKeys {
		e.runs[i].keys = len(ks)
		nkeys += int64(len(ks))
	}
	e.Rec = core.RecoveryReport{Records: int64(chunks) + nkeys}
	return e.verifyBlooms(runKeys)
}

// verifyBlooms rebuilds each immutable run's Bloom filter from its tree keys
// and compares it with the persisted copy; a mismatched filter would silently
// turn lookups into false negatives, so it is repaired in place. storeRun
// sizes filters with the same constructor, so a rebuild from the same key
// count is bit-compatible whenever the stored metadata is intact. Every
// stored filter is read before the first repair writes.
func (e *Engine) verifyBlooms(runKeys [][]uint64) error {
	d := e.Env.Dev
	stored := make([][]byte, len(e.runs))
	for i, r := range e.runs {
		stored[i] = make([]byte, r.bloomWords*8)
		d.Read(int64(r.bloomPtr), stored[i])
	}
	relink := false
	for i, r := range e.runs {
		fl := bloom.New(len(runKeys[i]), 10)
		for _, k := range runKeys[i] {
			fl.Add(k)
		}
		bits, k := fl.Marshal()[8:], fl.K()
		if k == r.bloomK && bytes.Equal(bits, stored[i]) {
			continue
		}
		if uint64(len(bits)) == r.bloomWords*8 && k == r.bloomK {
			// Same geometry: repair the persisted bits in place.
			d.Write(int64(r.bloomPtr), bits)
			d.Sync(int64(r.bloomPtr), len(bits))
			continue
		}
		// Geometry drifted (corrupt run-list metadata): persist a fresh
		// filter chunk and relink the run list afterwards.
		p, err := e.storeBloom(bits)
		if err != nil {
			return err
		}
		// bloomPtr 0: an image written while a rotation listed its run
		// before persisting the filter, and crashed in between.
		if r.bloomPtr != 0 {
			e.Env.Arena.Free(r.bloomPtr)
		}
		r.bloomPtr = p
		r.bloomWords = uint64(len(bits) / 8)
		r.bloomK = k
		relink = true
	}
	if relink {
		return e.swapRunList(e.runs)
	}
	return nil
}

// writeEntryChunk streams ent into an entry chunk marked persisted and returns
// the tagged pointer to it. The MemTable is durable, so the caller fences
// before any tree points at the chunk.
func (e *Engine) writeEntryChunk(ent lsm.Entry) (uint64, error) {
	p, err := lsm.StreamEntryChunk(e.Env.Arena, ent)
	if err != nil {
		return 0, err
	}
	if p&kindMask != 0 {
		e.Env.Arena.Free(p)
		return 0, fmt.Errorf("nvmlog: entry chunk %d is not 16-byte aligned", p)
	}
	return tagPtr(p, ent.Kind), nil
}

// storeBloom streams a filter's bits into an index chunk marked persisted,
// durable at the fence swapRunList issues before it publishes the run.
func (e *Engine) storeBloom(bits []byte) (pmalloc.Ptr, error) {
	return e.Env.Arena.StreamPersisted(pmalloc.TagIndex, bits)
}

// secFix describes a secondary-index change for WAL undo.
type secFix struct {
	idx       int
	added     bool
	composite uint64
}

// appendWAL logs one MemTable operation: which mapping changed (old/new
// tagged entry-chunk pointers, as the tree holds them) and the secondary
// entries touched. The entry is streamed with its persisted mark; one fence
// makes it and the new entry chunk durable, and a second links it at the
// head, after which undo owns both. It returns the entry and its length.
func (e *Engine) appendWAL(typ uint8, table int, key, oldPtr, newPtr uint64, fixes []secFix) (pmalloc.Ptr, int, error) {
	d := e.Env.Dev
	rec := append(e.rec[:0], make([]byte, wSec)...)
	le := binary.LittleEndian
	le.PutUint64(rec[wNext:], d.ReadU64(int64(e.hdr)+hWalHead))
	le.PutUint64(rec[wTxn:], e.TxnID)
	rec[wType], rec[wTable], rec[wNSec] = typ, uint8(table), uint8(len(fixes))
	le.PutUint64(rec[wKey:], key)
	le.PutUint64(rec[wOldPtr:], oldPtr)
	le.PutUint64(rec[wNewPtr:], newPtr)
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
		// Log-arena exhaustion is reachable from normal traffic.
		return 0, 0, err
	}
	d.Fence()
	d.WriteU64Durable(int64(e.hdr)+hWalHead, p)
	return p, len(rec), nil
}

// undoWAL reverses in-flight transactions (newest entry first) and
// truncates the log. The entry chunks the undone operations made are left
// to the sweep behind it: freeing one here would let the index rewrites
// further down the undo take its address, and a crash inside this pass
// would run the undo again and free a live node.
func (e *Engine) undoWAL() error {
	d := e.Env.Dev
	head := d.ReadU64(int64(e.hdr) + hWalHead)
	var frees []pmalloc.Ptr
	for p := head; p != 0; p = d.ReadU64(int64(p) + wNext) {
		frees = append(frees, p)
		// Truncation is the commit point: linked entries are uncommitted.
		if _, err := e.undoEntry(p); err != nil {
			return err
		}
	}
	d.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	for _, p := range frees {
		if e.Env.Arena.StateOf(p) != pmalloc.StateFree {
			e.Env.Arena.Free(p)
		}
	}
	return nil
}

// undoEntry reverses the operation WAL entry p logged and returns the entry
// chunk it made. The caller frees that chunk once the log no longer names it:
// until the truncation is durable a crash runs this undo again, and a chunk
// freed here could meanwhile be a node of the index rewrites below.
func (e *Engine) undoEntry(p pmalloc.Ptr) (pmalloc.Ptr, error) {
	d := e.Env.Dev
	table := int(d.ReadU8(int64(p) + wTable))
	key := d.ReadU64(int64(p) + wKey)
	oldPtr := d.ReadU64(int64(p) + wOldPtr)
	newPtr := d.ReadU64(int64(p) + wNewPtr)
	tk := core.TreePrimary(table, key)
	if oldPtr != 0 {
		if err := e.mem.Put(tk, oldPtr); err != nil {
			return 0, err
		}
	} else {
		if _, err := e.mem.Delete(tk); err != nil {
			return 0, err
		}
	}
	n := int(d.ReadU8(int64(p) + wNSec))
	for i := 0; i < n; i++ {
		base := int64(p) + wSec + int64(i)*secRec
		idx := int(d.ReadU8(base))
		op := d.ReadU8(base + 1)
		composite := d.ReadU64(base + 2)
		if op == 1 {
			if _, err := e.second[table][idx].Delete(composite); err != nil {
				return 0, err
			}
		} else {
			if err := e.second[table][idx].Put(composite, core.SecPK(composite)); err != nil {
				return 0, err
			}
		}
	}
	return chunkOf(newPtr), nil
}

// applyMem merges an entry into the mutable MemTable, logging undo info.
func (e *Engine) applyMem(tm *core.TableMeta, typ uint8, key uint64, ent lsm.Entry, fixes []secFix) error {
	tk := core.TreePrimary(tm.ID, key)
	var oldPtr uint64
	isNew := true
	if v, ok := e.mem.Get(tk); ok {
		oldPtr = v
		isNew = false
		// A full image or a tombstone replaces whatever the MemTable held;
		// only a delta has to read it, to fold itself in.
		if ent.Kind == lsm.KindDelta {
			old, err := e.readEntry(v)
			if err != nil {
				return err
			}
			ent = lsm.Merge(tm.Schema, ent, old)
		}
	}
	newPtr, err := e.writeEntryChunk(ent)
	if err != nil {
		return err
	}
	entry, n, err := e.appendWAL(typ, tm.ID, key, oldPtr, newPtr, fixes)
	if err != nil {
		e.Env.Arena.Free(chunkOf(newPtr))
		return err
	}
	// Record the op before touching the trees so Abort can undo a partially
	// applied operation from the WAL entry.
	e.ops = append(e.ops, txnOp{entry: entry, entryN: n, oldPtr: oldPtr})
	if err := e.mem.Put(tk, newPtr); err != nil {
		return err
	}
	if isNew {
		e.memCount++
		e.ops[len(e.ops)-1].added = true
	}
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
	return nil
}

// Name returns "nvm-log".
func (e *Engine) Name() string { return "nvm-log" }

// Begin starts a transaction.
func (e *Engine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.ops = e.ops[:0]
	return nil
}

// Commit durably marks the transaction committed, truncates the WAL, and
// runs the staged rotation/compaction pipeline inline when the MemTable is
// full. A pipeline failure is surfaced to the caller, but the transaction IS
// durable (the WAL truncation below is the commit point); a later commit
// retries the maintenance.
func (e *Engine) Commit() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	stop := e.Bd.Timer(&e.Bd.Recovery)
	if len(e.ops) > 0 {
		// Truncating the undo log is the atomic commit point (§4.3). A
		// transaction that logged nothing left it empty.
		e.Env.Dev.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	}
	for _, op := range e.ops {
		if old := chunkOf(op.oldPtr); old != 0 && e.Env.Arena.StateOf(old) != pmalloc.StateFree {
			e.Env.Arena.Free(old)
		}
		e.Env.Arena.FreeStreamed(op.entry, op.entryN, pmalloc.TagLog)
	}
	stop()
	// The WAL truncation above is the durability barrier: versions publish
	// to snapshot readers immediately (NVM-Log is durable at commit).
	e.MV.CommitStaged(e.TxnID, true)
	var maintErr error
	if e.memCount >= e.opts.MemTableCap {
		maintErr = e.rotate()
	}
	endErr := e.EndTx()
	if maintErr != nil {
		return maintErr
	}
	return endErr
}

// Abort undoes the transaction via its WAL entries and truncates the log.
func (e *Engine) Abort() error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	made := make([]pmalloc.Ptr, len(e.ops))
	for i := len(e.ops) - 1; i >= 0; i-- {
		var err error
		if made[i], err = e.undoEntry(e.ops[i].entry); err != nil {
			// A failed rollback leaves volatile and durable state diverged;
			// only the engine's crash-recovery path can restore consistency.
			// The transaction is over either way — end it so recovery's
			// replacement Begin path is not blocked by ErrInTxn.
			_ = e.EndTx()
			return core.Corrupt(err)
		}
	}
	if len(e.ops) > 0 {
		e.Env.Dev.WriteU64Durable(int64(e.hdr)+hWalHead, 0)
	}
	for i, op := range e.ops {
		if op.added {
			e.memCount-- // undo deleted the key again
		}
		if c := made[i]; c != 0 && e.Env.Arena.StateOf(c) != pmalloc.StateFree {
			e.Env.Arena.Free(c)
		}
		e.Env.Arena.FreeStreamed(op.entry, op.entryN, pmalloc.TagLog)
	}
	e.MV.DropStaged()
	return e.EndTx()
}

// rotate seals the full MemTable into the run list and starts a fresh one
// (the prepare stage, seal), then applies the merge rule in its release stage
// (compact). The NVM engine never flushes the MemTable anywhere (§4.3 — it is
// already durable), so a rotation has nothing to build or install.
func (e *Engine) rotate() error {
	start := time.Now()
	err := e.seal()
	e.fstats.PrepareNs += time.Since(start).Nanoseconds()
	if err != nil {
		return err
	}
	return lsm.RunStages(&e.fstats, "flush", nil, nil, func() error {
		e.fstats.Flushes++
		return e.compact()
	})
}

// seal is the prepare stage of a rotation: the mutable MemTable becomes the
// newest run, listed with its Bloom filter by one run-list swap (storeRun
// streams the filter; the swap's fence makes it durable before the anchor
// names it), and a fresh MemTable starts.
func (e *Engine) seal() error {
	stop := e.Bd.Timer(&e.Bd.Storage)
	defer stop()
	var keys []uint64
	e.mem.Iter(0, func(k, v uint64) bool { keys = append(keys, k); return true })
	fl := bloom.New(len(keys), 10)
	for _, k := range keys {
		fl.Add(k)
	}
	newRun, err := e.storeRun(e.mem, len(keys), fl)
	if err != nil {
		return err
	}
	if err := e.swapRunList(append([]*run{newRun}, e.runs...)); err != nil {
		e.Env.Arena.Free(newRun.bloomPtr)
		return err
	}
	// Start the fresh mutable MemTable (recovery completes this step if a
	// crash lands between the two swaps).
	fresh, err := nvbtree.Create(e.Env.Arena, e.opts.BTreeNodeSize)
	if err != nil {
		return err
	}
	e.mem = fresh
	e.Env.Dev.WriteU64Durable(int64(e.hdr)+hMutable, e.mem.Header())
	e.memCount = 0
	return nil
}

// storeRun persists a bloom filter chunk and returns the run descriptor.
func (e *Engine) storeRun(tree *nvbtree.Tree, keys int, fl *bloom.Filter) (*run, error) {
	bm := fl.Marshal()
	p, err := e.storeBloom(bm[8:])
	if err != nil {
		return nil, err
	}
	return &run{
		tree:       tree,
		keys:       keys,
		bloomPtr:   p,
		bloomWords: uint64((len(bm) - 8) / 8),
		bloomK:     fl.K(),
	}, nil
}

// swapRunList atomically installs a new immutable-run list. Its fence is the
// one that makes the list, and whatever the caller streamed for the runs it
// names — Bloom filters, a compaction's entry chunks — durable before the
// anchor swings to them.
func (e *Engine) swapRunList(runs []*run) error {
	d := e.Env.Dev
	old := d.ReadU64(int64(e.hdr) + hRunList)
	var list pmalloc.Ptr
	if len(runs) > 0 {
		img := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+runEntSize*len(runs)), uint64(len(runs)))
		for _, r := range runs {
			img = binary.LittleEndian.AppendUint64(img, r.tree.Header())
			img = binary.LittleEndian.AppendUint64(img, r.bloomPtr)
			img = binary.LittleEndian.AppendUint64(img, r.bloomWords<<8|uint64(r.bloomK))
		}
		var err error
		if list, err = e.Env.Arena.StreamPersisted(pmalloc.TagOther, img); err != nil {
			return err
		}
	}
	d.Fence()
	d.WriteU64Durable(int64(e.hdr)+hRunList, uint64(list))
	if old != 0 {
		e.Env.Arena.Free(old)
	}
	e.runs = runs
	return nil
}

// compact applies the merge rule after a rotation: lsm.MergeSet starts a set
// at the newest immutable MemTable and takes in each next older one that
// holds at most LSMGrowth times the keys gathered so far, and a set of two or
// more is merged into one new, larger MemTable with a fresh Bloom filter
// (§4.3: "we also modified the compaction process to merge a set of these
// MemTables"). A run is merged again only once the runs above it have
// gathered a k-th of its keys, so the work a rotation causes does not grow
// with the database. The merge runs inline, right behind the rotation, so
// its victims are the newest n runs and the merged run takes their place at
// the head of the list. Tombstones are dropped only when the set reaches the
// oldest run: above it, an older run may still hold the key.
//
// Where the newest entry of a key decides it — it is the set's only entry for
// the key, a full image, or a tombstone that must be kept — its chunk is
// adopted by pointer instead of being rewritten, whatever its size, and
// release frees the key's older chunks only. The kind is in the pointer, so
// deciding this reads no chunk; only a newest delta over older entries is
// read, folded and written. Whichever side of the run-list swap a crash lands
// on, exactly one listed run reaches an adopted chunk, and the recovery sweep
// keeps whatever a listed run reaches. The merged run is bulk-loaded
// (nvbtree.Build) once every entry is known.
func (e *Engine) compact() error {
	sizes := make([]int, len(e.runs))
	for i, r := range e.runs {
		sizes[i] = r.keys
	}
	n := lsm.MergeSet(sizes, e.opts.LSMGrowth)
	if n < 2 {
		return nil
	}
	victims, bottom := e.runs[:n], n == len(e.runs) // newest first
	var newRun *run
	var dead []pmalloc.Ptr // the victims' entry chunks the merged run did not adopt
	fail := func(err error) error {
		e.fstats.Failures++
		return err
	}

	return lsm.RunStages(&e.fstats, "compact",
		func() error {
			stop := e.Bd.Timer(&e.Bd.Storage)
			defer stop()
			// Collect: for each key, its tagged entry pointers newest-run first.
			holders := make(map[uint64][]uint64)
			var order []uint64
			for _, r := range victims {
				r.tree.Iter(0, func(k, v uint64) bool {
					if _, ok := holders[k]; !ok {
						order = append(order, k)
					}
					holders[k] = append(holders[k], v)
					return true
				})
			}
			sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

			kvs := make([]nvbtree.KV, 0, len(order))
			fl := bloom.New(len(order), 10)
			for _, k := range order {
				chunks := holders[k]
				v := chunks[0]
				switch {
				case kindOf(v) == lsm.KindTomb && bottom:
					// Nothing older remains below: reclaim space during
					// compaction (Table 2).
					for _, c := range chunks {
						dead = append(dead, chunkOf(c))
					}
					continue
				case kindOf(v) == lsm.KindDelta && len(chunks) > 1:
					acc, err := e.readEntry(v)
					for _, c := range chunks[1:] {
						if err != nil || acc.Kind != lsm.KindDelta {
							break
						}
						var older lsm.Entry
						older, err = e.readEntry(c)
						acc = lsm.Merge(e.Tables[core.TreeTable(k)].Schema, acc, older)
					}
					if err != nil {
						return fail(err)
					}
					cp, err := e.writeEntryChunk(acc)
					if err != nil {
						return fail(err)
					}
					for _, c := range chunks {
						dead = append(dead, chunkOf(c))
					}
					v = cp
				default:
					for _, c := range chunks[1:] {
						dead = append(dead, chunkOf(c))
					}
				}
				kvs = append(kvs, nvbtree.KV{K: k, V: v})
				fl.Add(k)
			}
			merged, err := nvbtree.Build(e.Env.Arena, e.opts.BTreeNodeSize, kvs)
			if err != nil {
				return fail(err)
			}
			if newRun, err = e.storeRun(merged, len(kvs), fl); err != nil {
				return fail(err)
			}
			return nil
		},
		func() error {
			if err := e.swapRunList(append([]*run{newRun}, e.runs[n:]...)); err != nil {
				return fail(err)
			}
			return nil
		},
		func() error {
			// Release the merged-away runs: the entry chunks the merged run did
			// not adopt, the trees, the blooms.
			for _, c := range dead {
				if e.Env.Arena.StateOf(c) != pmalloc.StateFree {
					e.Env.Arena.Free(c)
				}
			}
			for _, r := range victims {
				r.tree.Release()
				if r.bloomPtr != 0 {
					e.Env.Arena.Free(r.bloomPtr)
				}
			}
			e.compactions++
			e.fstats.Compactions++
			return nil
		})
}

// Insert adds a tuple (Table 2: sync tuple, log pointer, add to MemTable).
func (e *Engine) Insert(table string, key uint64, row []core.Value) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	if e.exists(core.TreePrimary(tm.ID, key)) {
		return core.ErrKeyExists
	}
	var fixes []secFix
	for j, ix := range tm.Schema.Secondary {
		fixes = append(fixes, secFix{idx: j, added: true, composite: core.SecComposite(ix.SecKey(row), key)})
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	defer stopSt()
	if err := e.applyMem(tm, core.WalInsert, key, lsm.Entry{Kind: lsm.KindFull, Payload: core.EncodeRow(tm.Schema, row)}, fixes); err != nil {
		return err
	}
	e.MV.StageInsert(table, key)
	return nil
}

// Update records the updated fields in the MemTable.
func (e *Engine) Update(table string, key uint64, upd core.Update) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	if !e.exists(core.TreePrimary(tm.ID, key)) {
		return core.ErrKeyNotFound
	}
	// The delta is all the MemTable needs; the tuple is coalesced only when
	// the update can move it within a secondary index, or a pinned view
	// needs its pre-image.
	var fixes []secFix
	var old []core.Value
	if reindex := tm.Schema.IndexReads(upd.Cols); reindex || e.MV.Capture() {
		row, found, err := e.Get(table, key)
		if err != nil {
			return err
		}
		if !found {
			return core.ErrKeyNotFound // an image that does not decode
		}
		old = row
		if reindex {
			now := append([]core.Value(nil), old...)
			core.ApplyDelta(now, upd)
			for j, ix := range tm.Schema.Secondary {
				ok, nk := ix.SecKey(old), ix.SecKey(now)
				if ok != nk {
					fixes = append(fixes,
						secFix{idx: j, added: false, composite: core.SecComposite(ok, key)},
						secFix{idx: j, added: true, composite: core.SecComposite(nk, key)})
				}
			}
		}
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	defer stopSt()
	if err := e.applyMem(tm, core.WalUpdate, key, lsm.Entry{Kind: lsm.KindDelta, Payload: core.EncodeDelta(tm.Schema, upd)}, fixes); err != nil {
		return err
	}
	e.MV.StageUpdate(table, key, nil, old)
	return nil
}

// Delete marks the tuple with a tombstone in the MemTable.
func (e *Engine) Delete(table string, key uint64) error {
	if err := e.RequireTx(); err != nil {
		return err
	}
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	if !e.exists(core.TreePrimary(tm.ID, key)) {
		return core.ErrKeyNotFound
	}
	var fixes []secFix
	var old []core.Value
	if len(tm.Schema.Secondary) > 0 || e.MV.Capture() {
		row, found, err := e.Get(table, key)
		if err != nil {
			return err
		}
		if !found {
			return core.ErrKeyNotFound // an image that does not decode
		}
		old = row
		for j, ix := range tm.Schema.Secondary {
			fixes = append(fixes, secFix{idx: j, added: false, composite: core.SecComposite(ix.SecKey(old), key)})
		}
	}
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	defer stopSt()
	if err := e.applyMem(tm, core.WalDelete, key, lsm.Entry{Kind: lsm.KindTomb}, fixes); err != nil {
		return err
	}
	e.MV.StageDelete(table, key, old)
	return nil
}

// Get coalesces entries from the mutable MemTable and the immutable runs
// (newest first), probing each run's Bloom filter first (Table 2).
func (e *Engine) Get(table string, key uint64) ([]core.Value, bool, error) {
	tm, err := e.Table(table)
	if err != nil {
		return nil, false, err
	}
	tk := core.TreePrimary(tm.ID, key)
	var entries []lsm.Entry
	var readErr error
	add := func(v uint64) bool {
		ent, err := e.readEntry(v)
		if err != nil {
			readErr = err
			return true
		}
		entries = append(entries, ent)
		return kindOf(v) != lsm.KindDelta
	}
	done := false
	stopSt := e.Bd.Timer(&e.Bd.Storage)
	if v, ok := e.mem.Get(tk); ok {
		done = add(v)
	}
	stopSt()
	if !done {
		stopIdx := e.Bd.Timer(&e.Bd.Index)
		for _, r := range e.runs {
			if !e.bloomHas(r, tk) {
				continue
			}
			v, ok := r.tree.Get(tk)
			if !ok {
				continue
			}
			if add(v) {
				break
			}
		}
		stopIdx()
	}
	if readErr != nil {
		return nil, false, readErr
	}
	row, exists, _ := lsm.Coalesce(tm.Schema, entries)
	return row, exists, nil
}

// exists decides from the index alone whether the tuple is live: the kind of
// the newest entry for tk, in the MemTable or the newest run that holds one.
// A delta is only ever written over a live tuple, and a delete above it would
// be the newer entry, so anything but a tombstone means the tuple exists.
func (e *Engine) exists(tk uint64) bool {
	stopIdx := e.Bd.Timer(&e.Bd.Index)
	defer stopIdx()
	if v, ok := e.mem.Get(tk); ok {
		return kindOf(v) != lsm.KindTomb
	}
	for _, r := range e.runs {
		if !e.bloomHas(r, tk) {
			continue
		}
		if v, ok := r.tree.Get(tk); ok {
			return kindOf(v) != lsm.KindTomb
		}
	}
	return false
}

func (e *Engine) bloomHas(r *run, key uint64) bool {
	if r.bloomWords == 0 {
		return true
	}
	d := e.Env.Dev
	ok := true
	bloom.Probes(key, r.bloomK, r.bloomWords*64, func(bit uint64) bool {
		w := d.ReadU64(int64(r.bloomPtr) + int64(bit/64)*8)
		if w&(1<<(bit%64)) == 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ScanSecondary iterates primary keys matching a secondary key.
func (e *Engine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	j, ok := tm.SecPos(index)
	if !ok {
		return fmt.Errorf("nvmlog: unknown index %q", index)
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

// ScanRange merges the MemTable and the runs over the key range.
func (e *Engine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	lo, hi := core.TreePrimaryRange(tm.ID, from, to)
	if to > core.TreePK(^uint64(0)) {
		hi = core.TreePrimary(tm.ID, core.TreePK(^uint64(0)))
	}
	entries := make(map[uint64][]lsm.Entry)
	var order []uint64
	var readErr error
	collect := func(t *nvbtree.Tree) {
		t.Iter(lo, func(k, v uint64) bool {
			if k >= hi {
				return false
			}
			if _, ok := entries[k]; !ok {
				order = append(order, k)
			}
			ent, err := e.readEntry(v)
			if err != nil {
				readErr = err
				return false
			}
			entries[k] = append(entries[k], ent)
			return true
		})
	}
	collect(e.mem)
	for _, r := range e.runs {
		collect(r.tree)
	}
	if readErr != nil {
		return readErr
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, k := range order {
		if row, exists, _ := lsm.Coalesce(tm.Schema, entries[k]); exists {
			if !fn(core.TreePK(k), row) {
				return nil
			}
		}
	}
	return nil
}

// Flush is a no-op: every commit is immediately durable.
func (e *Engine) Flush() error { return nil }

// Compactions returns the number of MemTable merges performed.
func (e *Engine) Compactions() int { return e.compactions }

// Runs returns the number of immutable MemTables.
func (e *Engine) Runs() int { return len(e.runs) }

// FlushStats exposes the staged-pipeline counters (core.FlushStatser); the
// engine has no value log, so those fields stay zero. A metrics scrape calls
// it from outside the owner goroutine, so it reads under the exclusion, as a
// snapshot view does; the owner must not call it inside its own transaction.
func (e *Engine) FlushStats() core.FlushStats {
	x := e.Exclusion()
	x.Lock()
	defer x.Unlock()
	return e.fstats
}

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
