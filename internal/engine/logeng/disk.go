package logeng

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"nstore/internal/btree"
	"nstore/internal/core"
	"nstore/internal/engine/lsm"
	"nstore/internal/pmalloc"
	"nstore/internal/vlog"
)

const (
	walPrefix  = "log.wal"
	vlogPrefix = "vlog-"
	// manifestMagic tags a manifest slot (core.TwoSlot: log.manifest.0 and .1).
	manifestMagic = 0x4e534d414e463033 // "NSMANF03"

	// gcMinRatio is the dead-byte fraction at which a sealed value-log
	// segment becomes a GC victim.
	gcMinRatio = 0.5
)

// diskStore is the Log engine's store (§3.3): a volatile MemTable behind a
// redo WAL on the filesystem, flushed into SSTables that the manifest lists.
type diskStore struct {
	*Engine
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
	man    core.TwoSlot // the manifest (newest valid slot wins)
	// walFloor is the highest TxnID fully contained in the SSTables; WAL
	// records at or below it are stale debris from reused extents.
	walFloor uint64

	condemned []condemnedSeg

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
}

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

// newDisk creates the Log engine's store, or recovers it (Open).
func newDisk(e *Engine, reopen bool) error {
	s := &diskStore{Engine: e, cache: newBlockCache(e.Env.Arena, 0),
		man: core.TwoSlot{FS: e.Env.FS, Names: [2]string{"log.manifest.0", "log.manifest.1"}, Magic: manifestMagic}}
	e.st = s
	if reopen {
		return s.recover()
	}
	wal, err := core.NewSegmentedFsWAL(e.Env.FS, walPrefix, s.opts.GroupCommitSize)
	if err != nil {
		return err
	}
	if err := wal.UseArenaBuffer(e.Env.Arena); err != nil {
		return err
	}
	s.wal = wal
	s.buildVolatile()
	if s.opts.VlogThreshold > 0 {
		b := vlog.NewFSBackend(e.Env.FS, vlogPrefix)
		// Clear stale segments of a previous incarnation.
		if ids, err := b.List(); err == nil {
			for _, id := range ids {
				_ = b.Remove(id)
			}
		}
		vl, err := vlog.Open(b, vlog.Config{SegSize: int64(s.opts.VlogSegSize)})
		if err != nil {
			return err
		}
		s.vl = vl
	}
	return s.writeManifest(0)
}

func (s *diskStore) buildVolatile() {
	s.mem = btree.New(s.Env.Arena, s.opts.BTreeNodeSize)
	for _, tm := range s.Tables {
		var secs []*btree.Tree
		for range tm.Schema.Secondary {
			secs = append(secs, btree.New(s.Env.Arena, s.opts.BTreeNodeSize))
		}
		s.second = append(s.second, secs)
		addIndexes(s.Engine, secs)
	}
}

// recover reopens the SSTables from the manifest, replays the value-log head
// and validates every pointer the runs carry, rebuilds the MemTable from the
// WAL segments, removes orphaned runs and rebuilds the secondary indexes.
func (s *diskStore) recover() error {
	s.buildVolatile()
	var head vlog.Head
	if err := s.loadManifest(&head); err != nil {
		return err
	}
	if s.opts.VlogThreshold > 0 {
		vl, err := vlog.Open(vlog.NewFSBackend(s.Env.FS, vlogPrefix), vlog.Config{SegSize: int64(s.opts.VlogSegSize)})
		if err != nil {
			return err
		}
		// Value-log head replay: everything past the manifest-checkpointed
		// durable head is debris (records referenced only by uninstalled
		// SSTables or by memtable repoints lost with the crash).
		if err := vl.RestrictToHead(head); err != nil {
			return err
		}
		s.vl = vl
	}
	if err := s.validatePendingPtrs(); err != nil {
		return err
	}
	s.removeOrphans()

	wal, err := core.OpenSegmentedFsWAL(s.Env.FS, walPrefix, s.opts.GroupCommitSize)
	if err != nil {
		return err
	}
	s.wal = wal
	maxTxn, err := s.replayWAL()
	if err != nil {
		return err
	}
	s.TxnID = max(maxTxn, s.walFloor)
	return s.rebuildSecondaries()
}

// validatePendingPtrs vets every value-log pointer harvested from the
// manifest runs: a pointer into a segment that no longer exists is legal
// (GC removed it and the entry is shadowed), but a pointer past a live
// segment's valid prefix means durable data vanished.
func (s *diskStore) validatePendingPtrs() error {
	if len(s.pendingPtrs) == 0 {
		return nil
	}
	if s.vl == nil {
		return core.Corrupt(fmt.Errorf("logeng: manifest runs carry value-log pointers but separation is disabled"))
	}
	for _, p := range s.pendingPtrs {
		if err := s.vl.Validate(p); err != nil {
			return err
		}
	}
	s.pendingPtrs = nil
	return nil
}

func (s *diskStore) replayWAL() (uint64, error) {
	return s.wal.ReplaySegments(s.walFloor, func(r core.WalRecord) error {
		s.Rec.Records++
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
		oldPtr, _, err := s.putMem(s.Tables[r.Table].Schema, tk, ent)
		if err != nil {
			return err
		}
		if oldPtr != 0 {
			s.Env.Arena.Free(oldPtr)
		}
		return nil
	})
}

func (s *diskStore) rebuildSecondaries() error {
	for _, tm := range s.Tables {
		if len(tm.Schema.Secondary) == 0 {
			continue
		}
		err := s.ScanRange(tm.Schema.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			for _, f := range tm.Schema.SecFixes(nil, pk, nil, row) {
				s.fixSecondary(tm.ID, f)
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
func (s *diskStore) discardIfPtr(chunk uint64) {
	if s.vl == nil || chunk == 0 {
		return
	}
	if s.Env.Dev.ReadU8(int64(chunk)) != lsm.KindFullPtr {
		return
	}
	var buf [core.VlogPtrSize]byte
	s.Env.Dev.Read(int64(chunk)+5, buf[:])
	if ptr, ok := core.DecodeVlogPtr(buf[:]); ok {
		s.vl.Discard(ptr.Seg, vlog.DiscardOf(ptr))
	}
}

// resolve is the lsm.Resolver: it materializes a KindFullPtr entry by
// reading the value log.
func (s *diskStore) resolve(key uint64, ent lsm.Entry) (lsm.Entry, error) {
	ptr, ok := core.DecodeVlogPtr(ent.Payload)
	if !ok {
		return lsm.Entry{}, core.Corrupt(fmt.Errorf("logeng: malformed value-log pointer for key %d", key))
	}
	if s.vl == nil {
		return lsm.Entry{}, core.Corrupt(fmt.Errorf("logeng: value-log pointer for key %d with separation disabled", key))
	}
	val, err := s.vl.Read(ptr, key)
	if err != nil {
		return lsm.Entry{}, err
	}
	return lsm.Entry{Kind: lsm.KindFull, Payload: val}, nil
}

// putMem merges ent over any existing memtable entry for tk and installs
// the merged chunk. The superseded chunk is returned for deferred freeing.
func (s *diskStore) putMem(sch *core.Schema, tk uint64, ent lsm.Entry) (oldPtr, newPtr uint64, err error) {
	oldPtr, _ = s.mem.Get(tk)
	newPtr, err = s.putMemAt(sch, tk, oldPtr, ent)
	return oldPtr, newPtr, err
}

// putMemAt installs ent as tk's memtable entry over old, the chunk the
// memtable holds for tk (0: none). A full image or a tombstone replaces old;
// only a delta reads it, to fold itself in.
func (s *diskStore) putMemAt(sch *core.Schema, tk, old uint64, ent lsm.Entry) (uint64, error) {
	if old != 0 && ent.Kind == lsm.KindDelta {
		prev, err := lsm.ReadEntryChunk(s.Env.Arena, old)
		if err != nil {
			return 0, err
		}
		if ent, err = lsm.MergeR(sch, tk, ent, prev, s.resolve); err != nil {
			return 0, err
		}
	}
	np, err := lsm.WriteEntryChunk(s.Env.Arena, ent)
	if err != nil {
		return 0, err
	}
	s.mem.Put(tk, np)
	if old == 0 {
		s.memCount++
	}
	return np, nil
}

func (s *diskStore) begin() {
	s.walMark = s.wal.Mark()
	s.undo = s.undo[:0]
	s.secUndo = s.secUndo[:0]
	s.txnFrees = s.txnFrees[:0]
}

// commit group-commits the WAL. The transaction is durable once its group
// has reached the device; until then a lazy pre-image may name a chunk its
// writes superseded, so those are freed at the publish.
func (s *diskStore) commit() (bool, error) {
	if err := s.wal.TxnCommitted(s.TxnID); err != nil {
		return false, err
	}
	durable := s.wal.PendingTxns() == 0
	s.superseded = append(s.superseded, s.txnFrees...)
	s.txnFrees = s.txnFrees[:0]
	if durable {
		s.freeSuperseded()
	}
	return durable, nil
}

// maintain runs the staged flush pipeline inline when the MemTable is full,
// or retries a frozen one whose flush failed. A pipeline failure after the
// commit barrier leaves the frozen memtable and its WAL segment retained:
// acked commits stay durable, and the next commit retries the flush.
func (s *diskStore) maintain() error {
	if s.memCount < s.opts.MemTableCap && s.imm == nil {
		return nil
	}
	return s.triggerFlush(s.memCount >= s.opts.MemTableCap)
}

// publish publishes every pending group to the snapshot readers, once the
// WAL's group has reached the device, and frees the chunks their writes
// superseded: no lazy pre-image names one any more.
func (s *diskStore) publish() {
	s.MV.PublishDurable()
	s.freeSuperseded()
}

// freeSuperseded frees the chunks committed writes superseded.
func (s *diskStore) freeSuperseded() {
	for _, p := range s.superseded {
		s.discardIfPtr(uint64(p))
		s.Env.Arena.Free(p)
	}
	s.superseded = s.superseded[:0]
}

// abort undoes the running transaction's memtable and secondary-index
// changes and drops its buffered WAL records.
func (s *diskStore) abort() error {
	for i := len(s.undo) - 1; i >= 0; i-- {
		u := s.undo[i]
		if u.oldPtr != 0 {
			s.mem.Put(u.key, u.oldPtr)
		} else {
			s.mem.Delete(u.key)
			s.memCount--
		}
		s.discardIfPtr(u.newPtr)
		s.Env.Arena.Free(u.newPtr)
	}
	for i := len(s.secUndo) - 1; i >= 0; i-- {
		u := s.secUndo[i]
		u.Add = !u.Add
		s.fixSecondary(u.table, u.SecFix)
	}
	s.wal.DropTail(s.walMark)
	s.txnFrees = s.txnFrees[:0]
	return nil
}

// fixSecondary adds or removes one secondary-index entry.
func (s *diskStore) fixSecondary(table int, f core.SecFix) {
	if f.Add {
		s.second[table][f.Idx].Put(f.Composite(), f.PK)
	} else {
		s.second[table][f.Idx].Delete(f.Composite())
	}
}

// write appends the operation's WAL record — only the after-image: replay
// redoes it, and rollback undoes through the memtable — then installs its
// entry and its secondary-index fixes, each recorded for rollback.
func (s *diskStore) write(tm *core.TableMeta, typ uint8, key, memPtr uint64, ent lsm.Entry, fixes []core.SecFix) error {
	stop := s.Bd.Timer(&s.Bd.Recovery)
	s.wal.Append(core.WalRecord{Type: typ, TxnID: s.TxnID, Table: tm.ID, Key: key, After: ent.Payload})
	stop()
	stop = s.Bd.Timer(&s.Bd.Storage)
	tk := core.TreePrimary(tm.ID, key)
	newPtr, err := s.putMemAt(tm.Schema, tk, memPtr, ent)
	stop()
	if err != nil {
		return err
	}
	s.undo = append(s.undo, memUndo{key: tk, oldPtr: memPtr, newPtr: newPtr})
	if memPtr != 0 {
		s.txnFrees = append(s.txnFrees, pmalloc.Ptr(memPtr))
	}
	defer s.Bd.Timer(&s.Bd.Index)()
	for _, f := range fixes {
		s.fixSecondary(tm.ID, f)
		s.secUndo = append(s.secUndo, secUndo{tm.ID, f})
	}
	return nil
}

// stageLazy stages ref, the chunk a write superseded, as its pre-image: the
// write is published only at its group's fsync, and a view pinned before
// that coalesces the row from ref (Engine.PreImage).
func (s *diskStore) stageLazy(table string, key, ref uint64) { s.MV.StageLazy(table, key, ref) }

// flushGroup forces the pending group commit.
func (s *diskStore) flushGroup() error {
	defer s.Exclude()()
	stop := s.Bd.Timer(&s.Bd.Recovery)
	defer stop()
	if err := s.wal.Flush(); err != nil {
		return err
	}
	s.publish()
	return nil
}

func (s *diskStore) walStats() core.WalStats { return s.wal.Stats() }

func (s *diskStore) vlogStats(st *core.FlushStats) {
	if s.vl != nil {
		vs := s.vl.Stats()
		st.VlogSegments = int64(vs.Segments)
		st.VlogBytes = vs.Bytes
		st.VlogDiscard = vs.Discard
		st.VlogReclaimed = vs.Reclaimed
	}
}

// mems returns the active memtable if active is set, then the frozen one.
func (s *diskStore) mems(active bool) (ts [2]core.IndexTree) {
	if active {
		ts[0] = s.mem
	}
	if s.imm != nil {
		ts[1] = s.imm.tree
	}
	return ts
}

// kind reads a memtable chunk's kind byte.
func (s *diskStore) kind(v uint64) (uint8, error) { return lsm.ReadEntryKind(s.Env.Arena, v) }

func (s *diskStore) entry(v uint64) (lsm.Entry, error) { return lsm.ReadEntryChunk(s.Env.Arena, v) }

// eachRun visits L0 newest to oldest, then the levels shallow to deep.
func (s *diskStore) eachRun(fn func(r run) (stop bool, err error)) error {
	for i := len(s.l0) - 1; i >= 0; i-- {
		if stop, err := fn(s.l0[i]); stop || err != nil {
			return err
		}
	}
	for _, r := range s.levels {
		if r == nil {
			continue
		}
		if stop, err := fn(r); stop || err != nil {
			return err
		}
	}
	return nil
}

// triggerFlush first retries the frozen memtable whose flush failed, if any,
// then — when freeze is set — runs the prepare stage on the active memtable
// and flushes it. Retrying first keeps one memtable from freezing behind
// another: the later one's install would advance the manifest floor past the
// older one's WAL segment, and replay would skip it.
func (s *diskStore) triggerFlush(freeze bool) error {
	if s.imm != nil {
		if err := s.flush(); err != nil {
			return err
		}
	}
	if !freeze || s.memCount == 0 {
		return nil
	}
	start := time.Now()
	err := s.freeze()
	s.fstats.PrepareNs += time.Since(start).Nanoseconds()
	if err != nil {
		return err
	}
	return s.flush()
}

// freeze is the prepare stage: flush the group buffer (the durability
// barrier), seal the WAL segment, and swap in a fresh memtable. The frozen
// memtable (s.imm) stays readable until its SSTable installs.
func (s *diskStore) freeze() error {
	if err := s.wal.Flush(); err != nil {
		return err
	}
	s.publish()
	sealed, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	s.imm = &frozenMem{tree: s.mem, floor: s.TxnID, walSeq: sealed, gen: s.memGen}
	s.memGen++
	s.mem = btree.New(s.Env.Arena, s.opts.BTreeNodeSize)
	s.memCount = 0
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
func (s *diskStore) flush() error {
	fz := s.imm
	var b sstBuild
	return lsm.RunStages(&s.fstats, "flush",
		func() (err error) {
			b, err = s.buildSST(fz)
			return err
		},
		func() error {
			s.l0 = append(s.l0, b.run)
			if err := s.writeManifest(fz.floor); err != nil {
				s.l0 = s.l0[:len(s.l0)-1]
				s.dropBuild(b.run.name, b.appended)
				return err
			}
			s.imm = nil
			return nil
		},
		func() error {
			// Strictly after the manifest commit: the flushed data is now
			// re-creatable from the SSTable, so the WAL segment may go.
			if err := s.wal.ReleaseThrough(fz.walSeq); err != nil {
				return err
			}
			for _, p := range b.free {
				s.Env.Arena.Free(pmalloc.Ptr(p))
			}
			fz.tree.Release()
			s.releaseCondemned(fz.gen)
			s.fstats.Flushes++
			return s.compact()
		})
}

// buildSST is a flush's build stage: it writes fz as an SSTable, separating
// large values into the value log — a large delta as the image it folds into
// (foldOnRuns) — and syncing their records, which must be durable before the
// manifest that installs pointers to them. A failure removes the partial
// table and marks the appended values dead.
func (s *diskStore) buildSST(fz *frozenMem) (b sstBuild, err error) {
	stop := s.Bd.Timer(&s.Bd.Storage)
	defer stop()
	s.seq++
	name := fmt.Sprintf("sst-%06d", s.seq)
	w, err := newSSTWriter(s.Env.FS, name)
	if err != nil {
		s.fstats.Failures++
		return b, err
	}
	defer func() {
		if err != nil {
			s.dropBuild(name, b.appended)
		}
	}()
	fz.tree.Iter(0, func(k, p uint64) bool {
		var ent lsm.Entry
		if ent, err = lsm.ReadEntryChunk(s.Env.Arena, p); err != nil {
			return false
		}
		if s.vl != nil && ent.Kind == lsm.KindDelta && len(ent.Payload) >= s.opts.VlogThreshold {
			if ent, err = s.foldOnRuns(k, ent); err != nil {
				return false
			}
		}
		if s.vl != nil && ent.Kind == lsm.KindFull && len(ent.Payload) >= s.opts.VlogThreshold {
			var ptr core.VlogPtr
			if ptr, err = s.vl.Append(k, ent.Payload); err != nil {
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
	if s.vl != nil {
		if err = s.vl.Sync(); err != nil {
			return b, err
		}
	}
	if err = w.finish(); err != nil {
		return b, err
	}
	b.run, err = openSSTable(s.Env.FS, s.cache, name)
	return b, err
}

// foldOnRuns folds a frozen MemTable's delta for tk onto tk's entries in the
// runs into a full image, which the flush then separates like any other. The
// active MemTable is newer than the frozen one and is not read. A delta with
// no image under it is corrupt.
func (s *diskStore) foldOnRuns(tk uint64, delta lsm.Entry) (lsm.Entry, error) {
	entries, err := s.runChain(tk, []lsm.Entry{delta})
	if err != nil {
		return lsm.Entry{}, err
	}
	tm := s.Tables[core.TreeTable(tk)]
	row, _, err := s.rowOf(tm, tk, entries)
	if err != nil {
		return lsm.Entry{}, err
	}
	return lsm.Entry{Kind: lsm.KindFull, Payload: core.EncodeRow(tm.Schema, row)}, nil
}

// dropBuild undoes a failed flush's build: the SSTable file, and the value
// bytes appended for it (dead weight the GC can count).
func (s *diskStore) dropBuild(name string, appended []core.VlogPtr) {
	s.cache.drop(name)
	_ = s.Env.FS.Remove(name)
	for _, p := range appended {
		s.vl.Discard(p.Seg, vlog.DiscardOf(p))
	}
	s.fstats.Failures++
}

// releaseCondemned deletes GC victim segments whose repointed records are
// now installed (their memtable generation <= gen just released).
func (s *diskStore) releaseCondemned(gen uint64) {
	kept := s.condemned[:0]
	for _, c := range s.condemned {
		if c.gen <= gen {
			_ = s.vl.Remove(c.seg)
		} else {
			kept = append(kept, c)
		}
	}
	s.condemned = kept
}

// compact merges every L0 run and the levels above the first empty one into
// that level (one run per level, each deeper run larger) in one pass, then
// runs a value-log GC pass if the merge's discard stats pushed a segment over
// the threshold. A lone L0 run over an empty level 0 moves down unmerged.
func (s *diskStore) compact() error {
	if len(s.l0) == 0 {
		return nil
	}
	rest := 0
	for rest < len(s.levels) && s.levels[rest] != nil {
		rest++
	}
	// The inputs newest first: L0 newest to oldest, then the levels.
	inputs := slices.Concat(s.l0, s.levels[:rest])
	slices.Reverse(inputs[:len(s.l0)])
	// Tombstones may only be dropped by a merge into a level, and only when no
	// deeper run could still hold the shadowed tuples.
	dropTombs := rest > 0 && !slices.ContainsFunc(s.levels[min(rest+1, len(s.levels)):], func(r *sstable) bool { return r != nil })
	out := inputs[0]
	merged := len(inputs) > 1
	drop := func(err error) error {
		if out != inputs[0] {
			out.release()
			_ = s.Env.FS.Remove(out.name)
		}
		s.fstats.Failures++
		return err
	}
	return lsm.RunStages(&s.fstats, "compact",
		func() error {
			if !merged {
				return nil
			}
			defer s.Bd.Timer(&s.Bd.Storage)()
			run, err := s.mergeRuns(inputs, dropTombs)
			if err != nil {
				return drop(err)
			}
			out = run
			s.compactions++
			return nil
		},
		func() error {
			savedL0, savedLevels := s.l0, slices.Clone(s.levels)
			s.l0 = nil
			for i := 0; i < rest; i++ {
				s.levels[i] = nil
			}
			for len(s.levels) <= rest {
				s.levels = append(s.levels, nil)
			}
			s.levels[rest] = out
			if err := s.writeManifest(s.walFloor); err != nil {
				s.l0, s.levels = savedL0, savedLevels
				return drop(err)
			}
			return nil
		},
		func() error {
			if merged {
				for _, r := range inputs {
					r.release()
					_ = s.Env.FS.Remove(r.name)
				}
			}
			s.fstats.Compactions++
			// The compaction has installed; a failed GC pass is counted and
			// leaves its victim in place.
			_ = s.gc(gcMinRatio)
			return nil
		})
}

// gc runs a value-log GC pass if a sealed segment's dead ratio reaches
// minRatio (0 forces the best victim regardless). A failed pass is counted in
// FlushStats.Failures; the victim stays, so the pointers into it still
// resolve.
func (s *diskStore) gc(minRatio float64) error {
	if s.vl == nil {
		return nil
	}
	victim, ok := s.vl.PickVictim(minRatio)
	if !ok {
		return nil
	}
	return lsm.RunStages(&s.fstats, "gc", func() error {
		if err := s.gcSegment(victim); err != nil {
			s.fstats.Failures++
			return err
		}
		s.fstats.GCRuns++
		s.vl.NoteGCRun()
		return nil
	}, nil, nil)
}

// gcSegment rewrites the victim's live records to the value-log tail and
// repoints them through the memtable, then condemns the segment. The
// deletion itself waits until the repointing memtable generation installs:
// a crash any time before that leaves the old pointers valid (the victim
// still exists), a crash after reads the repointed entries — never a
// dangling pointer.
func (s *diskStore) gcSegment(victim uint32) error {
	gen := s.memGen
	err := s.vl.Scan(victim, func(key uint64, ptr core.VlogPtr, val []byte) error {
		entries, err := s.chain(key, nil, true)
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
		tm := s.Tables[core.TreeTable(key)]
		row, exists, err := s.rowOf(tm, key, entries)
		if err != nil {
			return err
		}
		if !exists {
			return nil
		}
		img := core.EncodeRow(tm.Schema, row)
		var ent lsm.Entry
		if len(img) >= s.opts.VlogThreshold {
			nptr, err := s.vl.Append(key, img)
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
		oldPtr, _, err := s.putMem(tm.Schema, key, ent)
		if err != nil {
			return err
		}
		if oldPtr != 0 {
			s.discardIfPtr(oldPtr)
			s.Env.Arena.Free(pmalloc.Ptr(oldPtr))
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.condemned = append(s.condemned, condemnedSeg{seg: victim, gen: gen})
	return nil
}

// mergeRuns merges runs, newest first, into one fresh SSTable in one k-way
// pass. Each key's entries fold newest over older (lsm.MergeR): the left fold
// a cascade of pairwise merges computes, in its order. Value-log pointers flow
// through opaquely unless a delta lands on one; every pointer folded under a
// newer entry feeds the discard statistics that drive GC. dropTombs drops the
// merged tombstones. A failed merge removes its partial table.
func (s *diskStore) mergeRuns(runs []*sstable, dropTombs bool) (_ *sstable, err error) {
	s.seq++
	name := fmt.Sprintf("sst-%06d", s.seq)
	w, err := newSSTWriter(s.Env.FS, name)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = s.Env.FS.Remove(name)
		}
	}()
	srcs := make([]source, len(runs))
	for i, r := range runs {
		sc := r.scan()
		if !sc.next() && sc.err != nil {
			return nil, sc.err
		}
		srcs[i] = sc
	}
	var entries []lsm.Entry
	for {
		var k uint64
		if k, entries, err = nextKey(srcs, entries[:0]); err != nil {
			return nil, err
		}
		if len(entries) == 0 {
			break
		}
		sch := s.Tables[core.TreeTable(k)].Schema
		acc := entries[0]
		for _, older := range entries[1:] {
			if acc, err = lsm.MergeR(sch, k, acc, older, s.resolve); err != nil {
				return nil, err
			}
			if older.Kind == lsm.KindFullPtr && s.vl != nil {
				// The older separated value is superseded: its log bytes
				// are dead.
				if ptr, ok := core.DecodeVlogPtr(older.Payload); ok {
					s.vl.Discard(ptr.Seg, vlog.DiscardOf(ptr))
				}
			}
		}
		if !dropTombs || acc.Kind != lsm.KindTomb {
			w.add(k, acc)
		}
	}
	if err = w.finish(); err != nil {
		return nil, err
	}
	return openSSTable(s.Env.FS, s.cache, name)
}

// Manifest payload (v2): seq u64, txnFloor u64, vlogSeg u32, vlogOff u64,
// l0Count u32 + {nameLen u32, name}, levelCount u32 + {level u32,
// nameLen u32, name}, in a two-slot record (core.TwoSlot).
func (s *diskStore) writeManifest(floor uint64) error {
	floor = max(floor, s.walFloor)
	var head vlog.Head
	if s.vl != nil {
		head = s.vl.HeadMark()
	}
	le := binary.LittleEndian
	buf := le.AppendUint64(nil, s.seq)
	buf = le.AppendUint64(buf, floor)
	buf = le.AppendUint32(buf, head.Seg)
	buf = le.AppendUint64(buf, uint64(head.Off))
	buf = le.AppendUint32(buf, uint32(len(s.l0)))
	for _, run := range s.l0 {
		buf = append(le.AppendUint32(buf, uint32(len(run.name))), run.name...)
	}
	n := 0
	for _, run := range s.levels {
		if run != nil {
			n++
		}
	}
	buf = le.AppendUint32(buf, uint32(n))
	for i, run := range s.levels {
		if run != nil {
			buf = le.AppendUint32(le.AppendUint32(buf, uint32(i)), uint32(len(run.name)))
			buf = append(buf, run.name...)
		}
	}
	if err := s.man.Write(nil, buf); err != nil {
		return err
	}
	s.walFloor = floor
	return nil
}

// loadManifest restores state from the newest valid manifest slot. No
// valid slot means no MemTable flush ever completed (or the very first
// manifest write tore): the WAL still holds every committed transaction,
// so starting with empty levels is correct.
func (s *diskStore) loadManifest(head *vlog.Head) error {
	_, buf, ok := s.man.Load()
	if !ok {
		return nil
	}
	le := binary.LittleEndian
	off, short := 0, false
	take := func(n int) []byte {
		if short || n > len(buf)-off {
			short = true
			return make([]byte, min(n, 8))
		}
		off += n
		return buf[off-n : off]
	}
	s.seq = le.Uint64(take(8))
	s.walFloor = le.Uint64(take(8))
	head.Seg = le.Uint32(take(4))
	head.Off = int64(le.Uint64(take(8)))
	// The runs to open: L0's oldest first (level -1), then the levels'.
	type spec struct {
		level int
		name  string
	}
	var specs []spec
	for i, n := 0, int(le.Uint32(take(4))); i < n && !short; i++ {
		specs = append(specs, spec{-1, string(take(int(le.Uint32(take(4)))))})
	}
	for i, n := 0, int(le.Uint32(take(4))); i < n && !short; i++ {
		level := int(le.Uint32(take(4)))
		specs = append(specs, spec{level, string(take(int(le.Uint32(take(4)))))})
	}
	if short {
		return fmt.Errorf("logeng: manifest payload truncated")
	}
	for _, sp := range specs {
		run, err := openSSTable(s.Env.FS, s.cache, sp.name)
		if err != nil {
			return err
		}
		if sp.level < 0 {
			s.l0 = append(s.l0, run)
		} else {
			for len(s.levels) <= sp.level {
				s.levels = append(s.levels, nil)
			}
			s.levels[sp.level] = run
		}
		s.Rec.Records += run.count
		// Harvest pointers for validation once the value log is open.
		sc := run.scan()
		for sc.next() {
			if sc.ent.Kind == lsm.KindFullPtr {
				ptr, ok := core.DecodeVlogPtr(sc.ent.Payload)
				if !ok {
					return core.Corrupt(fmt.Errorf("logeng: %s carries malformed value-log pointer", run.name))
				}
				s.pendingPtrs = append(s.pendingPtrs, ptr)
			}
		}
		if sc.err != nil {
			return sc.err
		}
	}
	return nil
}

// ssts returns every listed SSTable.
func (s *diskStore) ssts() []*sstable {
	var out []*sstable
	for _, run := range slices.Concat(s.l0, s.levels) {
		if run != nil {
			out = append(out, run)
		}
	}
	return out
}

// removeOrphans deletes SSTable files not referenced by the manifest
// (leftovers from a flush or compaction interrupted by the crash).
func (s *diskStore) removeOrphans() {
	ref := make(map[string]bool)
	for _, run := range s.ssts() {
		ref[run.name] = true
	}
	for _, name := range s.Env.FS.List() {
		if len(name) >= 4 && name[:4] == "sst-" && !ref[name] {
			s.Env.FS.Remove(name)
		}
	}
}

// footprint reports storage usage (Fig. 14). A snapshot reader's Get fills
// the block cache and the arena under it, so it takes the exclusion.
func (s *diskStore) footprint() core.Footprint {
	defer s.Exclude()()
	u := s.Env.Arena.Usage()
	var sst int64
	for _, run := range s.ssts() {
		sst += run.size
	}
	if s.vl != nil {
		sst += s.vl.Bytes()
	}
	return core.Footprint{
		Table: sst + u[pmalloc.TagTable],
		Index: u[pmalloc.TagIndex],
		Log:   s.wal.SizeBytes(),
		Other: s.cache.bytes(),
	}
}
