package logeng

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
	"nstore/internal/engine/undolog"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

const (
	hdrMagic = 0x4e564d4c4f473136 // "NVMLOG16": the undo log's commit line
	rootSlot = 0

	// Engine header layout. The header is a chunk of more than a line, so it
	// starts one and its payload 16 bytes into it: the payload's second line
	// starts at hCommit, and is the undo log's alone. Word 40 is reserved.
	hMagic   = 0
	hMutable = 8  // current mutable MemTable tree header
	hRunList = 16 // immutable run list chunk (0 = none)
	hVlogDir = 24 // reserved, 0: the slot of a value-log segment directory
	hNTables = 32
	hCommit  = 48                     // the undo log's commit line
	hAnchors = hCommit + nvm.LineSize // per table: secondary tree headers

	// Run list chunk: n u64, then per run {treeHdr, bloomPtr, bloomMeta}.
	// bloomMeta packs words<<8 | k. Runs are ordered newest first.
	runEntSize = 24

	// An undo entry's body (undolog): the key's old and new tagged
	// entry-chunk pointers, as the MemTable held them (old 0: none).
	bodySize = 16
)

// The kind of an entry rides in the pointer to its chunk. pmalloc payloads
// are 16-byte aligned, so the MemTable, every run and the undo log hold
// ptr|kind: a lookup that ends at a tombstone, an existence check, and a
// compaction deciding whether it may adopt a chunk all learn the kind from
// the tree node they already read, without loading the chunk. The allocator
// and the chunk reads see the bare pointer (chunkOf).
const kindMask = 15

func tagPtr(p pmalloc.Ptr, kind uint8) uint64 { return p | uint64(kind) }
func chunkOf(v uint64) pmalloc.Ptr            { return v &^ kindMask }
func tagKind(v uint64) uint8                  { return uint8(v & kindMask) }

// readEntry returns the entry a tagged pointer names. A tombstone has no
// payload, so its chunk is not read. A pointer or a length the arena does not
// hold is a corrupt error (lsm.ReadEntryChunk).
func readEntry(a *pmalloc.Arena, v uint64) (lsm.Entry, error) {
	if tagKind(v) == lsm.KindTomb {
		return lsm.Entry{Kind: lsm.KindTomb}, nil
	}
	return lsm.ReadEntryChunk(a, chunkOf(v))
}

// nvmRun is one immutable MemTable.
type nvmRun struct {
	filter
	tree *nvbtree.Tree
	a    *pmalloc.Arena
	// keys is the number of entries the tree holds, for the merge rule. It is
	// not persisted: rotation, a merge and the recovery sweep each count it.
	keys int
}

// kindOf returns the kind the tree's pointer for tk carries.
func (r *nvmRun) kindOf(tk uint64) (uint8, bool, error) {
	v, ok := r.tree.Get(tk)
	return tagKind(v), ok, nil
}

func (r *nvmRun) find(tk uint64) (lsm.Entry, bool, error) {
	v, ok := r.tree.Get(tk)
	if !ok {
		return lsm.Entry{}, false, nil
	}
	ent, err := readEntry(r.a, v)
	return ent, err == nil, err
}

func (r *nvmRun) from(lo, hi uint64) (source, error) {
	return readRange(r.tree, lo, hi, func(v uint64) (lsm.Entry, error) { return readEntry(r.a, v) })
}

// nvmStore is the NVM-Log engine's store (§4.3): a durable MemTable that is
// never flushed anywhere, an undo-only WAL, and a list of immutable runs.
type nvmStore struct {
	*Engine
	hdr      pmalloc.Ptr
	mem      *nvbtree.Tree
	memCount int
	runs     []*nvmRun // newest first
	second   [][]*nvbtree.Tree
	log      *undolog.Log

	ops []txnOp // one per undo entry
}

type txnOp struct {
	oldPtr uint64 // superseded entry chunk (tagged), freed at commit
	added  bool   // the op added its key to the MemTable (counted in memCount)
}

// newNVM creates the NVM-Log engine's store anchored at arena root slot 0,
// or recovers it (OpenNVM).
func newNVM(e *Engine, reopen bool) error {
	s := &nvmStore{Engine: e}
	e.st = s
	if reopen {
		return s.recover()
	}
	env := e.Env
	nSec := 0
	for _, tm := range e.Tables {
		nSec += len(tm.Schema.Secondary)
	}
	hdr, err := env.Arena.Alloc(hAnchors+8*nSec, pmalloc.TagOther)
	if err != nil {
		return err
	}
	s.hdr, s.log = hdr, undolog.Format(env.Arena, int64(hdr)+hCommit, e.Tables)
	d := env.Dev
	d.WriteU64(int64(hdr)+hMagic, hdrMagic)
	d.WriteU64(int64(hdr)+hRunList, 0)
	d.WriteU64(int64(hdr)+hVlogDir, 0)
	d.WriteU64(int64(hdr)+hNTables, uint64(len(e.Tables)))
	if s.mem, err = nvbtree.Create(env.Arena, s.opts.BTreeNodeSize); err != nil {
		return err
	}
	d.WriteU64(int64(hdr)+hMutable, s.mem.Header())
	if err := s.secondaries(func(off int64) (*nvbtree.Tree, error) {
		st, err := nvbtree.Create(env.Arena, s.opts.BTreeNodeSize)
		if err == nil {
			d.WriteU64(int64(hdr)+off, st.Header())
		}
		return st, err
	}); err != nil {
		return err
	}
	d.Sync(int64(hdr), hAnchors+8*nSec)
	env.Arena.SetPersisted(hdr)
	env.Arena.SetRoot(rootSlot, hdr)
	return nil
}

// secondaries builds every table's secondary trees with mk, given each one's
// header slot.
func (s *nvmStore) secondaries(mk func(off int64) (*nvbtree.Tree, error)) error {
	off := int64(hAnchors)
	for _, tm := range s.Tables {
		var secs []*nvbtree.Tree
		for range tm.Schema.Secondary {
			st, err := mk(off)
			if err != nil {
				return err
			}
			secs = append(secs, st)
			off += 8
		}
		s.second = append(s.second, secs)
		addIndexes(s.Engine, secs)
	}
	return nil
}

// recover reopens the durable MemTables and indexes, undoes in-flight
// transactions via the WAL, completes any interrupted rotation, and sweeps
// orphaned chunks.
func (s *nvmStore) recover() error {
	env := s.Env
	hdr := env.Arena.Root(rootSlot)
	if hdr == 0 {
		return fmt.Errorf("logeng: nvm-log: no engine header")
	}
	d := env.Dev
	if m := d.ReadU64(int64(hdr) + hMagic); m != hdrMagic {
		// A device image is outside input: one of an earlier format — bare
		// entry pointers (NVMLOG12), linked undo entries (NVMLOG14), the
		// epoch in a shared word (NVMLOG15) — would be misread.
		if m>>16 == hdrMagic>>16 {
			return core.Corrupt(fmt.Errorf("logeng: nvm-log: image of format %q", binary.BigEndian.AppendUint64(nil, m)))
		}
		return fmt.Errorf("logeng: nvm-log: no engine header")
	}
	s.hdr, s.log = hdr, undolog.Open(env.Arena, int64(hdr)+hCommit, s.Tables)
	if int(d.ReadU64(int64(hdr)+hNTables)) != len(s.Tables) {
		return fmt.Errorf("logeng: nvm-log: schema mismatch")
	}
	// The engine has no value log. An entry chunk holding a value-log pointer
	// cannot exist without a segment directory, so this one read vouches for
	// every entry chunk in the image.
	if d.ReadU64(int64(hdr)+hVlogDir) != 0 {
		return core.Corrupt(fmt.Errorf("logeng: nvm-log: reserved value-log directory slot is not zero"))
	}
	var err error
	if s.mem, err = nvbtree.Open(env.Arena, d.ReadU64(int64(hdr)+hMutable)); err != nil {
		return err
	}
	if err := s.loadRuns(); err != nil {
		return err
	}
	// A crash between the run-list swap and the mutable swap leaves the
	// same tree both mutable and newest-immutable; finish the rotation.
	if len(s.runs) > 0 && s.runs[0].tree.Header() == s.mem.Header() {
		if s.mem, err = nvbtree.Create(env.Arena, s.opts.BTreeNodeSize); err != nil {
			return err
		}
		d.WriteU64Durable(int64(s.hdr)+hMutable, s.mem.Header())
	}
	if err := s.secondaries(func(off int64) (*nvbtree.Tree, error) {
		return nvbtree.Open(env.Arena, d.ReadU64(int64(hdr)+off))
	}); err != nil {
		return err
	}
	// One walk over the arena's chunks serves both passes: the log picks the
	// open epoch's entries from it, and the sweep its orphans. The entry
	// chunks the undone operations made are left to the sweep: freeing one
	// here would let the index rewrites further down the undo take its
	// address, and a crash inside this pass would run the undo again and free
	// a live node.
	chunks, walked := core.PersistedChunks(env.Arena)
	if _, err := s.log.Recover(chunks, func(ent undolog.Entry) error {
		_, err := s.undoEntry(ent)
		return err
	}, false); err != nil {
		if errors.Is(err, nvbtree.ErrCorrupt) {
			err = core.Corrupt(fmt.Errorf("logeng: nvm-log: undo: %w", err))
		}
		return err
	}
	s.memCount = s.mem.Count()
	return s.sweep(chunks, walked)
}

func (s *nvmStore) loadRuns() error {
	d := s.Env.Dev
	list := d.ReadU64(int64(s.hdr) + hRunList)
	if list == 0 {
		return nil
	}
	n := int(d.ReadU64(int64(list)))
	for i := 0; i < n; i++ {
		base := int64(list) + 8 + int64(i)*runEntSize
		tr, err := nvbtree.Open(s.Env.Arena, d.ReadU64(base))
		if err != nil {
			return err
		}
		meta := d.ReadU64(base + 16)
		s.runs = append(s.runs, &nvmRun{
			filter: filter{ptr: d.ReadU64(base + 8), words: meta >> 8, k: int(meta & 0xff)},
			tree:   tr,
			a:      s.Env.Arena,
		})
	}
	return nil
}

// reachable marks every chunk the engine header reaches: the header and run
// list, the MemTable's and every listed run's nodes and entry chunks, the
// Bloom filters and the secondary indexes. It also returns each run's keys,
// which the sweep needs next.
func (s *nvmStore) reachable() (reach map[pmalloc.Ptr]bool, runKeys [][]uint64) {
	reach = make(map[pmalloc.Ptr]bool)
	mark := func(p pmalloc.Ptr) { reach[p] = true }
	reach[s.hdr] = true
	if list := s.Env.Dev.ReadU64(int64(s.hdr) + hRunList); list != 0 {
		reach[list] = true
	}
	markTree := func(t *nvbtree.Tree, keys *[]uint64) {
		t.Walk(0, mark, func(k, v uint64) bool {
			reach[chunkOf(v)] = true
			if keys != nil {
				*keys = append(*keys, k)
			}
			return true
		})
	}
	markTree(s.mem, nil)
	runKeys = make([][]uint64, len(s.runs))
	for i, r := range s.runs {
		markTree(r.tree, &runKeys[i])
		if r.ptr != 0 {
			reach[r.ptr] = true
		}
	}
	for _, secs := range s.second {
		for _, st := range secs {
			st.Nodes(mark)
		}
	}
	return reach, runKeys
}

// sweep reclaims, of the persisted chunks the recovery walk found, those
// orphaned by crashes: an entry chunk, Bloom filter or run list marked
// persisted (StreamPersisted) before the crash kept it from being linked, what
// rotation and compaction had unlinked but not yet freed, and every WAL entry,
// which the recovery's epoch has moved past. It then re-verifies each
// immutable run's Bloom filter against its tree. A chunk reachable from any
// listed tree survives, which is what lets a compaction's merged run share
// entry chunks with the runs it replaces.
func (s *nvmStore) sweep(chunks []core.Chunk, walked int) error {
	// The marking pass over each run doubles as the key harvest for the
	// Bloom verification below.
	reach, runKeys := s.reachable()
	a := s.Env.Arena
	// The undo after the walk may have freed a tree node the walk found.
	core.FreeOrphans(a, chunks, func(c core.Chunk) bool { return !reach[c.P] && a.StateOf(c.P) == pmalloc.StatePersisted })
	var nkeys int64
	for i, ks := range runKeys {
		s.runs[i].keys = len(ks)
		nkeys += int64(len(ks))
	}
	s.Rec = core.RecoveryReport{Records: int64(walked) + nkeys}
	return s.verifyBlooms(runKeys)
}

// verifyBlooms rebuilds each immutable run's Bloom filter from its tree keys
// and compares it with the persisted copy; a mismatched filter would silently
// turn lookups into false negatives, so it is repaired in place. storeRun
// sizes filters with the same constructor, so a rebuild from the same key
// count is bit-compatible whenever the stored metadata is intact. Every
// stored filter is read before the first repair writes.
func (s *nvmStore) verifyBlooms(runKeys [][]uint64) error {
	d := s.Env.Dev
	stored := make([][]byte, len(s.runs))
	for i, r := range s.runs {
		stored[i] = make([]byte, r.words*8)
		d.Read(int64(r.ptr), stored[i])
	}
	relink := false
	for i, r := range s.runs {
		bm := bloom.Build(len(runKeys[i]), runKeys[i]).Marshal()
		bits, k := bm[8:], int(binary.LittleEndian.Uint64(bm))
		if k == r.k && bytes.Equal(bits, stored[i]) {
			continue
		}
		if uint64(len(bits)) == r.words*8 && k == r.k {
			// Same geometry: repair the persisted bits in place.
			d.Write(int64(r.ptr), bits)
			d.Sync(int64(r.ptr), len(bits))
			continue
		}
		// Geometry drifted (corrupt run-list metadata): persist a fresh
		// filter chunk and relink the run list afterwards.
		fl, err := newFilter(bm, s.Env.Arena.StreamPersisted)
		if err != nil {
			return err
		}
		// ptr 0: an image written while a rotation listed its run before
		// persisting the filter, and crashed in between.
		if r.ptr != 0 {
			s.Env.Arena.Free(r.ptr)
		}
		r.filter = fl
		relink = true
	}
	if relink {
		return s.swapRunList(s.runs)
	}
	return nil
}

// writeEntryChunk streams ent into an entry chunk marked persisted and returns
// the tagged pointer to it. The MemTable is durable, so the caller fences
// before any tree points at the chunk.
func (s *nvmStore) writeEntryChunk(ent lsm.Entry) (uint64, error) {
	p, err := lsm.StreamEntryChunk(s.Env.Arena, ent)
	if err != nil {
		return 0, err
	}
	if p&kindMask != 0 {
		s.Env.Arena.Free(p)
		return 0, fmt.Errorf("logeng: nvm-log: entry chunk %d is not 16-byte aligned", p)
	}
	return tagPtr(p, ent.Kind), nil
}

// undoEntry reverses the operation an undo entry logged and returns the entry
// chunk it made. The caller frees that chunk once the log no longer names it:
// until the truncation is durable a crash runs this undo again, and a chunk
// freed here could meanwhile be a node of the index rewrites below.
func (s *nvmStore) undoEntry(ent undolog.Entry) (pmalloc.Ptr, error) {
	if len(ent.Body) != bodySize {
		return 0, core.Corrupt(fmt.Errorf("logeng: nvm-log: undo entry body of %d bytes", len(ent.Body)))
	}
	oldPtr, newPtr := binary.LittleEndian.Uint64(ent.Body), binary.LittleEndian.Uint64(ent.Body[8:])
	tk := core.TreePrimary(ent.Table, ent.Key)
	var err error
	if oldPtr != 0 {
		err = s.mem.Put(tk, oldPtr)
	} else {
		_, err = s.mem.Delete(tk)
	}
	if err == nil {
		err = undolog.Fix(s.second[ent.Table], ent.Fixes, true)
	}
	return chunkOf(newPtr), err
}

// write merges the operation's entry into the mutable MemTable, logging undo
// info (Table 2: sync tuple, log pointer, add to MemTable).
func (s *nvmStore) write(tm *core.TableMeta, typ uint8, key, oldPtr uint64, ent lsm.Entry, fixes []core.SecFix) error {
	defer s.Bd.Timer(&s.Bd.Storage)()
	tk := core.TreePrimary(tm.ID, key)
	isNew := oldPtr == 0
	// A full image or a tombstone replaces whatever the MemTable held; only a
	// delta has to read it, to fold itself in.
	if !isNew && ent.Kind == lsm.KindDelta {
		old, err := readEntry(s.Env.Arena, oldPtr)
		if err != nil {
			return err
		}
		if ent, err = lsm.MergeR(tm.Schema, tk, ent, old, nil); err != nil {
			return err
		}
	}
	newPtr, err := s.writeEntryChunk(ent)
	if err != nil {
		return err
	}
	// The undo entry and the new chunk are durable at the MemTable put's first
	// fence, before anything names them: an append publishes its leaf entry
	// with the count behind a fence of the entries (nvbtree appendEntries),
	// and a rewrite swaps in its nodes behind its journal's fence.
	var body [bodySize]byte
	binary.LittleEndian.PutUint64(body[:], oldPtr)
	binary.LittleEndian.PutUint64(body[8:], newPtr)
	if err := s.log.Append(undolog.Entry{Type: typ, Table: tm.ID, Key: key, Fixes: fixes, Body: body[:]}); err != nil {
		s.Env.Arena.Free(chunkOf(newPtr))
		return err
	}
	// Record the op before touching the trees so Abort can undo a partially
	// applied operation from the undo entry.
	s.ops = append(s.ops, txnOp{oldPtr: oldPtr})
	if err := s.mem.Put(tk, newPtr); err != nil {
		return err
	}
	if isNew {
		s.memCount++
		s.ops[len(s.ops)-1].added = true
	}
	return undolog.Fix(s.second[tm.ID], fixes, false)
}

// stageLazy stages nothing: the engine publishes at commit, so a write that
// Capture said needs no pre-image has none to keep.
func (s *nvmStore) stageLazy(string, uint64, uint64) {}

func (s *nvmStore) begin() { s.ops = s.ops[:0] }

// commit durably marks the transaction committed: truncating the undo log is
// the atomic commit point (§4.3), and frees the chunks it superseded.
func (s *nvmStore) commit() (bool, error) {
	s.log.Truncate(func(i int) {
		if old := chunkOf(s.ops[i].oldPtr); old != 0 && s.Env.Arena.StateOf(old) != pmalloc.StateFree {
			s.Env.Arena.Free(old)
		}
	})
	return true, nil
}

// abort undoes the transaction via its WAL entries and truncates the log.
func (s *nvmStore) abort() error {
	made := make([]pmalloc.Ptr, len(s.ops))
	if err := s.log.Undo(func(i int, ent undolog.Entry) (err error) {
		made[i], err = s.undoEntry(ent)
		return err
	}); err != nil {
		return err
	}
	s.log.Truncate(func(i int) {
		if s.ops[i].added {
			s.memCount-- // undo deleted the key again
		}
		if c := made[i]; c != 0 && s.Env.Arena.StateOf(c) != pmalloc.StateFree {
			s.Env.Arena.Free(c)
		}
	})
	return nil
}

// maintain rotates a full MemTable. A failure is surfaced to the caller, but
// the transaction is durable; a later commit retries.
func (s *nvmStore) maintain() error {
	if s.memCount < s.opts.MemTableCap {
		return nil
	}
	return s.rotate()
}

// flushGroup has nothing to do: every commit is immediately durable.
func (s *nvmStore) flushGroup() error { return nil }

func (s *nvmStore) footprint() core.Footprint { return core.ArenaFootprint(s.Env.Arena) }

// walStats: the undo log has no group commit or fsync to count.
func (s *nvmStore) walStats() core.WalStats { return core.WalStats{} }

// vlogStats: the engine has no value log, so those fields stay zero.
func (s *nvmStore) vlogStats(*core.FlushStats) {}

func (s *nvmStore) mems(active bool) (ts [2]core.IndexTree) {
	if active {
		ts[0] = s.mem
	}
	return ts
}

// kind reads the kind the pointer carries: no load.
func (s *nvmStore) kind(v uint64) (uint8, error) { return tagKind(v), nil }

func (s *nvmStore) entry(v uint64) (lsm.Entry, error) { return readEntry(s.Env.Arena, v) }

func (s *nvmStore) eachRun(fn func(r run) (stop bool, err error)) error {
	for _, r := range s.runs {
		if stop, err := fn(r); stop || err != nil {
			return err
		}
	}
	return nil
}

// resolve refuses a separated image: the engine has no value log.
func (s *nvmStore) resolve(key uint64, ent lsm.Entry) (lsm.Entry, error) {
	return lsm.Entry{}, core.Corrupt(fmt.Errorf("logeng: nvm-log: key %d: separated image with no value log", key))
}

// rotate seals the full MemTable into the run list and starts a fresh one
// (the prepare stage, seal), then applies the merge rule in its release stage
// (compact). The NVM engine never flushes the MemTable anywhere (§4.3 — it is
// already durable), so a rotation has nothing to build or install.
func (s *nvmStore) rotate() error {
	start := time.Now()
	err := s.seal()
	s.fstats.PrepareNs += time.Since(start).Nanoseconds()
	if err != nil {
		return err
	}
	return lsm.RunStages(&s.fstats, "flush", nil, nil, func() error {
		s.fstats.Flushes++
		return s.compact()
	})
}

// seal is the prepare stage of a rotation: the mutable MemTable becomes the
// newest run, listed with its Bloom filter by one run-list swap (storeRun
// streams the filter; the swap's fence makes it durable before the anchor
// names it), and a fresh MemTable starts.
func (s *nvmStore) seal() error {
	stop := s.Bd.Timer(&s.Bd.Storage)
	defer stop()
	var keys []uint64
	s.mem.Iter(0, func(k, v uint64) bool { keys = append(keys, k); return true })
	newRun, err := s.storeRun(s.mem, len(keys), bloom.Build(len(keys), keys))
	if err != nil {
		return err
	}
	if err := s.swapRunList(append([]*nvmRun{newRun}, s.runs...)); err != nil {
		s.Env.Arena.Free(newRun.ptr)
		return err
	}
	// Start the fresh mutable MemTable (recovery completes this step if a
	// crash lands between the two swaps).
	fresh, err := nvbtree.Create(s.Env.Arena, s.opts.BTreeNodeSize)
	if err != nil {
		return err
	}
	s.mem = fresh
	s.Env.Dev.WriteU64Durable(int64(s.hdr)+hMutable, s.mem.Header())
	s.memCount = 0
	return nil
}

// storeRun streams a run's Bloom filter into an index chunk marked persisted,
// durable at the fence swapRunList issues before it publishes the run.
func (s *nvmStore) storeRun(tree *nvbtree.Tree, keys int, fl *bloom.Filter) (*nvmRun, error) {
	f, err := newFilter(fl.Marshal(), s.Env.Arena.StreamPersisted)
	if err != nil {
		return nil, err
	}
	return &nvmRun{filter: f, tree: tree, a: s.Env.Arena, keys: keys}, nil
}

// swapRunList atomically installs a new immutable-run list. Its fence is the
// one that makes the list, and whatever the caller streamed for the runs it
// names — Bloom filters, a compaction's entry chunks — durable before the
// anchor swings to them.
func (s *nvmStore) swapRunList(runs []*nvmRun) error {
	d := s.Env.Dev
	old := d.ReadU64(int64(s.hdr) + hRunList)
	var list pmalloc.Ptr
	if len(runs) > 0 {
		img := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+runEntSize*len(runs)), uint64(len(runs)))
		for _, r := range runs {
			img = binary.LittleEndian.AppendUint64(img, r.tree.Header())
			img = binary.LittleEndian.AppendUint64(img, r.ptr)
			img = binary.LittleEndian.AppendUint64(img, r.words<<8|uint64(r.k))
		}
		var err error
		if list, err = s.Env.Arena.StreamPersisted(pmalloc.TagOther, img); err != nil {
			return err
		}
	}
	d.Fence()
	d.WriteU64Durable(int64(s.hdr)+hRunList, uint64(list))
	if old != 0 {
		s.Env.Arena.Free(old)
	}
	s.runs = runs
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
// (nvbtree.Build) once every entry is known; a bottom set whose every key's
// newest entry is a tombstone leaves no run at all.
func (s *nvmStore) compact() error {
	sizes := make([]int, len(s.runs))
	for i, r := range s.runs {
		sizes[i] = r.keys
	}
	n := lsm.MergeSet(sizes, s.opts.LSMGrowth)
	if n < 2 {
		return nil
	}
	victims, bottom := s.runs[:n], n == len(s.runs) // newest first
	var newRun *nvmRun
	var dead []pmalloc.Ptr // the victims' entry chunks the merged run did not adopt
	fail := func(err error) error {
		s.fstats.Failures++
		return err
	}

	return lsm.RunStages(&s.fstats, "compact",
		func() error {
			stop := s.Bd.Timer(&s.Bd.Storage)
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
			kept := make([]uint64, 0, len(order))
			for _, k := range order {
				chunks := holders[k]
				v := chunks[0]
				switch {
				case tagKind(v) == lsm.KindTomb && bottom:
					// Nothing older remains below: reclaim space during
					// compaction (Table 2).
					for _, c := range chunks {
						dead = append(dead, chunkOf(c))
					}
					continue
				case tagKind(v) == lsm.KindDelta && len(chunks) > 1:
					acc, err := readEntry(s.Env.Arena, v)
					for _, c := range chunks[1:] {
						if err != nil || acc.Kind != lsm.KindDelta {
							break
						}
						var older lsm.Entry
						if older, err = readEntry(s.Env.Arena, c); err == nil {
							acc, err = lsm.MergeR(s.Tables[core.TreeTable(k)].Schema, k, acc, older, nil)
						}
					}
					if err != nil {
						return fail(err)
					}
					cp, err := s.writeEntryChunk(acc)
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
				kept = append(kept, k)
			}
			if len(kvs) == 0 {
				return nil // the set cancelled out: no run takes its place
			}
			merged, err := nvbtree.Build(s.Env.Arena, s.opts.BTreeNodeSize, kvs)
			if err != nil {
				return fail(err)
			}
			// The filter is sized for the kept keys, as the recovery sweep's
			// rebuild (verifyBlooms) sizes it.
			if newRun, err = s.storeRun(merged, len(kvs), bloom.Build(len(kept), kept)); err != nil {
				return fail(err)
			}
			return nil
		},
		func() error {
			runs := s.runs[n:]
			if newRun != nil {
				runs = append([]*nvmRun{newRun}, runs...)
			}
			if err := s.swapRunList(runs); err != nil {
				return fail(err)
			}
			return nil
		},
		func() error {
			// Release the merged-away runs: the entry chunks the merged run did
			// not adopt, the trees, the blooms.
			for _, c := range dead {
				if s.Env.Arena.StateOf(c) != pmalloc.StateFree {
					s.Env.Arena.Free(c)
				}
			}
			for _, r := range victims {
				r.tree.Release()
				if r.ptr != 0 {
					s.Env.Arena.Free(r.ptr)
				}
			}
			s.compactions++
			s.fstats.Compactions++
			return nil
		})
}
