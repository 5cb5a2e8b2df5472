package logeng

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/engine/lsm"
	"nstore/internal/engine/undolog"
	"nstore/internal/nvm"
)

func TestRotationAndCompaction(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 512 << 20})
	e, err := NewNVM(env, simpleSchema(), core.Options{MemTableCap: 50, LSMGrowth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 600; i++ {
		e.Begin()
		if err := e.Insert("t", uint64(i), row(i)); err != nil {
			t.Fatal(err)
		}
		e.Commit()
	}
	if e.Compactions() == 0 {
		t.Error("no compactions after 12 rotations")
	}
	if len(e.nvm().runs) >= 600/50 {
		t.Errorf("%d immutable runs; compaction not bounding the tree", len(e.nvm().runs))
	}
	for i := int64(1); i <= 600; i++ {
		r, ok, err := e.Get("t", uint64(i))
		if err != nil || !ok || r[1].I != i*2 {
			t.Fatalf("Get(%d) = %v,%v,%v", i, r, ok, err)
		}
	}
}

func TestImmediateDurabilityAcrossRotation(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 512 << 20})
	opts := core.Options{MemTableCap: 40, LSMGrowth: 3}
	e, _ := NewNVM(env, simpleSchema(), opts)
	for i := int64(1); i <= 300; i++ {
		e.Begin()
		e.Insert("t", uint64(i), row(i))
		e.Commit()
	}
	// Crash with no Flush: everything committed must survive — the
	// MemTables are already durable, nothing needs rebuilding.
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := OpenNVM(env2, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 300; i++ {
		r, ok, _ := e2.Get("t", uint64(i))
		if !ok || r[1].I != i*2 {
			t.Fatalf("key %d wrong after crash (ok=%v)", i, ok)
		}
	}
	// Deltas written before the crash coalesce correctly afterwards.
	e2.Begin()
	e2.Update("t", 5, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(999)}})
	e2.Commit()
	r, _, _ := e2.Get("t", 5)
	if r[1].I != 999 || string(r[2].S) != "payload" {
		t.Fatalf("post-recovery update wrong: %v", r)
	}
}

func TestTombstonesReclaimedDuringCompaction(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 512 << 20})
	e, _ := NewNVM(env, simpleSchema(), core.Options{MemTableCap: 50, LSMGrowth: 2})
	for i := int64(1); i <= 100; i++ {
		e.Begin()
		e.Insert("t", uint64(i), row(i))
		e.Commit()
	}
	for i := int64(1); i <= 100; i++ {
		e.Begin()
		e.Delete("t", uint64(i))
		e.Commit()
	}
	// Force enough churn that everything reaches a compaction.
	for i := int64(1000); i <= 1200; i++ {
		e.Begin()
		e.Insert("t", uint64(i), row(i))
		e.Commit()
	}
	for i := int64(1); i <= 100; i++ {
		if _, ok, _ := e.Get("t", uint64(i)); ok {
			t.Fatalf("deleted key %d visible", i)
		}
	}
	total := 0
	for _, r := range e.nvm().runs {
		total += r.tree.Count()
	}
	// After compactions the runs should not hold ~200 entries of dead keys.
	if total > 350 {
		t.Errorf("runs hold %d entries; tombstoned pairs not reclaimed", total)
	}
}

// TestAbortCostIgnoresMemTableSize: rolling back a one-insert transaction
// undoes that insert and no more. Abort used to recount the MemTable by
// iterating every node, so its device loads grew with the MemTable.
func TestAbortCostIgnoresMemTableSize(t *testing.T) {
	abortLoads := func(entries int) uint64 {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 16 << 20})
		e, err := NewNVM(env, simpleSchema(), core.Options{MemTableCap: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= int64(entries); i++ {
			if err := e.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert("t", uint64(i), row(i)); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Only what the aborted transaction touches itself is cached. Its key
		// sorts first: sequential inserts leave the leftmost leaf half empty,
		// so the undo's tombstone fits without a node rewrite at either size.
		env.Dev.EvictAll()
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert("t", 0, row(0)); err != nil {
			t.Fatal(err)
		}
		before := env.Dev.Stats().Loads
		if err := e.Abort(); err != nil {
			t.Fatal(err)
		}
		loads := env.Dev.Stats().Loads - before
		if e.nvm().memCount != entries {
			t.Errorf("%d entries: the MemTable counts %d after the abort", entries, e.nvm().memCount)
		}
		return loads
	}
	if small, large := abortLoads(8), abortLoads(500); small != large {
		t.Errorf("an aborted insert loads %d lines beside 8 MemTable entries and %d beside 500", small, large)
	}
}

func TestWALTruncatedAtCommit(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	e, _ := NewNVM(env, simpleSchema(), core.Options{})
	e.Begin()
	e.Insert("t", 1, row(1))
	if e.Footprint().Log == 0 {
		t.Error("no WAL footprint during transaction")
	}
	e.Commit()
	if got := e.Footprint().Log; got != 0 {
		t.Errorf("WAL not truncated at commit: %d bytes", got)
	}
}

// TestFenceWindows: every fence of a one-transaction schedule, every outcome
// of the lines behind it that the walk tries.
func TestFenceWindows(t *testing.T) {
	enginetest.RunFenceWindows(t, nvmFactory())
}

// TestFenceWindowsCatchDroppedFence: an update whose WAL entry takes back the
// chunk the previous commit's entry left (pmalloc.Arena.FreeStreamed) ends
// MemTable leaf entry, MemTable count, commit — three fences; the WAL entry
// has none of its own, the leaf's drains it too. Without the leaf's fence the
// count can publish an entry that never reached the medium.
func TestFenceWindowsCatchDroppedFence(t *testing.T) {
	enginetest.RunFenceWindowsCatchesDroppedFence(t, nvmFactory(), "over-freed-entry", 3)
}

// TestDropEachFence: the walk with each fence of a schedule's transaction
// deleted in turn, every schedule (the first alone under -short); it logs
// which crash state caught each loss, and must catch the commit line's.
func TestDropEachFence(t *testing.T) {
	enginetest.RunDropEachFence(t, nvmFactory())
}

// TestUpdateCostFlatInDatabaseSize: the steady-state cost of an update does
// not grow with the database. Merging the oldest run at every rotation made a
// rotation re-read and rebuild the whole database, so the per-update stall of
// the steady budget schedule doubled from 3 000 to 24 000 tuples (4.92 to
// 9.77 us); under the size-ratio rule a run is merged again only once the runs
// above it have gathered a k-th of its keys.
func TestUpdateCostFlatInDatabaseSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 27 000 tuples and runs 36 000 updates")
	}
	stall := func(tuples int) float64 {
		s := enginetest.SteadyBudget(tuples)
		st, err := enginetest.DeviceCost(nvmFactory(), s)
		if err != nil {
			t.Fatal(err)
		}
		per := func(n uint64) float64 { return float64(n) / float64(s.Txns) }
		us := float64(st.Stall.Nanoseconds()) / 1e3 / float64(s.Txns)
		t.Logf("%d tuples, per update: loads %.1f stores %.1f flushes %.1f fences %.2f, stall %.2f us",
			tuples, per(st.Loads), per(st.Stores), per(st.Flushes), per(st.Fences), us)
		return us
	}
	small, large := stall(3000), stall(24000)
	if small > 4.92 || large > 9.77 {
		t.Errorf("stall per update %.3f us at 3 000 tuples and %.3f at 24 000, above what merging the oldest run at every rotation cost (4.92 and 9.77)", small, large)
	}
	if large > 1.3*small {
		t.Errorf("stall per update grows %.2fx from 3 000 to 24 000 tuples (%.2f -> %.2f us), want at most 1.3x", large/small, small, large)
	}
}

// TestConformanceCatchesMissingFence: a streamed page, tuple, entry chunk or
// built node waits in the memory controller's buffer for the fence, so the
// conformance battery must fail the engine when the fence is removed. Under
// the reorder family a fence-less image can keep an undo-list head whose tree
// header never arrived; the undo's descent from node 0 is bounded
// (nvbtree.ErrCorrupt), so Open reports the image corrupt instead of spinning.
func TestConformanceCatchesMissingFence(t *testing.T) {
	enginetest.RunConformanceCatchesMissingFence(t, nvmFactory(), enginetest.BaseSeed())
}

// TestArenaExhaustion: a failed allocation aborts one transaction and leaves
// the table as it was.
func TestArenaExhaustion(t *testing.T) {
	enginetest.RunArenaExhaustion(t, nvmFactory())
}

// TestOpenRejectsValueLogDirectory: a device image is outside input. The
// engine has no value log, so an image whose reserved directory slot is set
// may hold entry chunks that are value-log pointers; Open must refuse it with
// a typed corrupt error rather than read them as rows.
func TestOpenRejectsValueLogDirectory(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	opts := core.Options{MemTableCap: 8, LSMGrowth: 3}
	e, err := NewNVM(env, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		e.Begin()
		if err := e.Insert("t", uint64(i), row(i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	env.Dev.WriteU64Durable(int64(e.nvm().hdr)+hVlogDir, e.nvm().mem.Header())
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenNVM(env2, simpleSchema(), opts); !core.IsCorrupt(err) {
		t.Fatalf("Open on an image with a value-log directory: %v, want a corrupt error", err)
	}
}

// TestUpdateTouchesOnlyItsLines: a cold one-column update of a tuple in an
// immutable run decides existence from tree nodes and Bloom words, writes its
// delta and reads no image of the tuple, however many or wide its columns:
// 11 lines (12 while the commit wrote the epoch through the cache and filled
// its line, 19 while a leaf lookup read every entry of the leaf). It streams
// the delta's entry chunk, the WAL entry and the commit line, each on lines
// of its own, so its two CLWBs are the MemTable leaf's entry and count
// (three while the epoch shared a line of the header and was written back,
// four while the WAL head was written back to link the entry too); a
// read-only transaction writes nothing at all.
func TestUpdateTouchesOnlyItsLines(t *testing.T) {
	enginetest.RunUpdateTouchesOnlyItsLines(t, nvmFactory(), 11, 2, 2, 2)
}

// TestCommitLineOwnsItsLine: the undo log's commit line starts a cache line
// of the engine header, and no other header word lies in it — on the medium,
// after commits and the rotations and merges they cause, which write the
// MemTable and run-list words, it holds the epoch and zeros, and the words
// around it name the engine's trees.
func TestCommitLineOwnsItsLine(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	e, err := NewNVM(env, simpleSchema(), core.Options{MemTableCap: 8, LSMGrowth: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := e.nvm()
	line := int64(s.hdr) + hCommit
	if line%nvm.LineSize != 0 || hNTables+8 > hCommit || hAnchors < hCommit+nvm.LineSize {
		t.Fatalf("the commit line at header offset %d (device %d) is not a line of its own", hCommit, line)
	}
	const txns = 40
	for i := int64(1); i <= txns; i++ {
		e.Begin()
		if err := e.Insert("t", uint64(i), row(i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.runs) == 0 {
		t.Fatal("no rotation: the test checks nothing beside the commits")
	}
	want := binary.LittleEndian.AppendUint64(nil, 1+txns) // Format's epoch 1, then a commit each
	if !env.Dev.DurableEqual(line, append(want, make([]byte, nvm.LineSize-8)...)) {
		t.Error("the commit line is not the epoch and zeros on the medium")
	}
	d := env.Dev
	if d.ReadU64(int64(s.hdr)+hMutable) != s.mem.Header() || d.ReadU64(int64(s.hdr)+hRunList) == 0 || d.ReadU64(int64(s.hdr)+hNTables) != uint64(len(s.Tables)) {
		t.Error("the header words beside the commit line do not name the engine's trees")
	}
}

// TestOpenRejectsUntaggedImage: an image of an earlier format is refused by
// Open with a typed corrupt error: one written before the kind rode in the
// entry pointers (NVMLOG12) holds bare pointers, which read as tagged ones
// would give every entry kind 0; one written before self-validating undo
// entries (NVMLOG14) holds a pointer where the epoch word was; and one
// written before the commit line (NVMLOG15) has its MemTable, run list and
// table count where they are no more.
func TestOpenRejectsUntaggedImage(t *testing.T) {
	for _, magic := range []uint64{0x4e564d4c4f473132, 0x4e564d4c4f473134, 0x4e564d4c4f473135} {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
		opts := core.Options{MemTableCap: 8, LSMGrowth: 3}
		e, err := NewNVM(env, simpleSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 20; i++ {
			e.Begin()
			if err := e.Insert("t", uint64(i), row(i)); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		env.Dev.WriteU64Durable(int64(e.nvm().hdr)+hMagic, magic)
		env.Dev.Crash()
		env2, err := env.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenNVM(env2, simpleSchema(), opts); !core.IsCorrupt(err) {
			t.Fatalf("Open on a %#x image: %v, want a corrupt error", magic, err)
		}
	}
}

// TestEntryReadsCheckTheImage: a MemTable leaf names its entry chunk, and the
// chunk's length word sizes the read, both from the medium. A pointer outside
// the arena, or a length past its used extent — what an image written with a
// fence missing can hold — is a corrupt error from Get, ScanRange and an
// update's merge with the entry it supersedes, never a panic in the device.
func TestEntryReadsCheckTheImage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(e *Engine, v uint64) uint64
	}{
		{"pointer", func(*Engine, uint64) uint64 { return tagPtr(0x3030303030303030&^kindMask, lsm.KindFull) }},
		{"length", func(e *Engine, v uint64) uint64 {
			e.Env.Dev.WriteU32(int64(chunkOf(v))+1, 1<<31-1)
			return v
		}},
	} {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20})
		e, err := NewNVM(env, simpleSchema(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(1); k <= 3; k++ {
			e.Begin()
			if err := e.Insert("t", uint64(k), row(k)); err != nil {
				t.Fatal(err)
			}
			e.Commit()
		}
		tk := core.TreePrimary(0, 2)
		v, ok := e.nvm().mem.Get(tk)
		if !ok {
			t.Fatal("key 2 is not in the MemTable")
		}
		if err := e.nvm().mem.Put(tk, tc.plant(e, v)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Get("t", 2); !core.IsCorrupt(err) {
			t.Errorf("%s: Get = %v, want a corrupt error", tc.name, err)
		}
		if err := e.ScanRange("t", 0, 10, func(uint64, []core.Value) bool { return true }); !core.IsCorrupt(err) {
			t.Errorf("%s: ScanRange = %v, want a corrupt error", tc.name, err)
		}
		e.Begin()
		if err := e.Update("t", 2, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(9)}}); !core.IsCorrupt(err) {
			t.Errorf("%s: an update's merge = %v, want a corrupt error", tc.name, err)
		}
		e.Abort()
	}
}

// TestOpenRefusesCorruptUndoEntry: an undo entry of the open epoch that
// proves itself — its CRC holds — yet names a table the schemas do not have
// is refused by Open with a corrupt error. Read unchecked, its undo deleted a
// MemTable key in table 200's key space and Open succeeded.
func TestOpenRefusesCorruptUndoEntry(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20})
	e, err := NewNVM(env, simpleSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Begin()
	if err := e.Insert("t", 1, row(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.nvm().log.Append(undolog.Entry{Type: core.WalInsert, Table: 200, Key: 1, Body: make([]byte, bodySize)}); err != nil {
		t.Fatal(err)
	}
	env.Dev.Fence()
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenNVM(env2, simpleSchema(), core.Options{}); !core.IsCorrupt(err) {
		t.Fatalf("Open over an undo entry of table 200: %v, want a corrupt error", err)
	}
}

// TestMergeFilterSizedByKeptKeys: a bottom merge that drops tombstones sizes
// the merged run's Bloom filter by the keys it keeps, as the recovery sweep
// rebuilds it, so the open after the merge finds the filter intact: it keeps
// the run list and the filter where they are and writes neither.
func TestMergeFilterSizedByKeptKeys(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	opts := core.Options{MemTableCap: 50, LSMGrowth: 2}
	e, err := NewNVM(env, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(op func() error) {
		t.Helper()
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// One run of 50 inserts; then 25 of them deleted and 25 new keys, whose
	// rotation merges both runs at the bottom and drops the 25 tombstones.
	for i := int64(1); i <= 50; i++ {
		commit(func() error { return e.Insert("t", uint64(i), row(i)) })
	}
	for i := int64(1); i <= 25; i++ {
		commit(func() error { return e.Delete("t", uint64(i)) })
		commit(func() error { return e.Insert("t", uint64(100+i), row(100+i)) })
	}
	s := e.nvm()
	if e.Compactions() != 1 || len(s.runs) != 1 || s.runs[0].keys != 50 {
		t.Fatalf("%d compactions left %d runs (first of %d keys), want one merge to one run of the 50 kept keys",
			e.Compactions(), len(s.runs), s.runs[0].keys)
	}
	list, fl := env.Dev.ReadU64(int64(s.hdr)+hRunList), s.runs[0].filter
	bits := make([]byte, fl.words*8)
	env.Dev.Read(int64(fl.ptr), bits)

	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := OpenNVM(env2, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e2.nvm()
	if got := env2.Dev.ReadU64(int64(s2.hdr) + hRunList); got != list || len(s2.runs) != 1 || s2.runs[0].filter != fl {
		t.Fatalf("the open after the merge relinked: run list %d → %d, filter %+v → %+v", list, got, fl, s2.runs[0].filter)
	}
	after := make([]byte, fl.words*8)
	env2.Dev.Read(int64(fl.ptr), after)
	if !bytes.Equal(after, bits) {
		t.Fatal("the open after the merge rewrote the merged run's filter")
	}
	for i := int64(1); i <= 125; i++ {
		if _, ok, err := e2.Get("t", uint64(i)); err != nil || ok != (i > 25 && i <= 50 || i > 100) {
			t.Fatalf("Get(%d) after the open = %v, %v", i, ok, err)
		}
	}
}

// TestNoEmptyRunWhenMergeCancels: on TestTombstonesReclaimedDuringCompaction's
// schedule a bottom merge meets a set whose every key's newest entry is a
// tombstone; it lists no run in the set's place, so no listed run is ever
// empty, and the engine reopens to the same keys.
func TestNoEmptyRunWhenMergeCancels(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	opts := core.Options{MemTableCap: 50, LSMGrowth: 2}
	e, err := NewNVM(env, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	emptied := false
	step := func(op func() error) {
		t.Helper()
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		for i, r := range e.nvm().runs {
			if r.keys == 0 || r.tree.Count() == 0 {
				t.Fatalf("after %d compactions run %d of %d is empty", e.Compactions(), i, len(e.nvm().runs))
			}
		}
		emptied = emptied || len(e.nvm().runs) == 0 && e.Compactions() > 0
	}
	for i := int64(1); i <= 100; i++ {
		step(func() error { return e.Insert("t", uint64(i), row(i)) })
	}
	for i := int64(1); i <= 100; i++ {
		step(func() error { return e.Delete("t", uint64(i)) })
	}
	if !emptied {
		t.Fatal("no merge cancelled out: the schedule tests nothing")
	}
	for i := int64(1000); i <= 1200; i++ {
		step(func() error { return e.Insert("t", uint64(i), row(i)) })
	}

	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := OpenNVM(env2, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e2.nvm().runs {
		if r.keys == 0 {
			t.Fatal("a listed run is empty after the reopen")
		}
	}
	for _, i := range []int64{1, 50, 100, 1000, 1100, 1200} {
		if _, ok, err := e2.Get("t", uint64(i)); err != nil || ok != (i >= 1000) {
			t.Fatalf("Get(%d) after the reopen = %v, %v", i, ok, err)
		}
	}
}
