package nvmlog

import (
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/engine/lsm"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "nvm-log",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			opts.MemTableCap = 64 // force rotations and compactions
			opts.LSMGrowth = 3
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			opts.MemTableCap = 64
			opts.LSMGrowth = 3
			return Open(env, schemas, opts)
		},
	})
}

func simpleSchema() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TString, Size: 100},
		},
	}}
}

func row(i int64) []core.Value {
	return []core.Value{core.IntVal(i), core.IntVal(i * 2), core.StrVal("payload")}
}

func TestRotationAndCompaction(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 512 << 20})
	e, err := New(env, simpleSchema(), core.Options{MemTableCap: 50, LSMGrowth: 3})
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
	if e.Runs() >= 600/50 {
		t.Errorf("%d immutable runs; compaction not bounding the tree", e.Runs())
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
	e, _ := New(env, simpleSchema(), opts)
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
	e2, err := Open(env2, simpleSchema(), opts)
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
	e, _ := New(env, simpleSchema(), core.Options{MemTableCap: 50, LSMGrowth: 2})
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
	for _, r := range e.runs {
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
		e, err := New(env, simpleSchema(), core.Options{MemTableCap: 1024})
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
		if e.memCount != entries {
			t.Errorf("%d entries: the MemTable counts %d after the abort", entries, e.memCount)
		}
		return loads
	}
	if small, large := abortLoads(8), abortLoads(500); small != large {
		t.Errorf("an aborted insert loads %d lines beside 8 MemTable entries and %d beside 500", small, large)
	}
}

func TestWALTruncatedAtCommit(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	e, _ := New(env, simpleSchema(), core.Options{})
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

func confFactory() enginetest.Factory {
	return enginetest.Factory{
		Name: "nvm-log",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return Open(env, schemas, opts)
		},
		Leaks: func(e core.Engine) error { return checkArenaMatchesReach(e.(*Engine)) },
	}
}

// TestFenceWindows: every fence of a one-transaction schedule, every outcome
// of the lines behind it that the walk tries.
func TestFenceWindows(t *testing.T) {
	enginetest.RunFenceWindows(t, confFactory())
}

// TestFenceWindowsCatchDroppedFence: an insert ends entry chunk, record,
// head, the MemTable's four fences, commit; without the record's fence the
// head can link a WAL entry that never reached the medium. The insert's WAL
// entry takes back the chunk the previous commit's entry left
// (pmalloc.Arena.FreeStreamed), so no allocation fences it first. (On
// update-string both the entry chunk and the WAL entry are carved from fresh
// memory, and the allocator fences each before the heap end moves over it, so
// the walk rightly finds nothing wrong without the record's fence there; nor
// without the head's, since the MemTable append fences once more before it
// publishes.)
func TestFenceWindowsCatchDroppedFence(t *testing.T) {
	enginetest.RunFenceWindowsCatchesDroppedFence(t, confFactory(), "insert-ten-strings", 7)
}

func TestRecoveryConformance(t *testing.T) {
	enginetest.RunRecoveryConformance(t, confFactory())
}

func TestConcurrentRecoveryConformance(t *testing.T) {
	enginetest.RunConcurrentRecoveryConformance(t, confFactory())
}

func TestSnapshotConformance(t *testing.T) {
	enginetest.RunSnapshotConformance(t, confFactory())
}

func TestCrossShardConformance(t *testing.T) {
	enginetest.RunCrossShardConformance(t, confFactory())
}

// TestColReader: core.GetCols, served by projecting Get, answers like the
// engines that read columns natively.
func TestColReader(t *testing.T) {
	enginetest.RunColReader(t, confFactory(), false)
}

// TestDeviceBudget pins the write path's cost per update in device counters
// on the steady budget schedule (6 000 updates after the load, then 12 000
// measured): loads / stores / flushes / fences 20.5 / 25.2 / 5.4 / 5.35, 3.71
// us of stall, the ceilings a tenth above. Its entry chunks and WAL entries
// are streamed on lines of their own; it was 24.4 / 27.2 / 10.9 / 5.34, 4.56
// us while a chunk shared its first and last lines with its neighbours (24.5 /
// 27.0 / 10.8 / 5.34 while a rotation listed its run before persisting the
// Bloom filter and swapped the run list again to name it), and 26.5 / 28.8 /
// 11.5 / 5.34, 4.92 us while it merged the two oldest runs at every rotation.
// The first 2 000 updates after the load
// measure the engine before its merges reach the oldest run: 10.6 / 19.4 /
// 12.5 / 7.57 under that rule, which is what this test pinned until the merge
// rule changed. (Those figures were 10.6 / 20.3 / 13.6 / 11.16 while the entry
// chunk and the WAL entry were each fenced and then marked persisted behind a
// second fence; 46.1 loads while Update coalesced the tuple and compaction
// read every adopted chunk, and 16.7 with 20.3 flushes while entry chunks and
// built nodes were written through the cache.)
func TestDeviceBudget(t *testing.T) {
	enginetest.RunDeviceBudget(t, confFactory(), enginetest.SteadyBudget(3000),
		enginetest.DeviceBudget{Loads: 22.6, Stores: 27.7, Flushes: 6, Fences: 5.9, StallUS: 4.1})
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
		st, err := enginetest.DeviceCost(confFactory(), s)
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
	enginetest.RunConformanceCatchesMissingFence(t, confFactory(), enginetest.BaseSeed())
}

// TestArenaExhaustion: a failed allocation aborts one transaction and leaves
// the table as it was.
func TestArenaExhaustion(t *testing.T) {
	enginetest.RunArenaExhaustion(t, confFactory())
}

// TestOpenRejectsValueLogDirectory: a device image is outside input. The
// engine has no value log, so an image whose reserved directory slot is set
// may hold entry chunks that are value-log pointers; Open must refuse it with
// a typed corrupt error rather than read them as rows.
func TestOpenRejectsValueLogDirectory(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	opts := core.Options{MemTableCap: 8, LSMGrowth: 3}
	e, err := New(env, simpleSchema(), opts)
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
	env.Dev.WriteU64Durable(int64(e.hdr)+hVlogDir, e.mem.Header())
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(env2, simpleSchema(), opts); !core.IsCorrupt(err) {
		t.Fatalf("Open on an image with a value-log directory: %v, want a corrupt error", err)
	}
}

// TestUpdateTouchesOnlyItsLines: a cold one-column update of a tuple in an
// immutable run decides existence from tree nodes and Bloom words, writes its
// delta and reads no image of the tuple, however many or wide its columns:
// 19 lines. It streams the delta's entry chunk and the WAL entry, chunks on
// lines of their own, so its four CLWBs are the WAL head twice and the
// MemTable leaf's entry and count; a read-only transaction writes nothing at
// all.
func TestUpdateTouchesOnlyItsLines(t *testing.T) {
	enginetest.RunUpdateTouchesOnlyItsLines(t, confFactory(), 19, 4, 4, 4)
}

// TestOpenRejectsUntaggedImage: an image written before the kind rode in the
// entry pointers (NVMLOG12) holds bare pointers; read as tagged ones every
// entry would have kind 0. Open must refuse it with a typed corrupt error.
func TestOpenRejectsUntaggedImage(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	opts := core.Options{MemTableCap: 8, LSMGrowth: 3}
	e, err := New(env, simpleSchema(), opts)
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
	env.Dev.WriteU64Durable(int64(e.hdr)+hMagic, untaggedMagic)
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(env2, simpleSchema(), opts); !core.IsCorrupt(err) {
		t.Fatalf("Open on an NVMLOG12 image: %v, want a corrupt error", err)
	}
}

// TestFlushWorkersRefused: rotations and merges run inline only, so New and
// Open refuse any Options.FlushWorkers but 0, naming the field, instead of
// ignoring it.
func TestFlushWorkersRefused(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 16 << 20})
	if _, err := New(env, simpleSchema(), core.Options{FlushWorkers: 1}); err == nil || !strings.Contains(err.Error(), "FlushWorkers") {
		t.Fatalf("New with FlushWorkers 1: %v, want an error naming the field", err)
	}
	if _, err := New(env, simpleSchema(), core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(env, simpleSchema(), core.Options{FlushWorkers: 1}); err == nil || !strings.Contains(err.Error(), "FlushWorkers") {
		t.Fatalf("Open with FlushWorkers 1: %v, want an error naming the field", err)
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
		e, err := New(env, simpleSchema(), core.Options{})
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
		v, ok := e.mem.Get(tk)
		if !ok {
			t.Fatal("key 2 is not in the MemTable")
		}
		if err := e.mem.Put(tk, tc.plant(e, v)); err != nil {
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
