package cow

import (
	"encoding/binary"
	"fmt"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/pmalloc"
)

type ctor = func(*core.Env, []*core.Schema, core.Options) (*Engine, error)

func factory(name string, mk, open ctor, volatile bool) enginetest.Factory {
	return enginetest.Factory{
		Name: name,
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return mk(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return open(env, schemas, opts)
		},
		Volatile: volatile,
	}
}

// fileFactory is CoW, nvmFactory NVM-CoW: the one Engine over its two pagers
// and placements, under the names the testbed registers them by.
func fileFactory() enginetest.Factory { return factory("cow", New, Open, true) }
func nvmFactory() enginetest.Factory {
	f := factory("nvm-cow", NewNVM, OpenNVM, false)
	f.Leaks = leaks
	return f
}

// leaks reports a persisted chunk of an NVM-CoW arena that is neither the
// master block nor a page or tuple the committed or the dirty tree reaches.
func leaks(ce core.Engine) error {
	e := ce.(*Engine)
	reach := map[uint64]bool{e.Env.Arena.Root(0): true}
	e.tree.Reachable(func(id uint64) { reach[id] = true }, func(v []byte) {
		if len(v) == 8 {
			reach[binary.LittleEndian.Uint64(v)] = true
		}
	})
	var err error
	e.Env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
		if st == pmalloc.StatePersisted && !reach[p] && err == nil {
			err = fmt.Errorf("leaked chunk %d (%s, %d B): persisted and unreachable", p, pmalloc.TagNames[tag], size)
		}
	})
	return err
}

// TestFenceWindows: every fence of a one-transaction schedule on NVM-CoW — all
// of them inside Commit, where the group of one persists — and every outcome
// of the lines behind it that the walk tries.
func TestFenceWindows(t *testing.T) {
	enginetest.RunFenceWindows(t, nvmFactory())
}

// both runs a battery as the subtests "cow" and "nvm-cow".
func both(t *testing.T, run func(*testing.T, enginetest.Factory)) {
	for _, f := range []enginetest.Factory{fileFactory(), nvmFactory()} {
		t.Run(f.Name, func(t *testing.T) { run(t, f) })
	}
}

func TestConformance(t *testing.T) { both(t, enginetest.Run) }

func TestRecoveryConformance(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) { enginetest.RunRecoveryConformance(t, f) })
}

func TestConcurrentRecoveryConformance(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) { enginetest.RunConcurrentRecoveryConformance(t, f) })
}

func TestSnapshotConformance(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) { enginetest.RunSnapshotConformance(t, f) })
}

func TestCrossShardConformance(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) { enginetest.RunCrossShardConformance(t, f) })
}

// TestColReader: core.GetCols, served by projecting Get, answers like the
// engines that read columns natively.
func TestColReader(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) { enginetest.RunColReader(t, f, false) })
}

// TestDeviceBudget pins the write path's cost per transaction in device
// counters, about a tenth above what the fixed schedule costs today.
//
// cow: loads / stores / flushes / fences 53.0 / 53.4 / 0.10 / 0.13, 12.85 us
// of stall: the file pager reads and writes a page's image — header, slots or
// entries, and a leaf's value heap, padded to whole lines on a recycled slot —
// and an update clones the pages its Get read instead of reading them through
// the filesystem again. (102.0 / 102.0 / 0.10 / 0.13 and 25.3 us while every
// page moved whole, 4 KB a read and a write, and shadow read the path a second
// time; 102.8 stores while the file pager wrote a zeroed page to grow the
// file before writing the page itself; 196.3 / 102.3 / 102.9 / 0.13 and 44.5
// us while pmfs wrote a page
// through the cache: a recycled page written at Persist had left the 128 KB
// cache, so the write-allocate fetched all 64 of its lines to overwrite them
// and fsync flushed them one by one. A streamed page fetches and flushes
// nothing; the loads left are the tree's own reads.)
//
// nvm-cow: 21.9 / 22.0 / 0.08 / 0.16, 3.64 us of stall (two fences per batch
// of sixteen: its pages and tuples, each streamed with its persisted mark into
// a chunk sized to it, then the master record; and the allocator's own at the
// heap end). It was 21.8 / 24.6 / 4.3 / 0.22, 3.82 us while every page took a
// 4 KB chunk, written back its header apart and marked persisted behind a
// fence of its own; 37.4 / 39.8 / 4.4 and 6.40 us while the arena pager wrote a leaf of
// 8-byte tuple pointers as a u64 key and a u64 pointer per entry, and an inner
// page slotted; 46.4 / 48.7 / 4.3 and 7.89 us while it wrote every page
// slotted, slots and abandoned heap values included; 49.4 / 5.0 / 2.22 while
// every tuple was fenced and then marked persisted behind a second fence; and
// 92.7 / 73.9 / 73.1 while pages and tuples were written through the cache,
// whole, once per transaction.
func TestDeviceBudget(t *testing.T) {
	budgets := map[string]enginetest.DeviceBudget{
		"cow":     {Loads: 58.5, Stores: 58.5, Flushes: 0.12, Fences: 0.14, StallUS: 14.1},
		"nvm-cow": {Loads: 24, Stores: 24.2, Flushes: 0.09, Fences: 0.18},
	}
	both(t, func(t *testing.T, f enginetest.Factory) {
		enginetest.RunDeviceBudget(t, f, enginetest.Budget, budgets[f.Name])
	})
}

// TestFlushErrorClass: Flush classifies its persist error on both pagers. A
// failed fsync under the file pager flushed nothing and is retryable; the
// arena pager never crosses the filesystem, so the same fault does not reach
// it and the classification has nothing to tag.
func TestFlushErrorClass(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
		e, err := f.New(env, simpleSchema(), core.Options{GroupCommitSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		e.Begin()
		e.Insert("t", 1, []core.Value{core.IntVal(1), core.StrVal("x")})
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		env.FS.FailSyncs(0, 1)
		err = e.Flush()
		if f.Volatile && (!core.IsRetryable(err) || core.IsCorrupt(err)) {
			t.Fatalf("Flush over a failed fsync: %v, want a retryable error", err)
		}
		if !f.Volatile && err != nil {
			t.Fatalf("Flush on the arena pager: %v", err)
		}
		if err := e.Flush(); err != nil {
			t.Fatalf("Flush retried: %v", err)
		}
	})
}

// TestUnknownIndexNamesEngine: the error carries the name the engine was
// registered by, not the package's.
func TestUnknownIndexNamesEngine(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) {
		e, err := f.New(core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20}), simpleSchema(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = e.ScanSecondary("t", "nope", 0, func(uint64) bool { return true })
		if want := f.Name + `: unknown index "nope"`; err == nil || err.Error() != want {
			t.Fatalf("ScanSecondary on a missing index: %v, want %q", err, want)
		}
	})
}

func TestNoRecoveryProcess(t *testing.T) {
	// The CoW engine must come back without replaying anything: the master
	// record itself is the consistent state.
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	schemas := []*core.Schema{{
		Name:    "t",
		Columns: []core.Column{{Name: "id", Type: core.TInt}},
	}}
	e, err := New(env, schemas, core.Options{GroupCommitSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 100; i++ {
		e.Begin()
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i)})
		e.Commit()
	}
	e.Flush()
	// Uncommitted batch in the dirty directory.
	e.Begin()
	e.Insert("t", 101, []core.Value{core.IntVal(101)})
	env.Dev.EvictAll() // push dirty pages to NVM — they must still be invisible

	env.Dev.Crash()
	env2, err := env.ReopenVolatile()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(env2, schemas, core.Options{GroupCommitSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e2.Get("t", 101); ok {
		t.Error("dirty-directory change visible after crash")
	}
	for i := int64(1); i <= 100; i++ {
		if _, ok, _ := e2.Get("t", uint64(i)); !ok {
			t.Fatalf("committed key %d lost", i)
		}
	}
}

func TestWriteAmplification(t *testing.T) {
	// Updating one small field must still copy whole pages: bytes written
	// to the device should far exceed the logical update size (§3.2, §5.3).
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	schemas := []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "v", Type: core.TInt},
		},
	}}
	e, _ := New(env, schemas, core.Options{GroupCommitSize: 1})
	e.Begin()
	for i := int64(1); i <= 2000; i++ {
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.IntVal(0)})
	}
	e.Commit()
	e.Flush()

	before := env.Dev.Stats()
	for i := 0; i < 50; i++ {
		e.Begin()
		e.Update("t", uint64(i*40+1), core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(1)}})
		e.Commit()
	}
	e.Flush()
	d := env.Dev.Stats().Sub(before)
	logical := uint64(50 * 8)
	if d.BytesWritten < logical*50 {
		t.Errorf("write amplification too low: %d bytes written for %d logical", d.BytesWritten, logical)
	}
}

func simpleSchema() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "v", Type: core.TString, Size: 200},
		},
	}}
}

// TestSweepReclaimsLostDirtyDirectory: pages and tuple copies of an
// uncommitted batch must be reclaimed by the open-time sweep.
func TestSweepReclaimsLostDirtyDirectory(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	// A large group size keeps the second batch un-persisted until the crash.
	e, err := NewNVM(env, simpleSchema(), core.Options{GroupCommitSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 64; i++ {
		e.Begin()
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.BytesVal(make([]byte, 150))})
		e.Commit()
	}
	e.Flush()
	base := env.Arena.Allocated()

	// Build a dirty directory that will be lost, with everything evicted to
	// the medium so the orphaned chunks are really there after the crash.
	for i := int64(100); i <= 140; i++ {
		e.Begin()
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.BytesVal(make([]byte, 150))})
		e.Commit()
		if i == 139 {
			break
		}
	}
	env.Dev.EvictAll()
	env.Dev.Crash()

	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := OpenNVM(env2, simpleSchema(), core.Options{GroupCommitSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e2.Get("t", 120); ok {
		t.Error("unpersisted batch visible after crash")
	}
	// The sweep must bring usage back near the persisted baseline.
	if got := env2.Arena.Allocated(); got > base+base/4 {
		t.Errorf("allocated %d after sweep, baseline %d; dirty directory leaked", got, base)
	}
	// And the engine is fully usable.
	e2.Begin()
	if err := e2.Insert("t", 500, []core.Value{core.IntVal(500), core.StrVal("post-recovery")}); err != nil {
		t.Fatal(err)
	}
	e2.Commit()
	e2.Flush()
}

// TestOversizedCountFailsOpen: on both pagers, a root inner page whose count
// runs past the page's end makes Open fail as corrupt, instead of panicking in
// the walk or freeing the pages the unreadable root hides from it.
func TestOversizedCountFailsOpen(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
		ce, err := f.New(env, simpleSchema(), core.Options{GroupCommitSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		e := ce.(*Engine)
		for i := int64(1); e.tree.Depth() < 2; i++ {
			e.Begin()
			if err := e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.StrVal("x")}); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		root, reopen := int64(e.tree.Root()), env.Reopen
		if f.Volatile {
			file, err := env.FS.OpenFile("cow.db")
			if err != nil {
				t.Fatal(err)
			}
			file.WriteAt([]byte{0xff, 0xff}, e.tup.(inline).pg.PageOffset(uint64(root))+2) // the slotted page's count
			file.Sync()
			reopen = env.ReopenVolatile
		} else {
			env.Dev.Write(root+2, []byte{0xff, 0xff}) // the image's count
			env.Dev.Sync(root, 8)
		}
		env.Dev.Crash()
		env2, err := reopen()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Open(env2, simpleSchema(), core.Options{}); !core.IsCorrupt(err) {
			t.Fatalf("Open over a root whose count overruns its page: %v, want a corrupt error", err)
		}
	})
}

// TestMalformedLeafFailsOpen: a reachable leaf whose image claims more entries
// than its page holds makes OpenNVM fail as corrupt, and the sweep frees none
// of the tuples the unreadable leaf names.
func TestMalformedLeafFailsOpen(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	e, err := NewNVM(env, simpleSchema(), core.Options{GroupCommitSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		e.Begin()
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.StrVal("x")})
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if e.tree.Depth() != 1 {
		t.Fatalf("depth %d: the root is not the one leaf", e.tree.Depth())
	}
	var tuples []pmalloc.Ptr
	e.tree.Iter(0, func(_ uint64, v []byte) bool {
		tuples = append(tuples, binary.LittleEndian.Uint64(v))
		return true
	})
	leaf := int64(e.tree.Root())
	env.Dev.Write(leaf+2, []byte{0xff, 0xff}) // the entry count: 65535 tuple pointers
	env.Dev.Sync(leaf, 8)
	env.Dev.Crash()

	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenNVM(env2, simpleSchema(), core.Options{}); !core.IsCorrupt(err) {
		t.Fatalf("OpenNVM over a leaf whose count overruns its page: %v, want a corrupt error", err)
	}
	for _, p := range tuples {
		if st := env2.Arena.StateOf(p); st != pmalloc.StatePersisted {
			t.Fatalf("the failed open left tuple chunk %d %v", p, st)
		}
	}
}

// TestNoTupleCopyInDirectory: directory values are 8-byte pointers, so page
// churn per update is much lower than the CoW engine's inlined tuples.
func TestNoTupleCopyInDirectory(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	e, _ := NewNVM(env, simpleSchema(), core.Options{GroupCommitSize: 1})
	e.Begin()
	for i := int64(1); i <= 100; i++ {
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.BytesVal(make([]byte, 180))})
	}
	e.Commit()
	e.Flush()
	// One update: the logical write is one ~190-byte tuple copy plus one
	// page-path copy. With inlined tuples the leaf path alone would carry
	// every neighbouring tuple's bytes.
	before := env.Dev.Stats()
	e.Begin()
	e.Update("t", 50, core.Update{Cols: []int{1}, Vals: []core.Value{core.BytesVal(make([]byte, 180))}})
	e.Commit()
	e.Flush()
	d := env.Dev.Stats().Sub(before)
	if d.BytesWritten > 64<<10 {
		t.Errorf("one pointer update wrote %d bytes", d.BytesWritten)
	}
}

// TestTupleSpaceReclaimedAfterPersist: superseded tuple chunks are freed
// once the batch is durable, so steady-state updates do not grow the arena.
func TestTupleSpaceReclaimedAfterPersist(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	e, _ := NewNVM(env, simpleSchema(), core.Options{GroupCommitSize: 8})
	e.Begin()
	for i := int64(1); i <= 200; i++ {
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.BytesVal(make([]byte, 100))})
	}
	e.Commit()
	e.Flush()
	base := env.Arena.Allocated()
	for round := 0; round < 20; round++ {
		for i := int64(1); i <= 40; i++ {
			e.Begin()
			e.Update("t", uint64(i), core.Update{Cols: []int{1}, Vals: []core.Value{core.BytesVal(make([]byte, 100))}})
			e.Commit()
		}
		e.Flush()
	}
	after := env.Arena.Allocated()
	if after > base*2 {
		t.Errorf("arena grew %d -> %d over steady-state updates; tuple chunks leak", base, after)
	}
	// Check the master chunk tracking too.
	if st := env.Arena.StateOf(env.Arena.Root(0)); st != pmalloc.StatePersisted {
		t.Errorf("master block state = %v", st)
	}
}

// TestConformanceCatchesMissingFence: a streamed page, tuple, entry chunk or
// built node waits in the memory controller's buffer for the fence, so the
// conformance battery must fail the engine when the fence is removed.
func TestConformanceCatchesMissingFence(t *testing.T) {
	enginetest.RunConformanceCatchesMissingFence(t, nvmFactory(), enginetest.BaseSeed())
}

// TestArenaExhaustion: an AllocPage or tuple allocation that fails in the
// middle of a group aborts one transaction; the earlier transactions' batch
// buffers and the table are as they were.
func TestArenaExhaustion(t *testing.T) {
	enginetest.RunArenaExhaustion(t, nvmFactory())
}
