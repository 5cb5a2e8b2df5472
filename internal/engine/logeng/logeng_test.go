package logeng

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
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

// logFactory is Log, nvmFactory NVM-Log: the one Engine over its two stores,
// under the names the testbed registers them by.
func logFactory() enginetest.Factory { return factory("log", New, Open, true) }
func nvmFactory() enginetest.Factory {
	f := factory("nvm-log", NewNVM, OpenNVM, false)
	f.Leaks = func(e core.Engine) error { return checkArenaMatchesReach(e.(*Engine)) }
	return f
}

// both runs a battery as the subtests "log" and "nvm-log".
func both(t *testing.T, run func(*testing.T, enginetest.Factory)) {
	for _, f := range []enginetest.Factory{logFactory(), nvmFactory()} {
		t.Run(f.Name, func(t *testing.T) { run(t, f) })
	}
}

// TestConformance forces flushes, rotations and compactions during the
// battery with a 64-entry MemTable (NVM-Log merging at growth factor 3).
func TestConformance(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) {
		mk, open := f.New, f.Open
		f.New = func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			opts.MemTableCap, opts.LSMGrowth = 64, 3 // the Log engine's cascade takes no growth factor
			return mk(env, schemas, opts)
		}
		f.Open = func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			opts.MemTableCap, opts.LSMGrowth = 64, 3
			return open(env, schemas, opts)
		}
		f.Leaks = nil
		enginetest.Run(t, f)
	})
}

func TestRecoveryConformance(t *testing.T) { both(t, enginetest.RunRecoveryConformance) }

func TestConcurrentRecoveryConformance(t *testing.T) {
	both(t, enginetest.RunConcurrentRecoveryConformance)
}

func TestSnapshotConformance(t *testing.T) { both(t, enginetest.RunSnapshotConformance) }

func TestCrossShardConformance(t *testing.T) { both(t, enginetest.RunCrossShardConformance) }

// TestColReader: core.GetCols, served by projecting Get, answers like the
// engines that read columns natively.
func TestColReader(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) { enginetest.RunColReader(t, f, false) })
}

// TestFlushWorkersRefused: the flush pipeline, rotations and merges run
// inline only, so New and Open refuse any Options.FlushWorkers but 0, naming
// the field, instead of ignoring it.
func TestFlushWorkersRefused(t *testing.T) {
	both(t, func(t *testing.T, f enginetest.Factory) {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 16 << 20})
		if _, err := f.New(env, simpleSchema(), core.Options{FlushWorkers: 1}); err == nil || !strings.Contains(err.Error(), "FlushWorkers") {
			t.Fatalf("New with FlushWorkers 1: %v, want an error naming the field", err)
		}
		if _, err := f.New(env, simpleSchema(), core.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Open(env, simpleSchema(), core.Options{FlushWorkers: 1}); err == nil || !strings.Contains(err.Error(), "FlushWorkers") {
			t.Fatalf("Open with FlushWorkers 1: %v, want an error naming the field", err)
		}
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

func TestFlushAndCompaction(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	e, err := New(env, simpleSchema(), core.Options{MemTableCap: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 500; i++ {
		e.Begin()
		if err := e.Insert("t", uint64(i), row(i)); err != nil {
			t.Fatal(err)
		}
		e.Commit()
	}
	if e.Compactions() == 0 {
		t.Error("no compactions after 10 memtable flushes")
	}
	occupied := 0
	for _, run := range e.disk().levels {
		if run != nil {
			occupied++
		}
	}
	if occupied == 0 {
		t.Fatal("no SSTable runs")
	}
	// Every key readable, including those merged through multiple levels.
	for i := int64(1); i <= 500; i++ {
		r, ok, err := e.Get("t", uint64(i))
		if err != nil || !ok || r[1].I != i*2 {
			t.Fatalf("Get(%d) = %v,%v,%v", i, r, ok, err)
		}
	}
}

func TestDeltaCoalescingAcrossRuns(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	e, _ := New(env, simpleSchema(), core.Options{MemTableCap: 1 << 30})
	e.Begin()
	for i := int64(1); i <= 20; i++ {
		e.Insert("t", uint64(i), row(i))
	}
	e.Commit()
	if err := e.FlushMemTable(); err != nil {
		t.Fatal(err)
	}
	// Updates land in a separate run as deltas.
	e.Begin()
	for i := int64(1); i <= 20; i++ {
		e.Update("t", uint64(i), core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(i * 100)}})
	}
	e.Commit()
	if err := e.FlushMemTable(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		r, ok, _ := e.Get("t", uint64(i))
		if !ok || r[1].I != i*100 || string(r[2].S) != "payload" {
			t.Fatalf("coalesced Get(%d) = %v,%v", i, r, ok)
		}
	}
}

func TestTombstonesDroppedAtDeepestLevel(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	e, _ := New(env, simpleSchema(), core.Options{MemTableCap: 1 << 30})
	e.Begin()
	for i := int64(1); i <= 100; i++ {
		e.Insert("t", uint64(i), row(i))
	}
	e.Commit()
	e.FlushMemTable()
	e.Begin()
	for i := int64(1); i <= 100; i++ {
		e.Delete("t", uint64(i))
	}
	e.Commit()
	e.FlushMemTable() // merges tombstones over inserts; nothing deeper
	var total int64
	for _, run := range e.disk().levels {
		if run != nil {
			total += run.count
		}
	}
	if total != 0 {
		t.Errorf("deepest-level merge kept %d entries; tombstones not dropped", total)
	}
	for i := int64(1); i <= 100; i++ {
		if _, ok, _ := e.Get("t", uint64(i)); ok {
			t.Fatalf("deleted key %d visible", i)
		}
	}
}

func TestBloomFiltersSkipRuns(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	e, _ := New(env, simpleSchema(), core.Options{MemTableCap: 1 << 30})
	e.Begin()
	for i := int64(1); i <= 1000; i++ {
		e.Insert("t", uint64(i*2), row(i))
	}
	e.Commit()
	e.FlushMemTable()
	run := e.disk().levels[0]
	if run == nil {
		t.Fatal("no run at level 0")
	}
	hits := 0
	for i := uint64(1); i <= 1000; i++ {
		if run.mayContain(env.Dev, core.TreePrimary(0, i*2-1)) { // absent keys
			hits++
		}
	}
	if hits > 50 {
		t.Errorf("bloom filter passed %d/1000 absent keys", hits)
	}
	for i := uint64(1); i <= 1000; i++ {
		if !run.mayContain(env.Dev, core.TreePrimary(0, i*2)) {
			t.Fatal("bloom false negative")
		}
	}
}

func TestRecoveryAfterCompactionCrash(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	opts := core.Options{MemTableCap: 40, GroupCommitSize: 4}
	e, _ := New(env, simpleSchema(), opts)
	for i := int64(1); i <= 300; i++ {
		e.Begin()
		e.Insert("t", uint64(i), row(i))
		e.Commit()
	}
	e.Flush()
	env.Dev.Crash()
	env2, err := env.ReopenVolatile()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(env2, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 300; i++ {
		if _, ok, _ := e2.Get("t", uint64(i)); !ok {
			t.Fatalf("key %d lost across flush/compaction crash", i)
		}
	}
}

// TestManifestSequenceIsChecked: a manifest slot's checksum covers its
// sequence word, not only the payload. The first flush writes generation 2
// (slot 0, the run in L0) and its compaction generation 3 (slot 1, the run as
// level 0). With slot 1's sequence corrupt, payload intact, Open must refuse
// it and load generation 2, so the next flush writes generations 3 and 4;
// had it trusted the corrupt word, every later generation would follow it.
func TestManifestSequenceIsChecked(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	opts := core.Options{MemTableCap: 4, GroupCommitSize: 1}
	e, err := New(env, simpleSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(e *Engine, from, to int64) {
		for i := from; i <= to; i++ {
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
	}
	seqs := func() (s [2]uint64) {
		for i := range s {
			f, err := env.FS.OpenFile(fmt.Sprintf("log.manifest.%d", i))
			if err != nil {
				t.Fatal(err)
			}
			var b [8]byte
			if _, err := f.ReadAt(b[:], 8); err != nil {
				t.Fatal(err)
			}
			s[i] = binary.LittleEndian.Uint64(b[:])
		}
		return s
	}
	insert(e, 1, 4)
	if got := seqs(); got != [2]uint64{2, 3} {
		t.Fatalf("after the first flush the slots hold generations %v, want [2 3]", got)
	}
	f, err := env.FS.OpenFile("log.manifest.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(binary.LittleEndian.AppendUint64(nil, 1<<40|3), 8); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	env.Dev.Crash()
	if env, err = env.ReopenVolatile(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(env, simpleSchema(), opts); err != nil {
		t.Fatal(err)
	}
	insert(e, 5, 8)
	if got := seqs(); got != [2]uint64{4, 3} {
		t.Errorf("after the next flush the slots hold generations %v, want [4 3]: Open trusted the corrupt sequence word", got)
	}
	for i := int64(1); i <= 8; i++ {
		if _, ok, err := e.Get("t", uint64(i)); err != nil || !ok {
			t.Fatalf("key %d: %v, %v", i, ok, err)
		}
	}
}

// TestGroupCommitSnapshotConformance: the snapshot battery with four
// transactions to a group commit, so views pin between a commit and its
// group's fsync.
func TestGroupCommitSnapshotConformance(t *testing.T) {
	enginetest.RunGroupCommitSnapshotConformance(t, logFactory())
}

// TestDeviceBudget pins the write path's cost per transaction in device
// counters, about a tenth above what the fixed schedule costs today: loads /
// stores / flushes / fences 19.4 / 24.7 / 1.8 / 0.42, 4.46 us of stall.
// (24.0 / 34.1 / 1.9 / 0.55 and 5.44 us while a compaction folded its runs
// pairwise, newest first, each fold writing an intermediate SSTable that the
// next read back through the block cache; 39.7 / 43.9 / 1.9 / 0.60 and
// 8.26 us while a run's index held entry
// offsets alone, so a probe's binary search read each step's key from the
// entry region, and pmfs scanned its inode table to find a file by name;
// 59.7 / 46.3 / 1.9 and 12.34 us while an update coalesced its row first —
// its before-image read the value log — and logged the before-image; 89.6 /
// 48.2 and 17.16 us while block-cache fills, MemTable entries and bloom
// filters were written through the cache — a fill per line — and a run
// lookup read every probed entry whole; 90.2 / 48.7 / 2.5 / 0.86 while the
// MemTable's chunks and index nodes shared cache lines with their neighbours;
// 114.3 / 48.4 / 25.8 while pmfs wrote WAL, SSTable and value-log bytes
// through the cache.)
//
// NVM-Log's is pinned per update on the steady budget schedule (6 000
// updates after the load, then 12 000 measured): loads / stores / flushes /
// fences 20.4 / 24.1 / 4.2 / 4.27, 3.62 us of stall, the ceilings a tenth
// above. Its entry chunks and WAL entries are streamed on lines of their own.
// It was 20.4 / 25.1 / 5.2 / 5.27, 3.68 us while each WAL entry was linked
// through the WAL head with a durable write of its own; 20.5 / 25.2 / 5.4 /
// 5.35, 3.71 us while nodes held 30 entries and no fingerprints, a rewritten
// node was fenced and written back whole and a built one kept three slots
// free; it was 24.4 / 27.2 / 10.9 / 5.34, 4.56 us
// while a chunk shared its first and last lines with its neighbours (24.5 /
// 27.0 / 10.8 / 5.34 while a rotation listed its run before persisting the
// Bloom filter and swapped the run list again to name it), and 26.5 / 28.8 /
// 11.5 / 5.34, 4.92 us while it merged the two oldest runs at every rotation.
// The first 2 000 updates after the load measure the engine before its
// merges reach the oldest run: 10.6 / 19.4 / 12.5 / 7.57 under that rule,
// which is what this test pinned until the merge rule changed. (Those figures
// were 10.6 / 20.3 / 13.6 / 11.16 while the entry chunk and the WAL entry
// were each fenced and then marked persisted behind a second fence; 46.1
// loads while Update coalesced the tuple and compaction read every adopted
// chunk, and 16.7 with 20.3 flushes while entry chunks and built nodes were
// written through the cache.)
func TestDeviceBudget(t *testing.T) {
	t.Run("log", func(t *testing.T) {
		enginetest.RunDeviceBudget(t, logFactory(), enginetest.Budget, enginetest.DeviceBudget{Loads: 21.4, Stores: 27.2, Flushes: 2.0, Fences: 0.47, StallUS: 4.9})
	})
	t.Run("nvm-log", func(t *testing.T) {
		enginetest.RunDeviceBudget(t, nvmFactory(), enginetest.SteadyBudget(3000),
			enginetest.DeviceBudget{Loads: 22.4, Stores: 26.5, Flushes: 4.6, Fences: 4.7, StallUS: 4.0})
	})
}

// disk and nvm are the engine's store, for tests that look inside it.
func (e *Engine) disk() *diskStore { return e.st.(*diskStore) }
func (e *Engine) nvm() *nvmStore   { return e.st.(*nvmStore) }

// FlushMemTable forces the Log engine's MemTable through the full flush
// pipeline.
func (e *Engine) FlushMemTable() error {
	defer e.Exclude()()
	return e.disk().triggerFlush(true)
}

// GCVlog forces one value-log GC pass over the deadest sealed segment, if
// any qualifies. The condemned segment is deleted once the memtable
// generation holding its repointed records installs.
func (e *Engine) GCVlog() error {
	defer e.Exclude()()
	return e.disk().gc(0)
}
