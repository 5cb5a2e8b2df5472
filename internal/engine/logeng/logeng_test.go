package logeng

import (
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "log",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			opts.MemTableCap = 64 // force flushes and compactions during the battery
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			opts.MemTableCap = 64
			return Open(env, schemas, opts)
		},
		Volatile: true,
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
	for _, run := range e.levels {
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
	for _, run := range e.levels {
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
	run := e.levels[0]
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

func confFactory() enginetest.Factory {
	return enginetest.Factory{
		Name: "log",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return Open(env, schemas, opts)
		},
		Volatile: true,
	}
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

// TestDeviceBudget pins the write path's cost per transaction in device
// counters, about a tenth above what the fixed schedule costs today: loads /
// stores / flushes / fences 59.7 / 46.3 / 1.9 / 0.60, 12.34 us of stall.
// (89.6 / 48.2 and 17.16 us while block-cache fills, MemTable entries and
// bloom filters were written through the cache — a fill per line — and a run
// lookup read every probed entry whole; 90.2 / 48.7 / 2.5 / 0.86 while the
// MemTable's chunks and index nodes shared cache lines with their neighbours;
// 114.3 / 48.4 / 25.8 while pmfs wrote WAL, SSTable and value-log bytes
// through the cache.)
func TestDeviceBudget(t *testing.T) {
	enginetest.RunDeviceBudget(t, confFactory(), enginetest.Budget, enginetest.DeviceBudget{Loads: 65.7, Stores: 51, Flushes: 2.1, Fences: 0.67, StallUS: 13.6})
}

// TestFlushWorkersRefused: the flush pipeline runs inline only, so New and
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
