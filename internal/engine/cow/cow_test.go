package cow

import (
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "cow",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return Open(env, schemas, opts)
		},
		Volatile: true,
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

func confFactory() enginetest.Factory {
	return enginetest.Factory{
		Name: "cow",
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
	enginetest.RunRecoveryConformance(t, confFactory(), 200)
}

func TestConcurrentRecoveryConformance(t *testing.T) {
	enginetest.RunConcurrentRecoveryConformance(t, confFactory(), 200)
}

func TestSnapshotConformance(t *testing.T) {
	enginetest.RunSnapshotConformance(t, confFactory(), 200)
}

func TestOCCConformance(t *testing.T) {
	enginetest.RunOCCConformance(t, confFactory(), 200)
}

func TestCrossShardConformance(t *testing.T) {
	enginetest.RunCrossShardConformance(t, confFactory(), 200)
}

// TestColReader: core.GetCols, served by projecting Get, answers like the
// engines that read columns natively.
func TestColReader(t *testing.T) {
	enginetest.RunColReader(t, confFactory(), false)
}

// TestDeviceBudget pins the write path's cost per transaction in device
// counters, about a tenth above what the fixed schedule costs today: loads /
// stores / flushes / fences 102.0 / 102.8 / 0.10 / 0.13, 25.3 us of stall.
// (196.3 / 102.3 / 102.9 / 0.13 and 44.5 us while pmfs wrote a page through
// the cache: a recycled page written at Persist had left the 128 KB cache, so
// the write-allocate fetched all 64 of its lines to overwrite them and fsync
// flushed them one by one. A streamed page fetches and flushes nothing; the
// loads left are the tree's own reads.)
func TestDeviceBudget(t *testing.T) {
	enginetest.RunDeviceBudget(t, confFactory(), enginetest.DeviceBudget{Loads: 112.3, Stores: 113.1, Flushes: 0.12, Fences: 0.15, StallUS: 28})
}
