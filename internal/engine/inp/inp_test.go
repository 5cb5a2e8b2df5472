package inp

import (
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
)

func factory() enginetest.Factory {
	return enginetest.Factory{
		Name: "inp",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return Open(env, schemas, opts)
		},
		Volatile: true,
	}
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, factory())
}

func TestCheckpointAndTruncate(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	schemas := []*core.Schema{{
		Name:    "t",
		Columns: []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TString, Size: 100}},
	}}
	e, err := New(env, schemas, core.Options{CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 350; i++ {
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.StrVal("payload payload payload")}); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if e.ckptSeq < 3 {
		t.Errorf("expected >=3 checkpoints, got %d", e.ckptSeq)
	}
	fp := e.Footprint()
	if fp.Checkpoint == 0 {
		t.Error("no checkpoint footprint")
	}
	// The WAL was truncated at the last checkpoint, so it holds at most
	// CheckpointEvery transactions' records.
	if fp.Log > 100*200 {
		t.Errorf("log footprint %d suggests truncation failed", fp.Log)
	}

	// Recovery from checkpoint + WAL tail restores all rows.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	env.Dev.Crash()
	env2, err := env.ReopenVolatile()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(env2, schemas, core.Options{CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 350; i++ {
		if _, ok, _ := e2.Get("t", uint64(i)); !ok {
			t.Fatalf("key %d lost (checkpoint recovery)", i)
		}
	}
}

func TestCheckpointCompression(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	schemas := []*core.Schema{{
		Name:    "t",
		Columns: []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TString, Size: 1000}},
	}}
	e, _ := New(env, schemas, core.Options{CheckpointEvery: 0})
	pad := make([]byte, 500) // zero padding compresses well
	e.Begin()
	for i := int64(1); i <= 200; i++ {
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.BytesVal(pad)})
	}
	e.Commit()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw := int64(200 * 520)
	if e.Footprint().Checkpoint >= raw/5 {
		t.Errorf("checkpoint %d bytes; gzip should compress 100 KB of zeros well below %d",
			e.Footprint().Checkpoint, raw/5)
	}
}

func TestRecoveryConformance(t *testing.T) {
	enginetest.RunRecoveryConformance(t, factory())
}

func TestConcurrentRecoveryConformance(t *testing.T) {
	enginetest.RunConcurrentRecoveryConformance(t, factory())
}

func TestSnapshotConformance(t *testing.T) {
	enginetest.RunSnapshotConformance(t, factory())
}

func TestCrossShardConformance(t *testing.T) {
	enginetest.RunCrossShardConformance(t, factory())
}

// TestColReader: core.GetCols, served natively from the heap, equals the
// projection of Get.
func TestColReader(t *testing.T) {
	enginetest.RunColReader(t, factory(), true)
}

// TestDeviceBudget pins the write path's cost per transaction in device
// counters, about a tenth above what the fixed schedule costs today: loads /
// stores / flushes / fences 3.4 / 7.8 / 1.1 / 0.065, 0.79 us of stall. (3.9
// loads and 0.87 us while a var-slot was allocated and then written through
// the cache, a fill per line; 4.7 / 8.4 while a heap chunk shared its cache
// lines with its neighbours; it loaded 29.3 lines while Update read the whole
// row to change one column, and 9.3 with 5.4 flushes while pmfs
// write-allocated every WAL line and fsync CLFLUSHed it.)
func TestDeviceBudget(t *testing.T) {
	enginetest.RunDeviceBudget(t, factory(), enginetest.Budget, enginetest.DeviceBudget{Loads: 3.7, Stores: 8.6, Flushes: 1.25, Fences: 0.07, StallUS: 0.87})
}

// TestUpdateTouchesOnlyItsLines: a cold one-column update loads the index
// path, the slot's lines, the old value it logs and the lines it allocates
// and writes, the same with thirty columns or kilobyte ones beside it.
func TestUpdateTouchesOnlyItsLines(t *testing.T) {
	enginetest.RunUpdateTouchesOnlyItsLines(t, factory(), 20)
}

// TestArenaExhaustion: a full arena is a typed error at the operation, not a
// panic in the partition's goroutine, and costs the transaction only.
func TestArenaExhaustion(t *testing.T) {
	enginetest.RunArenaExhaustion(t, factory())
}
