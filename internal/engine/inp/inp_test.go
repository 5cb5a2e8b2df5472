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
	if e.ckpt.Seq < 3 {
		t.Errorf("expected >=3 checkpoints, got %d", e.ckpt.Seq)
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

// TestCheckpointSlotWordsAreChecked: a checkpoint slot's checksum covers its
// sequence and transaction-floor words, not only the payload. Corrupt either
// word of the newer slot, payload intact, and Open must refuse that slot and
// load the older one; a slot accepted with a wrong floor replays the WAL
// from the wrong transaction.
func TestCheckpointSlotWordsAreChecked(t *testing.T) {
	schemas := []*core.Schema{{
		Name:    "t",
		Columns: []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TString, Size: 100}},
	}}
	opts := core.Options{CheckpointEvery: 1 << 20, GroupCommitSize: 1}
	for _, word := range []struct {
		name string
		off  int64
	}{{"sequence", 8}, {"floor", 16}} {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
		e, err := New(env, schemas, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int64 // each checkpoint's slot size, oldest first
		for _, n := range []int64{10, 40} {
			for i := int64(len(sizes)*10 + 1); i <= n; i++ {
				if err := e.Begin(); err != nil {
					t.Fatal(err)
				}
				if err := e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.StrVal("checkpointed row")}); err != nil {
					t.Fatal(err)
				}
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, e.Footprint().Checkpoint)
		}
		// The second checkpoint went to slot 0, the first to slot 1.
		f, err := env.FS.OpenFile("inp.ckpt.0")
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		if _, err := f.ReadAt(b[:], word.off); err != nil {
			t.Fatal(err)
		}
		b[5] ^= 0x40 // 2^46 more or less: a far newer sequence, a far later floor
		if _, err := f.WriteAt(b[:], word.off); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		env.Dev.Crash()
		env2, err := env.ReopenVolatile()
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Open(env2, schemas, opts)
		if err != nil {
			t.Fatalf("%s word corrupt: Open: %v", word.name, err)
		}
		if got := e2.Footprint().Checkpoint; got != sizes[0] {
			t.Errorf("%s word of the newer slot corrupt: loaded a %d-byte checkpoint, want the older slot's %d (the newer is %d)",
				word.name, got, sizes[0], sizes[1])
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

// TestGroupCommitSnapshotConformance: the snapshot battery with four
// transactions to a group commit, so views pin between a commit and its
// group's fsync.
func TestGroupCommitSnapshotConformance(t *testing.T) {
	enginetest.RunGroupCommitSnapshotConformance(t, factory())
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
