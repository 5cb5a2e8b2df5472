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

// TestDeviceBudget pins the write path's cost per transaction in device
// counters, about a tenth above what the fixed schedule costs today: loads /
// stores / flushes / fences 196.3 / 102.3 / 102.9 / 0.13, 44.5 us of stall.
// The loads ceiling ROSE when the tree began to hold a group's pages in
// buffers until Persist (156.8 / 105.3 / 192.9 / 0.13, 49.1 us before): a
// recycled page is written through pmfs once per group, not once per
// transaction — which halves the CLWBs — but by then it has left the 128 KB
// cache its source's read put it in, and pmfs's write-allocate fetches it
// again. Stall is what the trade is judged by, so it has a ceiling too, below
// the old figure.
func TestDeviceBudget(t *testing.T) {
	enginetest.RunDeviceBudget(t, confFactory(), enginetest.DeviceBudget{Loads: 216, Stores: 112.5, Flushes: 113, Fences: 0.15, StallUS: 49})
}
