package testbed_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// setupLines builds kind over four partitions, loads YCSB then TPC-C at seed
// 42 and returns one line per partition: its raw device counters, its
// engine's footprint and its state digest.
func setupLines(t *testing.T, kind testbed.EngineKind) []string {
	t.Helper()
	ycfg := ycsb.Config{Tuples: 2000, Partitions: 4, Seed: 42}
	tcfg := tpcc.Config{Warehouses: 4, Districts: 2, Customers: 20, Items: 100, Partitions: 4, Seed: 42}
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: 4,
		Env:        core.EnvConfig{DeviceSize: 32 << 20, CacheSize: 128 << 10},
		Options:    core.Options{MemTableCap: 256, CheckpointEvery: 8},
		Schemas:    append(ycsb.Schema(ycfg), tpcc.Schemas()...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ycsb.Load(db, ycfg); err != nil {
		t.Fatal(err)
	}
	if err := tpcc.Load(db, tcfg); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for p := 0; p < db.Partitions(); p++ {
		s := db.Env(p).Dev.Stats()
		d, err := db.PartitionDigest(p)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s p%d loads=%d stores=%d flushes=%d fences=%d read=%d written=%d stall=%d readstall=%d footprint=%d digest=%x",
			kind, p, s.Loads, s.Stores, s.Flushes, s.Fences, s.BytesRead, s.BytesWritten,
			int64(s.Stall), int64(s.ReadStall), db.Engine(p).Footprint().Total(), d))
	}
	return lines
}

// TestSetupPinned pins what building and loading a database leaves on every
// partition of every engine: the raw device counters, the footprint and the
// state digest must equal testdata/setup.golden, recorded when New, ycsb.Load
// and tpcc.Load still visited the partitions one after another. However the
// partitions are scheduled, each one's own order of work must not change.
func TestSetupPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/setup.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, kind := range testbed.Kinds {
		got = append(got, setupLines(t, kind)...)
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		g, w := "", ""
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d differs:\n got  %s\n want %s", i, g, w)
		}
	}
}
