package logeng

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/engine/lsm"
	"nstore/internal/nvm"
)

// txn1 runs op as one transaction and commits it.
func txn1(t *testing.T, e *Engine, op func() error) {
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

// TestViewPinnedBeforeGroupFsyncSeesOldValues: a commit is published only at
// its group's fsync, so a view pinned between the two must read the values
// before it — for a key whose newest entry was in a run (the pre-image is
// "nothing above the runs"), one written twice by pending commits (the
// second pre-image is the first write's chunk) and one deleted. The view
// materializes the lazy pre-images when it pins, and keeps them past the
// publish; a view pinned after the publish reads the new values.
func TestViewPinnedBeforeGroupFsyncSeesOldValues(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	e, err := New(env, simpleSchema(), core.Options{GroupCommitSize: 16, MemTableCap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	txn1(t, e, func() error { return e.Insert("t", 1, row(1)) })
	if err := e.FlushMemTable(); err != nil {
		t.Fatal(err)
	}
	txn1(t, e, func() error { return e.Insert("t", 2, row(2)) })
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	set := func(k uint64, v int64) func() error {
		return func() error { return e.Update("t", k, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(v)}}) }
	}
	txn1(t, e, set(1, 100))
	txn1(t, e, set(1, 200))
	txn1(t, e, func() error { return e.Delete("t", 2) })
	if n := e.disk().wal.PendingTxns(); n != 3 {
		t.Fatalf("%d transactions wait for the group's fsync, want 3", n)
	}

	check := func(v core.ReadView, k uint64, want int64, wantFound bool) {
		t.Helper()
		r, ok, err := v.Get("t", k)
		if err != nil || ok != wantFound || ok && r[1].I != want {
			t.Fatalf("view at %d: Get(%d) = %v, %v, %v; want a = %d (found %v)", v.Ts(), k, r, ok, err, want, wantFound)
		}
	}
	old := e.SnapshotView()
	defer old.Close()
	check(old, 1, 2, true)
	check(old, 2, 4, true)
	if us := e.UndoStats(); us.Materialized != 3 || us.Captures != 0 {
		t.Fatalf("undo stats %+v: want the three lazy pre-images materialized and nothing captured", us)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check(old, 1, 2, true)
	check(old, 2, 4, true)
	now := e.SnapshotView()
	defer now.Close()
	check(now, 1, 200, true)
	check(now, 2, 0, false)
}

// TestUpdateOverSeparatedImageReadsNoValue: an update whose key's newest
// entry is a run's separated full image probes the run for the entry's kind
// and writes its delta; it reads no value-log byte (the value log is
// overwritten with zeros first, so a read would fail its checksum) and, with
// the run's blocks cached and the CPU cache cold, loads at most 24 lines
// (16–18 today; 19–22 while the search read each step's key from the entry
// region and the probe the entry's header): the filter words and the index
// slots the search probes, then the memtable path and the WAL buffer it
// writes. The separated image alone is 17 lines.
func TestUpdateOverSeparatedImageReadsNoValue(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, Profile: nvm.ProfileLowNVM})
	e, err := New(env, bigSchema(), core.Options{VlogThreshold: 256, MemTableCap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 200; i++ {
		put1(t, e, i, 1024)
	}
	if err := e.FlushMemTable(); err != nil {
		t.Fatal(err)
	}
	if e.disk().vl == nil || e.disk().vl.Stats().Appends != 200 {
		t.Fatal("the flush separated no values")
	}
	for _, name := range env.FS.List() {
		if !strings.HasPrefix(name, vlogPrefix) {
			continue
		}
		f, err := env.FS.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, f.Size()), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm what any write touches (the WAL buffer, the memtable's root).
	txn1(t, e, func() error { return e.Insert("t", 1000, bigRow(1000, 8)) })

	const maxLoads = 24
	for _, k := range []uint64{7, 100, 199} {
		// The run's blocks in the block cache, as a probe leaves them; the
		// CPU cache cold.
		if _, _, err := e.exists(core.TreePrimary(0, k)); err != nil {
			t.Fatal(err)
		}
		env.Dev.EvictAll()
		before := env.Dev.Stats()
		txn1(t, e, func() error {
			return e.Update("t", k, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(-1)}})
		})
		if loads := env.Dev.Stats().Sub(before).Loads; loads > maxLoads {
			t.Errorf("update of key %d loaded %d lines, want at most %d", k, loads, maxLoads)

		}
	}
}

// TestRunEntryOfUnknownKindIsCorrupt: a run entry whose kind byte is none of
// the four kinds is core.ErrCorrupt to every reader — the probe, a lookup
// and a scan — not an entry a probe calls live.
func TestRunEntryOfUnknownKindIsCorrupt(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 4 << 20, FSExtent: 16 << 10})
	ents := evenEntries(20, 30)
	ents[5].ent.Kind = 9
	run, _ := writeRun(t, env, "sst-000001", ents)
	run.c = newBlockCache(env.Arena, 4)
	if _, _, err := run.kindOf(ents[5].key); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("kindOf returned %v, want core.ErrCorrupt", err)
	}
	if _, _, err := get(run, env.Dev, ents[5].key); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("get returned %v, want core.ErrCorrupt", err)
	}
	s := run.scan()
	for s.next() {
	}
	if !errors.Is(s.err, core.ErrCorrupt) {
		t.Errorf("a scan returned %v, want core.ErrCorrupt", s.err)
	}
	if kind, ok, err := run.kindOf(ents[4].key); err != nil || !ok || kind != lsm.KindFull {
		t.Errorf("kindOf a sound entry = %d, %v, %v", kind, ok, err)
	}
}

// TestProbeMatchesGet: across seeded schedules of inserts, updates, deletes
// and re-inserts, aborts, MemTable rotations, flushes and compactions,
// value separation (Log), merges (NVM-Log), group commits and crashes with
// recovery, the liveness probe the write path uses (exists) agrees with Get
// on every key after every transaction, and both with the committed model.
// 40 schedules a store from -seed, 10 under -short.
func TestProbeMatchesGet(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	both(t, func(t *testing.T, f enginetest.Factory) {
		for seed := enginetest.BaseSeed(); seed < enginetest.BaseSeed()+int64(n); seed++ {
			if err := probeSchedule(f, seed); err != nil {
				t.Fatalf("seed %d: %v\nreplay: go test -run '^TestProbeMatchesGet$/^%s$' -seed=%d", seed, err, f.Name, seed)
			}
		}
	})
}

// probeSchedule runs one seeded schedule of TestProbeMatchesGet.
func probeSchedule(f enginetest.Factory, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	const keys = 40
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, FSExtent: 64 << 10})
	opts := core.Options{MemTableCap: 8 + rng.Intn(16), GroupCommitSize: 1 + rng.Intn(4), VlogThreshold: 64}
	ce, err := f.New(env, bigSchema(), opts)
	if err != nil {
		return err
	}
	e := ce.(*Engine)
	_, disk := e.st.(*diskStore)
	committed := map[uint64]bool{}
	check := func(when string, model map[uint64]bool) error {
		for k := uint64(0); k < keys; k++ {
			live, _, perr := e.exists(core.TreePrimary(0, k))
			_, found, gerr := e.Get("t", k)
			if perr != nil || gerr != nil {
				return fmt.Errorf("%s: key %d: probe error %v, Get error %v", when, k, perr, gerr)
			}
			if live != found || found != model[k] {
				return fmt.Errorf("%s: key %d: probe says live %v, Get says found %v, the model %v", when, k, live, found, model[k])
			}
		}
		return nil
	}
	for step := 0; step < 120; step++ {
		working := make(map[uint64]bool, len(committed))
		for k, v := range committed {
			working[k] = v
		}
		if err := e.Begin(); err != nil {
			return err
		}
		for op := 0; op < 1+rng.Intn(3); op++ {
			k := uint64(rng.Intn(keys))
			var err error
			switch {
			case !working[k]:
				err = e.Insert("t", k, bigRow(int64(k), 16+rng.Intn(120)))
				working[k] = true
			case rng.Intn(3) == 0:
				err = e.Delete("t", k)
				working[k] = false
			default:
				upd := core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(rng.Int63n(100))}}
				if rng.Intn(2) == 0 {
					upd = core.Update{Cols: []int{2}, Vals: []core.Value{core.StrVal(strings.Repeat("d", rng.Intn(200)))}}
				}
				err = e.Update("t", k, upd)
			}
			if err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		if err := check(fmt.Sprintf("step %d, in its transaction", step), working); err != nil {
			return err
		}
		if rng.Intn(8) == 0 {
			if err := e.Abort(); err != nil {
				return err
			}
		} else {
			if err := e.Commit(); err != nil {
				return fmt.Errorf("step %d: Commit: %w", step, err)
			}
			committed = working
		}
		// NVM-Log rotates and merges only when its MemTable fills.
		switch rng.Intn(12) {
		case 0:
			if !disk {
				break
			}
			if err := e.FlushMemTable(); err != nil {
				return fmt.Errorf("step %d: FlushMemTable: %w", step, err)
			}
		case 1:
			if !disk {
				break
			}
			if err := e.GCVlog(); err != nil {
				return fmt.Errorf("step %d: GCVlog: %w", step, err)
			}
		case 2:
			// A power cycle after the group's fsync: the committed model
			// is what recovery must bring back.
			if err := e.Flush(); err != nil {
				return err
			}
			env.Dev.Crash()
			reopen := env.Reopen
			if f.Volatile {
				reopen = env.ReopenVolatile
			}
			env2, err := reopen()
			if err != nil {
				return err
			}
			if ce, err = f.Open(env2, bigSchema(), opts); err != nil {
				return fmt.Errorf("step %d: Open: %w", step, err)
			}
			e, env = ce.(*Engine), env2
		}
		if err := check(fmt.Sprintf("step %d", step), committed); err != nil {
			return err
		}
	}
	return nil
}
