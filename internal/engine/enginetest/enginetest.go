// Package enginetest is a conformance battery run against every storage
// engine: CRUD semantics, transactional atomicity, secondary indexes, range
// scans, durability across crashes, and recovery of the exact committed
// state. Each engine package invokes Run with its constructors.
package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
)

// Factory describes how to build and recover one engine kind.
type Factory struct {
	Name string
	// New creates a fresh engine on a fresh environment.
	New func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error)
	// Open recovers the engine after a device crash.
	Open func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error)
	// Volatile marks traditional engines whose allocator region must be
	// reformatted on reopen.
	Volatile bool
	// Leaks, if set, reports an allocator chunk that is persisted yet reached
	// by nothing the engine holds — storage no later Open would reclaim. It
	// needs the engine's internals, so the engine's own test package sets it.
	Leaks func(e core.Engine) error
}

// testSchema builds a small two-table schema with a secondary index.
func testSchema() []*core.Schema {
	users := &core.Schema{
		Name: "users",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "balance", Type: core.TInt},
			{Name: "name", Type: core.TString, Size: 64},
			{Name: "bio", Type: core.TString, Size: 200},
		},
		Secondary: []core.IndexSpec{{
			Name: "by_balance",
			SecKey: func(row []core.Value) uint32 {
				return uint32(row[1].I)
			},
			Cols: []int{1},
		}},
	}
	items := &core.Schema{
		Name: "items",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "qty", Type: core.TInt},
		},
	}
	return []*core.Schema{users, items}
}

func userRow(id int64) []core.Value {
	return []core.Value{
		core.IntVal(id),
		core.IntVal(id % 100),
		core.StrVal(fmt.Sprintf("user-%d", id)),
		core.StrVal(fmt.Sprintf("bio of user %d with some padding text", id)),
	}
}

func newEnv(t testing.TB) *core.Env {
	t.Helper()
	return core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20, FSExtent: 256 << 10})
}

func mustEngine(t *testing.T, f Factory, env *core.Env, opts core.Options) core.Engine {
	t.Helper()
	e, err := f.New(env, testSchema(), opts)
	if err != nil {
		t.Fatalf("%s: New: %v", f.Name, err)
	}
	return e
}

func reopen(t *testing.T, f Factory, env *core.Env, opts core.Options) core.Engine {
	t.Helper()
	env.Dev.Crash()
	var env2 *core.Env
	var err error
	if f.Volatile {
		env2, err = env.ReopenVolatile()
	} else {
		env2, err = env.Reopen()
	}
	if err != nil {
		t.Fatalf("%s: env reopen: %v", f.Name, err)
	}
	e, err := f.Open(env2, testSchema(), opts)
	if err != nil {
		t.Fatalf("%s: Open: %v", f.Name, err)
	}
	return e
}

func do(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Run executes the full battery against the factory.
func Run(t *testing.T, f Factory) {
	t.Run("CRUD", func(t *testing.T) { testCRUD(t, f) })
	t.Run("TxnAtomicity", func(t *testing.T) { testTxnAtomicity(t, f) })
	t.Run("SecondaryIndex", func(t *testing.T) { testSecondary(t, f) })
	t.Run("RangeScan", func(t *testing.T) { testRangeScan(t, f) })
	t.Run("Durability", func(t *testing.T) { testDurability(t, f) })
	t.Run("RecoveryDiscardsUncommitted", func(t *testing.T) { testUncommitted(t, f) })
	t.Run("UpdateDurability", func(t *testing.T) { testUpdateDurability(t, f) })
	t.Run("DeleteDurability", func(t *testing.T) { testDeleteDurability(t, f) })
	t.Run("SecondaryAfterRecovery", func(t *testing.T) { testSecondaryAfterRecovery(t, f) })
	t.Run("Footprint", func(t *testing.T) { testFootprint(t, f) })
	t.Run("RandomizedModel", func(t *testing.T) { testRandomized(t, f) })
	t.Run("RandomizedWithRecovery", func(t *testing.T) { testRandomizedRecovery(t, f) })
	t.Run("MultiTableAtomicity", func(t *testing.T) { testMultiTableAtomicity(t, f) })
	t.Run("ScanRangeBoundaries", func(t *testing.T) { testScanRangeBoundaries(t, f) })
	t.Run("EmptyAndLargeStrings", func(t *testing.T) { testEmptyAndLargeStrings(t, f) })
	t.Run("DeleteReinsert", func(t *testing.T) { testDeleteReinsert(t, f) })
	t.Run("SecondaryDuplicates", func(t *testing.T) { testSecondaryDuplicates(t, f) })
	t.Run("CommitErrorUnwind", func(t *testing.T) { testCommitErrorUnwind(t, f) })
}

func testCRUD(t *testing.T, f Factory) {
	env := newEnv(t)
	e := mustEngine(t, f, env, core.Options{})

	do(t, e.Begin())
	do(t, e.Insert("users", 1, userRow(1)))
	if err := e.Insert("users", 1, userRow(1)); err != core.ErrKeyExists {
		t.Errorf("duplicate insert: %v", err)
	}
	row, ok, err := e.Get("users", 1)
	do(t, err)
	if !ok || row[0].I != 1 || string(row[2].S) != "user-1" {
		t.Fatalf("Get(1) = %v,%v", row, ok)
	}
	do(t, e.Update("users", 1, core.Update{Cols: []int{1, 2},
		Vals: []core.Value{core.IntVal(999), core.StrVal("renamed")}}))
	row, _, _ = e.Get("users", 1)
	if row[1].I != 999 || string(row[2].S) != "renamed" {
		t.Fatalf("after update: %v", row)
	}
	if string(row[3].S) != "bio of user 1 with some padding text" {
		t.Errorf("untouched column changed: %q", row[3].S)
	}
	do(t, e.Delete("users", 1))
	if _, ok, _ := e.Get("users", 1); ok {
		t.Error("deleted key still present")
	}
	if err := e.Delete("users", 1); err != core.ErrKeyNotFound {
		t.Errorf("double delete: %v", err)
	}
	if err := e.Update("users", 1, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(0)}}); err != core.ErrKeyNotFound {
		t.Errorf("update missing: %v", err)
	}
	do(t, e.Commit())

	// Ops outside a transaction fail.
	if err := e.Insert("users", 2, userRow(2)); err != core.ErrNoTxn {
		t.Errorf("insert outside txn: %v", err)
	}
}

func testTxnAtomicity(t *testing.T, f Factory) {
	env := newEnv(t)
	e := mustEngine(t, f, env, core.Options{})

	do(t, e.Begin())
	do(t, e.Insert("users", 10, userRow(10)))
	do(t, e.Commit())

	// Aborted txn: all three op types must roll back.
	do(t, e.Begin())
	do(t, e.Insert("users", 11, userRow(11)))
	do(t, e.Update("users", 10, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(-5)}}))
	do(t, e.Delete("users", 10)) // delete the updated row too
	do(t, e.Abort())

	if _, ok, _ := e.Get("users", 11); ok {
		t.Error("aborted insert visible")
	}
	row, ok, _ := e.Get("users", 10)
	if !ok {
		t.Fatal("aborted delete removed the row")
	}
	if row[1].I != 10%100 {
		t.Errorf("aborted update persisted: balance=%d", row[1].I)
	}
	// Secondary index must reflect the rollback.
	found := false
	do(t, e.ScanSecondary("users", "by_balance", uint32(10%100), func(pk uint64) bool {
		if pk == 10 {
			found = true
		}
		return true
	}))
	if !found {
		t.Error("secondary entry lost after abort")
	}
	var wrong bool
	do(t, e.ScanSecondary("users", "by_balance", uint32(4294967291), func(pk uint64) bool {
		wrong = true
		return false
	}))
	_ = wrong
}

func testSecondary(t *testing.T, f Factory) {
	env := newEnv(t)
	e := mustEngine(t, f, env, core.Options{})

	do(t, e.Begin())
	for i := int64(1); i <= 300; i++ {
		do(t, e.Insert("users", uint64(i), userRow(i)))
	}
	do(t, e.Commit())

	// balance = i%100, so each balance class has 3 members.
	var pks []uint64
	do(t, e.ScanSecondary("users", "by_balance", 42, func(pk uint64) bool {
		pks = append(pks, pk)
		return true
	}))
	if len(pks) != 3 {
		t.Fatalf("balance=42 matched %d pks: %v", len(pks), pks)
	}
	want := map[uint64]bool{42: true, 142: true, 242: true}
	for _, pk := range pks {
		if !want[pk] {
			t.Errorf("unexpected pk %d", pk)
		}
	}

	// Updating the secondary key moves the entry.
	do(t, e.Begin())
	do(t, e.Update("users", 42, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(7777)}}))
	do(t, e.Commit())
	pks = pks[:0]
	do(t, e.ScanSecondary("users", "by_balance", 42, func(pk uint64) bool {
		pks = append(pks, pk)
		return true
	}))
	if len(pks) != 2 {
		t.Errorf("after re-key, balance=42 matched %v", pks)
	}
	pks = pks[:0]
	do(t, e.ScanSecondary("users", "by_balance", 7777, func(pk uint64) bool {
		pks = append(pks, pk)
		return true
	}))
	if len(pks) != 1 || pks[0] != 42 {
		t.Errorf("balance=7777 matched %v", pks)
	}
}

func testRangeScan(t *testing.T, f Factory) {
	env := newEnv(t)
	e := mustEngine(t, f, env, core.Options{})
	do(t, e.Begin())
	for i := int64(1); i <= 100; i++ {
		do(t, e.Insert("items", uint64(i*10), []core.Value{core.IntVal(i * 10), core.IntVal(i)}))
	}
	do(t, e.Commit())

	var keys []uint64
	do(t, e.ScanRange("items", 250, 500, func(pk uint64, row []core.Value) bool {
		keys = append(keys, pk)
		if row[0].I != int64(pk) {
			t.Errorf("row/key mismatch at %d", pk)
		}
		return true
	}))
	if len(keys) != 25 {
		t.Fatalf("range scan found %d keys (%v)", len(keys), keys)
	}
	for i, k := range keys {
		if k != uint64(250+i*10) {
			t.Fatalf("keys[%d] = %d", i, k)
		}
	}
}

func testDurability(t *testing.T, f Factory) {
	env := newEnv(t)
	opts := core.Options{}
	e := mustEngine(t, f, env, opts)
	for i := int64(1); i <= 200; i++ {
		do(t, e.Begin())
		do(t, e.Insert("users", uint64(i), userRow(i)))
		do(t, e.Commit())
	}
	do(t, e.Flush())

	e2 := reopen(t, f, env, opts)
	for i := int64(1); i <= 200; i++ {
		row, ok, err := e2.Get("users", uint64(i))
		do(t, err)
		if !ok {
			t.Fatalf("key %d lost after crash", i)
		}
		if !core.RowsEqual(testSchema()[0], row, userRow(i)) {
			t.Fatalf("key %d corrupted after crash: %v", i, row)
		}
	}
}

func testUncommitted(t *testing.T, f Factory) {
	env := newEnv(t)
	opts := core.Options{}
	e := mustEngine(t, f, env, opts)
	do(t, e.Begin())
	do(t, e.Insert("users", 1, userRow(1)))
	do(t, e.Commit())
	do(t, e.Flush())

	// In-flight txn at crash time: must not survive.
	do(t, e.Begin())
	do(t, e.Insert("users", 2, userRow(2)))
	do(t, e.Update("users", 1, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(-1)}}))
	// Push everything (including uncommitted stores) to the medium: the
	// adversarial eviction case undo-based recovery must handle.
	env.Dev.EvictAll()

	e2 := reopen(t, f, env, opts)
	if _, ok, _ := e2.Get("users", 2); ok {
		t.Error("uncommitted insert survived recovery")
	}
	row, ok, _ := e2.Get("users", 1)
	if !ok {
		t.Fatal("committed row lost")
	}
	if row[1].I == -1 {
		t.Error("uncommitted update survived recovery")
	}
}

func testUpdateDurability(t *testing.T, f Factory) {
	env := newEnv(t)
	opts := core.Options{}
	e := mustEngine(t, f, env, opts)
	do(t, e.Begin())
	do(t, e.Insert("users", 5, userRow(5)))
	do(t, e.Commit())
	do(t, e.Begin())
	do(t, e.Update("users", 5, core.Update{Cols: []int{1, 3},
		Vals: []core.Value{core.IntVal(4242), core.StrVal("updated bio")}}))
	do(t, e.Commit())
	do(t, e.Flush())

	e2 := reopen(t, f, env, opts)
	row, ok, _ := e2.Get("users", 5)
	if !ok {
		t.Fatal("row lost")
	}
	if row[1].I != 4242 || string(row[3].S) != "updated bio" {
		t.Fatalf("update lost after crash: %v", row)
	}
	if string(row[2].S) != "user-5" {
		t.Errorf("untouched column corrupted: %q", row[2].S)
	}
}

func testDeleteDurability(t *testing.T, f Factory) {
	env := newEnv(t)
	opts := core.Options{}
	e := mustEngine(t, f, env, opts)
	do(t, e.Begin())
	do(t, e.Insert("users", 7, userRow(7)))
	do(t, e.Insert("users", 8, userRow(8)))
	do(t, e.Commit())
	do(t, e.Begin())
	do(t, e.Delete("users", 7))
	do(t, e.Commit())
	do(t, e.Flush())

	e2 := reopen(t, f, env, opts)
	if _, ok, _ := e2.Get("users", 7); ok {
		t.Error("deleted row resurrected after crash")
	}
	if _, ok, _ := e2.Get("users", 8); !ok {
		t.Error("surviving row lost")
	}
}

func testSecondaryAfterRecovery(t *testing.T, f Factory) {
	env := newEnv(t)
	opts := core.Options{}
	e := mustEngine(t, f, env, opts)
	do(t, e.Begin())
	for i := int64(1); i <= 50; i++ {
		do(t, e.Insert("users", uint64(i), userRow(i)))
	}
	do(t, e.Commit())
	do(t, e.Flush())

	e2 := reopen(t, f, env, opts)
	var pks []uint64
	do(t, e2.ScanSecondary("users", "by_balance", 13, func(pk uint64) bool {
		pks = append(pks, pk)
		return true
	}))
	if len(pks) != 1 || pks[0] != 13 {
		t.Errorf("secondary after recovery: %v", pks)
	}
}

func testFootprint(t *testing.T, f Factory) {
	env := newEnv(t)
	e := mustEngine(t, f, env, core.Options{})
	base := e.Footprint().Total()
	do(t, e.Begin())
	for i := int64(1); i <= 500; i++ {
		do(t, e.Insert("users", uint64(i), userRow(i)))
	}
	do(t, e.Commit())
	do(t, e.Flush())
	after := e.Footprint().Total()
	if after <= base {
		t.Errorf("footprint did not grow: %d -> %d", base, after)
	}
}

func testRandomized(t *testing.T, f Factory) {
	env := newEnv(t)
	e := mustEngine(t, f, env, core.Options{})
	model := make(map[uint64][]core.Value)
	rng := rand.New(rand.NewSource(11))
	schema := testSchema()[0]

	for step := 0; step < 2000; step++ {
		key := uint64(rng.Intn(400)) + 1
		do(t, e.Begin())
		abort := rng.Intn(10) == 0
		var applied func()
		switch rng.Intn(4) {
		case 0: // insert
			row := userRow(int64(key))
			row[1].I = int64(rng.Intn(100000))
			err := e.Insert("users", key, row)
			if _, exists := model[key]; exists {
				if err != core.ErrKeyExists {
					t.Fatalf("step %d: dup insert err=%v", step, err)
				}
			} else {
				do(t, err)
				applied = func() { model[key] = core.CloneRow(row) }
			}
		case 1: // update
			upd := core.Update{Cols: []int{1, 3},
				Vals: []core.Value{core.IntVal(int64(rng.Intn(100000))),
					core.StrVal(fmt.Sprintf("bio-%d", step))}}
			err := e.Update("users", key, upd)
			if _, exists := model[key]; !exists {
				if err != core.ErrKeyNotFound {
					t.Fatalf("step %d: update missing err=%v", step, err)
				}
			} else {
				do(t, err)
				applied = func() {
					row := core.CloneRow(model[key])
					core.ApplyDelta(row, upd)
					model[key] = row
				}
			}
		case 2: // delete
			err := e.Delete("users", key)
			if _, exists := model[key]; !exists {
				if err != core.ErrKeyNotFound {
					t.Fatalf("step %d: delete missing err=%v", step, err)
				}
			} else {
				do(t, err)
				applied = func() { delete(model, key) }
			}
		case 3: // read
			row, ok, err := e.Get("users", key)
			do(t, err)
			mrow, exists := model[key]
			if ok != exists || (ok && !core.RowsEqual(schema, row, mrow)) {
				t.Fatalf("step %d: read mismatch for %d: ok=%v exists=%v", step, key, ok, exists)
			}
		}
		if abort {
			do(t, e.Abort())
		} else {
			do(t, e.Commit())
			if applied != nil {
				applied()
			}
		}
	}
	// Full verification.
	for k, mrow := range model {
		row, ok, _ := e.Get("users", k)
		if !ok || !core.RowsEqual(schema, row, mrow) {
			t.Fatalf("final check: key %d mismatch (ok=%v)", k, ok)
		}
	}
}

func testRandomizedRecovery(t *testing.T, f Factory) {
	env := newEnv(t)
	opts := core.Options{GroupCommitSize: 4}
	e := mustEngine(t, f, env, opts)
	model := make(map[uint64][]core.Value)
	rng := rand.New(rand.NewSource(23))
	schema := testSchema()[0]

	for round := 0; round < 4; round++ {
		for step := 0; step < 300; step++ {
			key := uint64(rng.Intn(200)) + 1
			do(t, e.Begin())
			switch rng.Intn(3) {
			case 0:
				row := userRow(int64(key))
				row[1].I = int64(rng.Intn(1000))
				if _, exists := model[key]; !exists {
					do(t, e.Insert("users", key, row))
					model[key] = core.CloneRow(row)
				}
			case 1:
				if _, exists := model[key]; exists {
					upd := core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(int64(rng.Intn(1000)))}}
					do(t, e.Update("users", key, upd))
					row := core.CloneRow(model[key])
					core.ApplyDelta(row, upd)
					model[key] = row
				}
			case 2:
				if _, exists := model[key]; exists {
					do(t, e.Delete("users", key))
					delete(model, key)
				}
			}
			do(t, e.Commit())
		}
		do(t, e.Flush())
		e = reopen(t, f, env, opts)
		env = engineEnv(e)
		for k, mrow := range model {
			row, ok, _ := e.Get("users", k)
			if !ok || !core.RowsEqual(schema, row, mrow) {
				t.Fatalf("round %d: key %d mismatch after recovery (ok=%v)", round, k, ok)
			}
		}
		// And nothing extra.
		n := 0
		do(t, e.ScanRange("users", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			n++
			if _, exists := model[pk]; !exists {
				t.Fatalf("round %d: phantom key %d after recovery", round, pk)
			}
			return true
		}))
		if n != len(model) {
			t.Fatalf("round %d: scan found %d rows, model has %d", round, n, len(model))
		}
	}
}

// engineEnv extracts the environment from an engine via the Base embed.
type envHolder interface{ Environment() *core.Env }

func engineEnv(e core.Engine) *core.Env {
	if h, ok := e.(envHolder); ok {
		return h.Environment()
	}
	panic("enginetest: engine does not expose Environment()")
}
