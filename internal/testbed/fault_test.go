package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/nvm"
)

// TestFaultInjectedCrashRecoverAllEngines gives every partition a different
// fault plan (power loss, reordered write-back, torn write-back), crashes
// the whole testbed with a transaction in flight on each partition, and
// requires recovery to surface exactly the committed state everywhere.
func TestFaultInjectedCrashRecoverAllEngines(t *testing.T) {
	base := enginetest.BaseSeed()
	for _, kind := range Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			db, err := New(Config{
				Engine:     kind,
				Partitions: 3,
				Env:        core.EnvConfig{DeviceSize: 64 << 20},
				Options:    core.Options{GroupCommitSize: 1},
				Schemas:    schemas(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Committed load.
			work := make([][]Txn, 3)
			for p := 0; p < 3; p++ {
				for i := 0; i < 40; i++ {
					key := uint64(i*3 + p)
					work[p] = append(work[p], func(e core.Engine) error {
						return e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(7)})
					})
				}
			}
			if _, err := db.Execute(work); err != nil {
				t.Fatal(err)
			}
			// One in-flight transaction per partition at crash time.
			for p := 0; p < 3; p++ {
				e := db.Engine(p)
				if err := e.Begin(); err != nil {
					t.Fatal(err)
				}
				key := uint64(1000 + p)
				if err := e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(9)}); err != nil {
					t.Fatal(err)
				}
			}
			// A different failure mode on every partition; seeds derive from
			// the -seed flag so a failure replays exactly.
			modes := []nvm.FaultMode{nvm.FaultLoseAll, nvm.FaultReorder, nvm.FaultTear}
			for p := 0; p < 3; p++ {
				db.Env(p).Dev.InjectFaults(nvm.FaultPlan{
					Seed:     base + int64(p),
					Mode:     modes[p%len(modes)],
					KeepProb: 0.5,
					TearProb: 0.7,
				})
			}
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			for key := uint64(0); key < 120; key++ {
				row, ok, err := db.Engine(db.Route(key)).Get("t", key)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || row[1].I != 7 {
					t.Fatalf("committed key %d wrong after faulted recovery (ok=%v)", key, ok)
				}
			}
			for p := 0; p < 3; p++ {
				if _, ok, _ := db.Engine(p).Get("t", uint64(1000+p)); ok {
					t.Fatalf("partition %d: in-flight insert survived the crash", p)
				}
				// Partition usable after recovery.
				e := db.Engine(p)
				if err := e.Begin(); err != nil {
					t.Fatal(err)
				}
				key := uint64(2000 + p)
				if err := e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(1)}); err != nil {
					t.Fatal(err)
				}
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// diffSchemas is the two-table schema (with a secondary index) for the
// cross-engine differential test.
func diffSchemas() []*core.Schema {
	return []*core.Schema{
		{
			Name: "users",
			Columns: []core.Column{
				{Name: "id", Type: core.TInt},
				{Name: "balance", Type: core.TInt},
				{Name: "name", Type: core.TString, Size: 64},
			},
			Secondary: []core.IndexSpec{{
				Name:   "by_balance",
				SecKey: func(row []core.Value) uint32 { return uint32(row[1].I) },
				Cols:   []int{1},
			}},
		},
		{
			Name: "items",
			Columns: []core.Column{
				{Name: "id", Type: core.TInt},
				{Name: "qty", Type: core.TInt},
			},
		},
	}
}

const diffBalanceClasses = 64

// diffOp is one scripted transaction of the differential trace.
type diffOp struct {
	table  string
	kind   int // 0 insert, 1 update, 2 delete
	key    uint64
	val    int64
	abort  bool
	strVal string
}

// diffTrace generates the seeded operation script shared by all engines.
func diffTrace(seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, 0, n)
	for i := 0; i < n; i++ {
		op := diffOp{
			kind:  rng.Intn(3),
			val:   int64(rng.Intn(diffBalanceClasses)),
			abort: rng.Intn(10) == 0,
		}
		if rng.Intn(4) == 3 {
			op.table = "items"
			op.key = uint64(rng.Intn(80)) + 1
		} else {
			op.table = "users"
			op.key = uint64(rng.Intn(150)) + 1
			op.strVal = fmt.Sprintf("name-%d-%d", i, op.key)
		}
		ops = append(ops, op)
	}
	return ops
}

// diffApply runs one scripted op as a single-partition transaction against
// the engine owning the key, mirroring committed effects into the model.
func diffApply(db *DB, model map[string]map[uint64][]core.Value, op diffOp) error {
	e := db.Engine(db.Route(op.key))
	rows := model[op.table]
	if err := e.Begin(); err != nil {
		return err
	}
	var apply func()
	_, exists := rows[op.key]
	switch {
	case op.kind == 0 && !exists:
		row := diffRow(op)
		if err := e.Insert(op.table, op.key, row); err != nil {
			return fmt.Errorf("insert %s/%d: %w", op.table, op.key, err)
		}
		apply = func() { rows[op.key] = core.CloneRow(row) }
	case op.kind == 1 && exists:
		upd := core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(op.val)}}
		if err := e.Update(op.table, op.key, upd); err != nil {
			return fmt.Errorf("update %s/%d: %w", op.table, op.key, err)
		}
		apply = func() {
			row := core.CloneRow(rows[op.key])
			core.ApplyDelta(row, upd)
			rows[op.key] = row
		}
	case op.kind == 2 && exists:
		if err := e.Delete(op.table, op.key); err != nil {
			return fmt.Errorf("delete %s/%d: %w", op.table, op.key, err)
		}
		apply = func() { delete(rows, op.key) }
	}
	if op.abort {
		return e.Abort()
	}
	if err := e.Commit(); err != nil {
		return err
	}
	if apply != nil {
		apply()
	}
	return nil
}

func diffRow(op diffOp) []core.Value {
	if op.table == "items" {
		return []core.Value{core.IntVal(int64(op.key)), core.IntVal(op.val)}
	}
	return []core.Value{core.IntVal(int64(op.key)), core.IntVal(op.val), core.StrVal(op.strVal)}
}

// digestEngineState canonically serializes the full visible state — primary
// scans of both tables partition by partition, plus sorted secondary-index
// scans over every balance class — and hashes it.
func digestEngineState(db *DB, schemas []*core.Schema) ([32]byte, error) {
	h := sha256.New()
	var le [8]byte
	writeU64 := func(v uint64) { binary.LittleEndian.PutUint64(le[:], v); h.Write(le[:]) }
	for p := 0; p < db.Partitions(); p++ {
		e := db.Engine(p)
		for _, sch := range schemas {
			var scanErr error
			if err := e.ScanRange(sch.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
				writeU64(pk)
				for ci, col := range sch.Columns {
					if col.Type == core.TInt {
						writeU64(uint64(row[ci].I))
					} else {
						writeU64(uint64(len(row[ci].S)))
						h.Write(row[ci].S)
					}
				}
				return true
			}); err != nil {
				scanErr = err
			}
			if scanErr != nil {
				return [32]byte{}, scanErr
			}
		}
		for sec := uint32(0); sec < diffBalanceClasses; sec++ {
			var pks []uint64
			if err := e.ScanSecondary("users", "by_balance", sec, func(pk uint64) bool {
				pks = append(pks, pk)
				return true
			}); err != nil {
				return [32]byte{}, err
			}
			sortU64(pks)
			writeU64(uint64(sec))
			for _, pk := range pks {
				writeU64(pk)
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// digestModelState serializes the reference model with the identical
// canonical encoding (same partition split, same orderings).
func digestModelState(parts int, route func(uint64) int, schemas []*core.Schema,
	model map[string]map[uint64][]core.Value) [32]byte {
	h := sha256.New()
	var le [8]byte
	writeU64 := func(v uint64) { binary.LittleEndian.PutUint64(le[:], v); h.Write(le[:]) }
	for p := 0; p < parts; p++ {
		for _, sch := range schemas {
			rows := model[sch.Name]
			var keys []uint64
			for k := range rows {
				if route(k) == p {
					keys = append(keys, k)
				}
			}
			sortU64(keys)
			for _, pk := range keys {
				writeU64(pk)
				row := rows[pk]
				for ci, col := range sch.Columns {
					if col.Type == core.TInt {
						writeU64(uint64(row[ci].I))
					} else {
						writeU64(uint64(len(row[ci].S)))
						h.Write(row[ci].S)
					}
				}
			}
		}
		for sec := uint32(0); sec < diffBalanceClasses; sec++ {
			var pks []uint64
			for k, row := range model["users"] {
				if route(k) == p && uint32(row[1].I) == sec {
					pks = append(pks, k)
				}
			}
			sortU64(pks)
			writeU64(uint64(sec))
			for _, pk := range pks {
				writeU64(pk)
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestDifferentialSixEngines runs the identical seeded transaction script
// on all six engines and an in-memory map model: every engine's canonical
// state serialization must be byte-identical to the model's (and therefore
// to every other engine's).
func TestDifferentialSixEngines(t *testing.T) {
	seed := enginetest.BaseSeed()
	ops := diffTrace(seed, 400)
	want := [32]byte{}
	haveWant := false
	for _, kind := range Kinds {
		db, err := New(Config{
			Engine:     kind,
			Partitions: 2,
			Env:        core.EnvConfig{DeviceSize: 64 << 20},
			Options:    core.Options{GroupCommitSize: 1, MemTableCap: 48, LSMGrowth: 3},
			Schemas:    diffSchemas(),
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		model := map[string]map[uint64][]core.Value{
			"users": make(map[uint64][]core.Value),
			"items": make(map[uint64][]core.Value),
		}
		for i, op := range ops {
			if err := diffApply(db, model, op); err != nil {
				t.Fatalf("%s: op %d (seed %d): %v", kind, i, seed, err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", kind, err)
		}
		got, err := digestEngineState(db, diffSchemas())
		if err != nil {
			t.Fatalf("%s: digest: %v", kind, err)
		}
		wantModel := digestModelState(db.Partitions(), db.Route, diffSchemas(), model)
		if got != wantModel {
			t.Fatalf("%s: engine state digest %x != model digest %x (seed %d)", kind, got, wantModel, seed)
		}
		if haveWant && got != want {
			t.Fatalf("%s: state digest %x differs from previous engines' %x (seed %d)", kind, got, want, seed)
		}
		want, haveWant = got, true
	}
}
