package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvm"
)

// RunCrashInjection exercises an NVM-aware engine with power failures
// injected at random fence boundaries. Because these engines are durable at
// Commit, the recovered database must equal the model exactly as of the
// last successful Commit — the in-flight transaction (if any) must be
// entirely absent, unless the crash struck inside Commit itself: Commit fences
// again behind its commit point (reclaimed slots, NVM-Log's MemTable
// rotation), so a crash there may have lost only the return, and the
// transaction must then be present whole.
func RunCrashInjection(t *testing.T, f Factory, iterations int) {
	schema := testSchema()
	base := BaseSeed()
	for iter := 0; iter < iterations; iter++ {
		// Per-iteration seed, so a failure names the exact schedule and
		// replays with -seed=N (the log only surfaces when the test fails).
		seed := base + int64(iter)
		t.Logf("crash-injection iter %d: seed %d (replay: go test -run CrashInjection -seed=%d)", iter, seed, seed)
		rng := rand.New(rand.NewSource(seed))
		env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
		// GroupCommitSize 1: the CoW engines persist per batch, so the
		// strongest durable-at-commit contract needs one-txn batches.
		opts := core.Options{MemTableCap: 32, LSMGrowth: 3, BTreeNodeSize: 128, GroupCommitSize: 1}
		e, err := f.New(env, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		committed := make(map[uint64][]core.Value) // model at last commit
		working := make(map[uint64][]core.Value)   // model incl. open txn

		env.Dev.FailAfterFences(50 + rng.Intn(2000))
		crashed, inCommit := false, false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != nvm.ErrInjectedCrash {
						panic(r)
					}
					crashed = true
				}
			}()
			for step := 0; step < 250; step++ {
				if err := e.Begin(); err != nil {
					t.Fatal(err)
				}
				// 1-3 operations per transaction.
				nops := 1 + rng.Intn(3)
				for o := 0; o < nops; o++ {
					key := uint64(rng.Intn(120)) + 1
					switch rng.Intn(3) {
					case 0:
						if _, exists := working[key]; !exists {
							row := userRow(int64(key))
							row[1].I = int64(rng.Intn(1000))
							if err := e.Insert("users", key, row); err != nil {
								t.Fatal(err)
							}
							working[key] = core.CloneRow(row)
						}
					case 1:
						if _, exists := working[key]; exists {
							upd := core.Update{Cols: []int{1, 3}, Vals: []core.Value{
								core.IntVal(int64(rng.Intn(1000))),
								core.StrVal(fmt.Sprintf("bio-%d-%d", iter, step)),
							}}
							if err := e.Update("users", key, upd); err != nil {
								t.Fatal(err)
							}
							row := core.CloneRow(working[key])
							core.ApplyDelta(row, upd)
							working[key] = row
						}
					case 2:
						if _, exists := working[key]; exists {
							if err := e.Delete("users", key); err != nil {
								t.Fatal(err)
							}
							delete(working, key)
						}
					}
				}
				if rng.Intn(8) == 0 {
					if err := e.Abort(); err != nil {
						t.Fatal(err)
					}
					working = cloneModel(committed)
				} else {
					inCommit = true
					if err := e.Commit(); err != nil {
						t.Fatal(err)
					}
					inCommit = false
					committed = cloneModel(working)
				}
			}
		}()
		env.Dev.DisarmFail()
		env.Dev.Crash()

		env2, err := env.Reopen()
		if err != nil {
			t.Fatalf("iter %d: reopen: %v", iter, err)
		}
		e2, err := f.Open(env2, schema, opts)
		if err != nil {
			t.Fatalf("iter %d (crashed=%v): open: %v", iter, crashed, err)
		}
		if err := crashState(e2, schema[0], committed); err != nil {
			if !inCommit {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if errW := crashState(e2, schema[0], working); errW != nil {
				t.Fatalf("iter %d: crash in Commit, recovered state is neither the pre-commit one (%v) nor the post-commit one (%v)", iter, err, errW)
			}
		}
		// Engine usable after recovery.
		if err := e2.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := e2.Insert("users", 9999, userRow(9999)); err != nil {
			t.Fatal(err)
		}
		if err := e2.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// crashState checks that the users table holds exactly the model's rows, by
// point read, by scan and through the secondary index.
func crashState(e core.Engine, users *core.Schema, model map[uint64][]core.Value) error {
	for key, want := range model {
		row, ok, err := e.Get("users", key)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("committed key %d lost after crash", key)
		}
		if !core.RowsEqual(users, row, want) {
			return fmt.Errorf("key %d = %v, want %v", key, row, want)
		}
	}
	n := 0
	var phantom error
	if err := e.ScanRange("users", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		n++
		if _, ok := model[pk]; !ok {
			phantom = fmt.Errorf("phantom key %d (in-flight txn leaked)", pk)
		}
		return phantom == nil
	}); err != nil {
		return err
	}
	if phantom != nil {
		return phantom
	}
	if n != len(model) {
		return fmt.Errorf("scan found %d rows, committed model has %d", n, len(model))
	}
	// Secondary index consistent with the rows.
	for key, want := range model {
		found := false
		if err := e.ScanSecondary("users", "by_balance", uint32(want[1].I), func(pk uint64) bool {
			found = pk == key
			return !found
		}); err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("key %d missing from secondary after crash", key)
		}
	}
	return nil
}

func cloneModel(m map[uint64][]core.Value) map[uint64][]core.Value {
	out := make(map[uint64][]core.Value, len(m))
	for k, v := range m {
		out[k] = core.CloneRow(v)
	}
	return out
}
