package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"nstore/internal/core"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
)

// new2PCDB is newDB with the hidden txn2pc bookkeeping tables attached, so
// lock records land in real shadowing tables like a cluster node's.
func new2PCDB(t testing.TB, kind testbed.EngineKind) *testbed.DB {
	t.Helper()
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: 1,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: 1},
		Schemas:    txn2pc.AugmentSchemas(schemas()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPrewriteAndPlainWriteSerialize pins the property the wire server's
// write path leans on: a cross-shard prewrite's lock-table write and a plain
// client write to the same key are both transactions on the partition's one
// executor, so whichever runs first wins and the other sees its effect. The
// loser surfaces a semantic failure (LockedError for the plain write,
// ErrKeyExists for the prewrite) — never a lost update, never a plain write
// landing under a live lock.
func TestPrewriteAndPlainWriteSerialize(t *testing.T) {
	const nKeys = 24
	db := new2PCDB(t, testbed.NVMInP)
	rt := New(db, Config{}) // the default queue holds all 2 × nKeys submissions
	defer rt.Close()
	ctx := context.Background()

	txnID := func(k uint64) uint64 { return 5000 + k }
	prewrite := func(k uint64) testbed.Txn {
		return func(e core.Engine) error {
			return txn2pc.Prewrite(e, &wire.Request{
				Op: wire.OpTxnPrewrite, Txn: txnID(k), PriShard: 0,
				Table: "t", Key: k,
				Ops: []wire.Request{{Op: wire.OpPut, Table: "t", Key: k,
					Row: []core.Value{core.IntVal(int64(k)), core.IntVal(int64(100 + k))}}},
			})
		}
	}
	guardedPut := func(k uint64) testbed.Txn {
		return func(e core.Engine) error {
			if err := txn2pc.LockedAt(e, "t", k); err != nil {
				return err
			}
			return e.Insert("t", k, []core.Value{core.IntVal(int64(k)), core.IntVal(int64(200 + k))})
		}
	}

	prewriteWon := make([]bool, nKeys)
	var wg sync.WaitGroup
	for k := uint64(0); k < nKeys; k++ {
		wg.Add(2)
		errA := make(chan error, 1)
		go func(k uint64) { defer wg.Done(); errA <- rt.SubmitPart(ctx, 0, prewrite(k)) }(k)
		go func(k uint64) {
			defer wg.Done()
			errB := rt.SubmitPart(ctx, 0, guardedPut(k))
			a := <-errA
			switch {
			case a == nil && errB == nil:
				t.Errorf("key %d: prewrite and plain write both acked", k)
			case a != nil && errB != nil:
				t.Errorf("key %d: both sides lost: prewrite=%v put=%v", k, a, errB)
			case a == nil:
				if txn2pc.AsLocked(errB) == nil {
					t.Errorf("key %d: plain write lost to the lock but got %v, want LockedError", k, errB)
				}
				prewriteWon[k] = true
			default:
				if !errors.Is(a, core.ErrKeyExists) {
					t.Errorf("key %d: prewrite lost to the plain write but got %v, want ErrKeyExists", k, a)
				}
			}
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settle every surviving lock forward and check the serial outcome: the
	// committed buffered value where the prewrite won, the plain value where
	// it lost — never a mix, never a leftover lock.
	for k := uint64(0); k < nKeys; k++ {
		want := int64(200 + k)
		if prewriteWon[k] {
			err := rt.SubmitPart(ctx, 0, func(e core.Engine) error {
				return txn2pc.Commit(e, txnID(k), true, []wire.LockRef{{Table: "t", Key: k}})
			})
			if err != nil {
				t.Fatalf("key %d: commit: %v", k, err)
			}
			want = int64(100 + k)
		}
		if got := mustGet(t, db, 0, k); got != want {
			t.Fatalf("key %d = %d, want %d (prewriteWon=%v)", k, got, want, prewriteWon[k])
		}
		if l, ok, err := txn2pc.ReadLock(db.Engine(0), "t", k); err != nil || ok {
			t.Fatalf("key %d: leftover lock %+v (err=%v)", k, l, err)
		}
	}
}
