package txn2pc_test

import (
	"testing"

	"nstore/internal/core"
	"nstore/internal/netdrill"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
	"nstore/internal/workload/tpcc"
)

// TestPrewriteDeviceLoads pins what one cross-shard TPC-C payment's prewrite
// loads on the customer's shard (nvm-inp, cache emptied first): the status
// record probe, the lock-table probe, the customer's existence — one
// index lookup, no field of the 21-column row — and the lock record's insert,
// whose WAL entry and var-slots are streamed into chunks on lines of their
// own: 80 lines. Checking existence with Get, as Prewrite did before, loads
// the row's fields on top: 92.
func TestPrewriteDeviceLoads(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Districts: 2, Customers: 30, Items: 100, Partitions: 2, Txns: 8, Seed: 3}
	measure := func(existence func(core.Engine, string, uint64) (bool, error)) nvm.Stats {
		db, err := testbed.New(testbed.Config{Engine: testbed.NVMInP, Partitions: cfg.Partitions,
			Env:     core.EnvConfig{DeviceSize: 64 << 20},
			Options: core.Options{GroupCommitSize: 1},
			Schemas: txn2pc.AugmentSchemas(tpcc.Schemas())})
		if err != nil {
			t.Fatal(err)
		}
		if err := tpcc.Load(db, cfg); err != nil {
			t.Fatal(err)
		}
		_, cross := netdrill.TPCCPaymentTxns(cfg)
		pay := cross[0][0]
		cust := pay[2] // the customer's RMW, homed on the other shard
		if cust.Table != tpcc.TCustomer || cust.Part == 0 {
			t.Fatalf("payment op 2 is %s on shard %d, want the remote customer", cust.Table, cust.Part)
		}
		eng, dev := db.Engine(int(cust.Part)), db.Env(int(cust.Part)).Dev
		dev.EvictAll()
		before := dev.Stats()
		err = txn2pc.Run(eng, func() error {
			if existence != nil {
				if ok, err := existence(eng, cust.Table, cust.Key); err != nil || !ok {
					t.Fatalf("customer %d: found %v, err %v", cust.Key, ok, err)
				}
			}
			return txn2pc.Prewrite(eng, &wire.Request{Op: wire.OpTxnPrewrite, Txn: 77, PriShard: 0,
				Table: pay[0].Table, Key: pay[0].Key, Ops: []wire.Request{cust}})
		})
		if err != nil {
			t.Fatal(err)
		}
		return dev.Stats().Sub(before)
	}
	got := measure(nil)
	withGet := measure(func(e core.Engine, table string, key uint64) (bool, error) {
		_, ok, err := e.Get(table, key)
		return ok, err
	})
	t.Logf("prewrite: loads %d stores %d fences %d; with a whole-row Get first: loads %d", got.Loads, got.Stores, got.Fences, withGet.Loads)
	const wantLoads = 80
	if got.Loads != wantLoads {
		t.Errorf("a payment's prewrite on the customer shard loaded %d lines, want %d", got.Loads, wantLoads)
	}
	if withGet.Loads <= got.Loads {
		t.Errorf("a whole-row Get ahead of the prewrite loaded %d lines, the prewrite alone %d: the row was not cold", withGet.Loads, got.Loads)
	}
}
