package tpcc

import (
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
)

func smallCfg() Config {
	return Config{
		Warehouses: 2, Districts: 2, Customers: 30, Items: 100,
		InitialOrders: 30, Txns: 200, Partitions: 2, Seed: 7,
	}
}

func newDB(t testing.TB, kind testbed.EngineKind, cfg Config) *testbed.DB {
	t.Helper()
	return newDBOn(t, kind, cfg, core.EnvConfig{DeviceSize: 256 << 20})
}

func newDBOn(t testing.TB, kind testbed.EngineKind, cfg Config, env core.EnvConfig) *testbed.DB {
	t.Helper()
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: cfg.Partitions,
		Env:        env,
		Schemas:    Schemas(),
		Options:    core.Options{MemTableCap: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadAndRunAllEngines(t *testing.T) {
	cfg := smallCfg()
	for _, kind := range testbed.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			db := newDB(t, kind, cfg)
			if err := Load(db, cfg); err != nil {
				t.Fatal(err)
			}
			res, err := db.Execute(Generate(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if res.Txns != cfg.Txns {
				t.Errorf("ran %d of %d txns", res.Txns, cfg.Txns)
			}
			if res.Committed == 0 {
				t.Error("nothing committed")
			}
			// ~1% of NewOrders abort; with 200 txns it may be zero, but
			// commits must dominate.
			if res.Aborted > res.Committed/5 {
				t.Errorf("too many aborts: %d/%d", res.Aborted, res.Txns)
			}
		})
	}
}

// TestTPCCCountersReproducible: one seed, one set of device counters. The
// cache is small enough that the order a transaction reads its tuples in
// shows up as loads, so a visit in Go map order (StockLevel's stock reads,
// once) makes two runs differ on every engine.
func TestTPCCCountersReproducible(t *testing.T) {
	cfg := smallCfg()
	cfg.Txns = 600
	run := func(t *testing.T, kind testbed.EngineKind) nvm.Stats {
		db := newDBOn(t, kind, cfg, core.EnvConfig{DeviceSize: 256 << 20, Profile: nvm.ProfileLowNVM, CacheSize: 64 << 10})
		if err := Load(db, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Execute(Generate(cfg)); err != nil {
			t.Fatal(err)
		}
		return db.Stats()
	}
	for _, kind := range testbed.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			if a, b := run(t, kind), run(t, kind); a != b {
				t.Errorf("device counters differ between two runs of seed %d:\n  %+v\n  %+v", cfg.Seed, a, b)
			}
		})
	}
}

func TestNewOrderConsistency(t *testing.T) {
	// After running, district next_o_id - initial == orders inserted in
	// that district, and each order has its order lines.
	cfg := smallCfg()
	cfg.Txns = 400
	db := newDB(t, testbed.NVMInP, cfg)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(Generate(cfg)); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		e := db.Engine(cfg.PartitionOf(w))
		for d := 1; d <= cfg.Districts; d++ {
			dRow, ok, err := e.Get(TDistrict, DistrictKey(w, d))
			if err != nil || !ok {
				t.Fatal(err)
			}
			next := int(dRow[DNextOID].I)
			for o := cfg.InitialOrders + 1; o < next; o++ {
				oRow, ok, err := e.Get(TOrder, OrderKey(w, d, o))
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("order %d/%d/%d missing (next=%d)", w, d, o, next)
				}
				olCnt := int(oRow[OOLCnt].I)
				n := 0
				e.ScanRange(TOrderLine, OrderKey(w, d, o)<<4, OrderKey(w, d, o+1)<<4,
					func(pk uint64, row []core.Value) bool { n++; return true })
				if n != olCnt {
					t.Fatalf("order %d/%d/%d has %d lines, expects %d", w, d, o, n, olCnt)
				}
			}
		}
	}
}

func TestAbortedNewOrderLeavesNoTrace(t *testing.T) {
	// Money conservation: warehouse YTD equals initial plus all payment
	// amounts (aborted NewOrders must not change anything).
	cfg := smallCfg()
	cfg.Txns = 600
	db := newDB(t, testbed.InP, cfg)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Every district's next_o_id must correspond to a dense order space:
	// an aborted NewOrder's district bump was rolled back, so no gaps.
	for w := 1; w <= cfg.Warehouses; w++ {
		e := db.Engine(cfg.PartitionOf(w))
		for d := 1; d <= cfg.Districts; d++ {
			dRow, _, _ := e.Get(TDistrict, DistrictKey(w, d))
			next := int(dRow[DNextOID].I)
			if _, ok, _ := e.Get(TOrder, OrderKey(w, d, next-1)); next > cfg.InitialOrders+1 && !ok {
				t.Fatalf("district %d/%d: order %d missing below next_o_id", w, d, next-1)
			}
			if _, ok, _ := e.Get(TOrder, OrderKey(w, d, next)); ok {
				t.Fatalf("district %d/%d: order exists at next_o_id %d", w, d, next)
			}
		}
	}
	_ = res
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	cfg := smallCfg()
	cfg.Txns = 0
	db := newDB(t, testbed.NVMCoW, cfg)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	// Count pending new orders, run enough deliveries, count again.
	countPending := func(w int) int {
		e := db.Engine(cfg.PartitionOf(w))
		n := 0
		for d := 1; d <= cfg.Districts; d++ {
			e.ScanRange(TNewOrder, OrderKey(w, d, 0), OrderKey(w, d+1, 0),
				func(pk uint64, row []core.Value) bool { n++; return true })
		}
		return n
	}
	before := countPending(1)
	if before == 0 {
		t.Fatal("loader created no pending orders")
	}
	e := db.Engine(cfg.PartitionOf(1))
	for i := 0; i < before; i++ { // each delivery clears one per district
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		txn := genDelivery(cfg, rand.New(rand.NewSource(int64(i))), 1)
		if err := txn(e); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if after := countPending(1); after != 0 {
		t.Errorf("%d pending orders remain after %d deliveries", after, before)
	}
}

func TestCustomerByNameLookup(t *testing.T) {
	cfg := smallCfg()
	cfg.Txns = 0
	db := newDB(t, testbed.Log, cfg)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	e := db.Engine(cfg.PartitionOf(1))
	last := lastNameOf(5, cfg.Customers)
	pk, row, err := findCustomerByName(e, 1, 1, last)
	if err != nil {
		t.Fatal(err)
	}
	if string(row[CLast].S) != last {
		t.Errorf("found customer with last name %q, want %q", row[CLast].S, last)
	}
	if pk == 0 {
		t.Error("zero pk")
	}
}

func TestRecoveryAfterTPCC(t *testing.T) {
	cfg := smallCfg()
	db := newDB(t, testbed.NVMLog, cfg)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(Generate(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	// Run another workload on the recovered database.
	cfg2 := cfg
	cfg2.Seed = 99
	res, err := db.Execute(Generate(cfg2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Error("nothing committed after recovery")
	}
}

// updateSpy reports every Update that writes a column a secondary index
// declares it reads.
type updateSpy struct {
	core.Engine
	t       *testing.T
	schemas map[string]*core.Schema
	updates int
}

func (s *updateSpy) Update(table string, key uint64, upd core.Update) error {
	s.updates++
	if s.schemas[table].IndexReads(upd.Cols) {
		s.t.Errorf("update of %s columns %v touches a secondary index", table, upd.Cols)
	}
	return s.Engine.Update(table, key, upd)
}

// TestUpdatesMissIndexColumns: no TPC-C transaction updates a column either
// index reads, so on the engines that update in place the whole mix runs
// without one old-row read or SecKey call on the update path.
func TestUpdatesMissIndexColumns(t *testing.T) {
	cfg := smallCfg()
	db := newDB(t, testbed.NVMInP, cfg)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	spy := &updateSpy{t: t, schemas: map[string]*core.Schema{}}
	for _, s := range Schemas() {
		spy.schemas[s.Name] = s
	}
	for p, txns := range Generate(cfg) {
		spy.Engine = db.Engine(p)
		for _, txn := range txns {
			if err := spy.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := txn(spy); err != nil {
				if err := spy.Abort(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := spy.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if spy.updates == 0 {
		t.Fatal("the mix ran no update")
	}
}
