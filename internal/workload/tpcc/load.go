package tpcc

import (
	"fmt"
	"math/rand"

	"nstore/internal/core"
	"nstore/internal/testbed"
)

// Config sizes a TPC-C run. The paper configures 8 warehouses and 100,000
// items (~1 GB); defaults here are scaled for laptop runs and adjustable.
type Config struct {
	Warehouses int // default 8
	Districts  int // per warehouse, default 10
	Customers  int // per district, default 120 (spec: 3000)
	Items      int // default 1000 (spec: 100000)
	// InitialOrders per district; the last third start as new orders.
	InitialOrders int // default = Customers
	// Txns is the total pre-generated transaction count.
	Txns       int
	Partitions int // default 8
	Seed       int64
}

func (c Config) withDefaults() Config {
	if c.Warehouses == 0 {
		c.Warehouses = 8
	}
	if c.Districts == 0 {
		c.Districts = 10
	}
	if c.Customers == 0 {
		c.Customers = 120
	}
	if c.Items == 0 {
		c.Items = 1000
	}
	if c.InitialOrders == 0 {
		c.InitialOrders = c.Customers
	}
	if c.Partitions == 0 {
		c.Partitions = 8
	}
	if c.Customers > 4095 {
		panic("tpcc: customers per district must fit 12 bits")
	}
	if c.Items >= 1<<17 {
		panic("tpcc: items must fit 17 bits")
	}
	return c
}

// PartitionOf maps a warehouse to its home partition.
func (c Config) PartitionOf(w int) int { return (w - 1) % c.Partitions }

// syllables for the TPC-C non-uniform customer last names.
var syllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// LastName builds the spec's three-syllable last name for num in 0..999.
func LastName(num int) string {
	return syllables[num/100] + syllables[num/10%10] + syllables[num%10]
}

// nuRand is the spec's non-uniform random distribution NURand(A, x, y).
func nuRand(rng *rand.Rand, a, c, x, y int) int {
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

func randCustomerID(rng *rand.Rand, customers int) int {
	if customers >= 3000 {
		return nuRand(rng, 1023, 259, 1, customers)
	}
	return 1 + rng.Intn(customers)
}

func randItemID(rng *rand.Rand, items int) int {
	if items >= 8192 {
		return nuRand(rng, 8191, 7911, 1, items)
	}
	return 1 + rng.Intn(items)
}

func randLastNum(rng *rand.Rand, customers int) int {
	limit := 999
	if customers < 1000 {
		limit = customers - 1
	}
	return nuRand(rng, 255, 123, 0, limit)
}

// lastNameOf returns the last name assigned to customer c at load time.
func lastNameOf(c, customers int) string {
	if customers < 1000 {
		return LastName((c - 1) % customers % 1000)
	}
	return LastName((c - 1) % 1000)
}

func str(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + rng.Intn(26))
	}
	return b
}

// Load populates the initial database, then flushes: items are replicated
// into every partition; warehouses (with their districts, customers, stock,
// orders) go to their home partitions. Each partition loads on its
// testbed.DB.EachPartition worker, its items first and then its own
// warehouses in increasing order; the partitions load concurrently. The
// lowest failing partition's error is returned.
func Load(db *testbed.DB, cfg Config) error {
	cfg = cfg.withDefaults()
	if db.Partitions() != cfg.Partitions {
		return fmt.Errorf("tpcc: db has %d partitions, config %d", db.Partitions(), cfg.Partitions)
	}
	err := db.EachPartition(func(p int) error {
		if err := loadPartition(db.Engine(p), cfg, p); err != nil {
			return fmt.Errorf("tpcc: partition %d: %w", p, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return db.Flush()
}

// loadPartition loads partition p's copy of the items, then the warehouses
// whose home partition is p.
func loadPartition(eng core.Engine, cfg Config, p int) error {
	if err := loadItems(eng, cfg, p); err != nil {
		return err
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if cfg.PartitionOf(w) != p {
			continue
		}
		if err := loadWarehouse(eng, cfg, w); err != nil {
			return err
		}
	}
	return nil
}

// batcher groups loader inserts into batch-sized transactions.
type batcher struct {
	eng   core.Engine
	n     int
	inTxn bool
}

func (b *batcher) insert(table string, key uint64, row []core.Value) error {
	if !b.inTxn {
		if err := b.eng.Begin(); err != nil {
			return err
		}
		b.inTxn = true
	}
	if err := b.eng.Insert(table, key, row); err != nil {
		return err
	}
	b.n++
	if b.n%256 == 0 {
		b.inTxn = false
		return b.eng.Commit()
	}
	return nil
}

func (b *batcher) done() error {
	if b.inTxn {
		b.inTxn = false
		return b.eng.Commit()
	}
	return nil
}

func loadItems(eng core.Engine, cfg Config, p int) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	b := &batcher{eng: eng}
	for i := 1; i <= cfg.Items; i++ {
		row := []core.Value{
			core.IntVal(int64(i)),
			core.IntVal(int64(rng.Intn(10000))),
			core.IntVal(int64(100 + rng.Intn(9900))), // price in cents
			core.BytesVal(str(rng, 14)),
			core.BytesVal(str(rng, 26)),
		}
		if err := b.insert(TItem, ItemKey(i), row); err != nil {
			return err
		}
	}
	return b.done()
}

func loadWarehouse(eng core.Engine, cfg Config, w int) error {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*31))
	b := &batcher{eng: eng}
	whRow := []core.Value{
		core.IntVal(int64(w)),
		core.BytesVal(str(rng, 8)),
		core.BytesVal(str(rng, 18)),
		core.BytesVal(str(rng, 14)),
		core.BytesVal(str(rng, 2)),
		core.BytesVal(str(rng, 9)),
		core.IntVal(int64(rng.Intn(2001))), // tax 0..20.00%
		core.IntVal(30000000),              // ytd $300,000.00
	}
	if err := b.insert(TWarehouse, WarehouseKey(w), whRow); err != nil {
		return err
	}
	// Stock for every item.
	for i := 1; i <= cfg.Items; i++ {
		row := []core.Value{
			core.IntVal(int64(i)),
			core.IntVal(int64(w)),
			core.IntVal(int64(10 + rng.Intn(91))),
			core.IntVal(0),
			core.IntVal(0),
			core.IntVal(0),
			core.BytesVal(str(rng, 24)),
			core.BytesVal(str(rng, 30)),
		}
		if err := b.insert(TStock, StockKey(w, i), row); err != nil {
			return err
		}
	}
	for d := 1; d <= cfg.Districts; d++ {
		if err := loadDistrict(b, cfg, rng, w, d); err != nil {
			return err
		}
	}
	return b.done()
}

func loadDistrict(b *batcher, cfg Config, rng *rand.Rand, w, d int) error {
	dRow := []core.Value{
		core.IntVal(int64(d)),
		core.IntVal(int64(w)),
		core.BytesVal(str(rng, 8)),
		core.BytesVal(str(rng, 18)),
		core.BytesVal(str(rng, 14)),
		core.BytesVal(str(rng, 2)),
		core.BytesVal(str(rng, 9)),
		core.IntVal(int64(rng.Intn(2001))),
		core.IntVal(3000000),
		core.IntVal(int64(cfg.InitialOrders + 1)),
	}
	if err := b.insert(TDistrict, DistrictKey(w, d), dRow); err != nil {
		return err
	}
	for c := 1; c <= cfg.Customers; c++ {
		credit := "GC"
		if rng.Intn(10) == 0 {
			credit = "BC"
		}
		row := []core.Value{
			core.IntVal(int64(c)),
			core.IntVal(int64(d)),
			core.IntVal(int64(w)),
			core.BytesVal(str(rng, 10)),
			core.StrVal("OE"),
			core.StrVal(lastNameOf(c, cfg.Customers)),
			core.BytesVal(str(rng, 18)),
			core.BytesVal(str(rng, 14)),
			core.BytesVal(str(rng, 2)),
			core.BytesVal(str(rng, 9)),
			core.BytesVal(str(rng, 16)),
			core.StrVal(credit),
			core.IntVal(5000000),
			core.IntVal(-1000), // balance -$10.00
			core.IntVal(1000),
			core.IntVal(1),
			core.BytesVal(str(rng, 100)),
		}
		if err := b.insert(TCustomer, CustomerKey(w, d, c), row); err != nil {
			return err
		}
	}
	// Initial orders: one per customer in random permutation; the last
	// third are still pending delivery (new_order rows).
	perm := rng.Perm(cfg.Customers)
	for o := 1; o <= cfg.InitialOrders; o++ {
		c := perm[(o-1)%cfg.Customers] + 1
		olCnt := 5 + rng.Intn(11)
		carrier := int64(1 + rng.Intn(10))
		pending := o > cfg.InitialOrders*2/3
		if pending {
			carrier = 0
		}
		oRow := []core.Value{
			core.IntVal(int64(o)),
			core.IntVal(int64(d)),
			core.IntVal(int64(w)),
			core.IntVal(int64(c)),
			core.IntVal(int64(o)), // entry date surrogate
			core.IntVal(carrier),
			core.IntVal(int64(olCnt)),
			core.IntVal(1),
		}
		if err := b.insert(TOrder, OrderKey(w, d, o), oRow); err != nil {
			return err
		}
		if pending {
			noRow := []core.Value{
				core.IntVal(int64(o)), core.IntVal(int64(d)), core.IntVal(int64(w)),
			}
			if err := b.insert(TNewOrder, OrderKey(w, d, o), noRow); err != nil {
				return err
			}
		}
		for ol := 1; ol <= olCnt; ol++ {
			item := 1 + rng.Intn(cfg.Items)
			amount := int64(0)
			deliveryD := int64(o)
			if pending {
				amount = int64(1 + rng.Intn(999999))
				deliveryD = 0
			}
			olRow := []core.Value{
				core.IntVal(int64(o)),
				core.IntVal(int64(d)),
				core.IntVal(int64(w)),
				core.IntVal(int64(ol)),
				core.IntVal(int64(item)),
				core.IntVal(int64(w)),
				core.IntVal(deliveryD),
				core.IntVal(5),
				core.IntVal(amount),
				core.BytesVal(str(rng, 24)),
			}
			if err := b.insert(TOrderLine, OrderLineKey(w, d, o, ol), olRow); err != nil {
				return err
			}
		}
	}
	return nil
}
