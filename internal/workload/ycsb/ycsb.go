// Package ycsb implements the YCSB workload of §5.1: one table of tuples
// with a primary key and 10 columns of 100-byte string data (~1 KB per
// tuple), read and update transactions in four mixtures, and two skew
// settings producing a localized hotspot within each partition.
package ycsb

import (
	"fmt"
	"math/rand"

	"nstore/internal/core"
	"nstore/internal/testbed"
)

// Mix is a workload mixture (§5.1).
type Mix struct {
	Name    string
	ReadPct int
}

// The four mixtures.
var (
	ReadOnly   = Mix{"read-only", 100}
	ReadHeavy  = Mix{"read-heavy", 90}
	Balanced   = Mix{"balanced", 50}
	WriteHeavy = Mix{"write-heavy", 10}

	// Mixes lists the mixtures in presentation order.
	Mixes = []Mix{ReadOnly, ReadHeavy, Balanced, WriteHeavy}
)

// Skew is a tuple-access skew setting (§5.1).
type Skew struct {
	Name string
	// TxnFrac of transactions access TupleFrac of the tuples.
	TxnFrac   float64
	TupleFrac float64
}

// The two skew settings.
var (
	LowSkew  = Skew{"low-skew", 0.5, 0.2}
	HighSkew = Skew{"high-skew", 0.9, 0.1}

	// Skews lists the skew settings in presentation order.
	Skews = []Skew{LowSkew, HighSkew}
)

// Config sizes a YCSB run.
type Config struct {
	// Tuples is the number of rows (the paper uses 2M; scale down for
	// laptop runs).
	Tuples int
	// Txns is the total pre-generated transaction count, divided evenly
	// among partitions.
	Txns int
	// Partitions must match the testbed database.
	Partitions int
	Mix        Mix
	Skew       Skew
	// Fields and FieldSize describe the value columns (defaults 10 x 100 B).
	Fields    int
	FieldSize int
	Seed      int64
}

func (c Config) withDefaults() Config {
	if c.Fields == 0 {
		c.Fields = 10
	}
	if c.FieldSize == 0 {
		c.FieldSize = 100
	}
	if c.Partitions == 0 {
		c.Partitions = 8
	}
	if c.Mix.Name == "" {
		c.Mix = Balanced
	}
	if c.Skew.Name == "" {
		c.Skew = LowSkew
	}
	return c
}

// TableName is the single YCSB table.
const TableName = "usertable"

// Schema returns the usertable schema.
func Schema(cfg Config) []*core.Schema {
	cfg = cfg.withDefaults()
	cols := []core.Column{{Name: "ycsb_key", Type: core.TInt}}
	for i := 0; i < cfg.Fields; i++ {
		cols = append(cols, core.Column{Name: fmt.Sprintf("field%d", i), Type: core.TString, Size: cfg.FieldSize})
	}
	return []*core.Schema{{Name: TableName, Columns: cols}}
}

func makeRow(cfg Config, key uint64, rng *rand.Rand) []core.Value {
	row := make([]core.Value, cfg.Fields+1)
	row[0] = core.IntVal(int64(key))
	for i := 1; i <= cfg.Fields; i++ {
		row[i] = core.BytesVal(randBytes(rng, cfg.FieldSize))
	}
	return row
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return b
}

// Load bulk-inserts the initial database, round-robin across partitions,
// then flushes. Each partition's rows are inserted on its
// testbed.DB.EachPartition worker, from the partition's own RNG stream, in
// 256-insert transactions; the partitions load concurrently. The lowest
// failing partition's error is returned.
func Load(db *testbed.DB, cfg Config) error {
	cfg = cfg.withDefaults()
	err := db.EachPartition(func(p int) error {
		if err := loadPartition(db, cfg, p); err != nil {
			return fmt.Errorf("ycsb: partition %d: %w", p, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return db.Flush()
}

// loadPartition inserts partition p's keys (p, p+P, p+2P, ...) in batches.
func loadPartition(db *testbed.DB, cfg Config, p int) error {
	const batch = 256
	rng := rand.New(rand.NewSource(cfg.Seed + int64(p)))
	eng := db.Engine(p)
	n := 0
	inTxn := false
	for key := uint64(p); key < uint64(cfg.Tuples); key += uint64(db.Partitions()) {
		if !inTxn {
			if err := eng.Begin(); err != nil {
				return err
			}
			inTxn = true
		}
		if err := eng.Insert(TableName, key, makeRow(cfg, key, rng)); err != nil {
			return err
		}
		n++
		if n%batch == 0 {
			if err := eng.Commit(); err != nil {
				return err
			}
			inTxn = false
		}
	}
	if inTxn {
		return eng.Commit()
	}
	return nil
}

// pickKey draws a key local to partition p under the skew setting: with
// probability TxnFrac the key falls in the first TupleFrac of the
// partition's tuples (the hotspot).
func pickKey(cfg Config, p int, rng *rand.Rand) uint64 {
	perPart := cfg.Tuples / cfg.Partitions
	hot := int(float64(perPart) * cfg.Skew.TupleFrac)
	if hot < 1 {
		hot = 1
	}
	var idx int
	if rng.Float64() < cfg.Skew.TxnFrac {
		idx = rng.Intn(hot)
	} else if perPart > hot {
		idx = hot + rng.Intn(perPart-hot)
	} else {
		idx = rng.Intn(perPart)
	}
	return uint64(idx*cfg.Partitions + p)
}

// Op is one declarative YCSB operation: a point read, or a single-field
// update. The declarative form is the single source of truth for a
// schedule, so the exact same pre-generated workload can run in-process
// (Txn) or over the network (a wire PUT/GET built from the same fields).
type Op struct {
	Read  bool
	Key   uint64
	Field int    // update: the column index to modify
	Val   []byte // update: the new field value
}

// Txn converts the op to its in-process transaction.
func (o Op) Txn() testbed.Txn {
	if o.Read {
		return readTxn(o.Key)
	}
	return updateTxn(o.Key, o.Field, o.Val)
}

// GenerateOps pre-creates the fixed workload in declarative form, divided
// evenly among the partitions (§5.1: "we pre-generate a fixed workload that
// is the same across all the engines").
func GenerateOps(cfg Config) [][]Op {
	cfg = cfg.withDefaults()
	out := make([][]Op, cfg.Partitions)
	perPart := cfg.Txns / cfg.Partitions
	for p := 0; p < cfg.Partitions; p++ {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p*7919+13)))
		ops := make([]Op, 0, perPart)
		for i := 0; i < perPart; i++ {
			key := pickKey(cfg, p, rng)
			if rng.Intn(100) < cfg.Mix.ReadPct {
				ops = append(ops, Op{Read: true, Key: key})
			} else {
				field := 1 + rng.Intn(cfg.Fields)
				ops = append(ops, Op{Key: key, Field: field, Val: randBytes(rng, cfg.FieldSize)})
			}
		}
		out[p] = ops
	}
	return out
}

// Generate is GenerateOps lowered to executable transactions.
func Generate(cfg Config) [][]testbed.Txn {
	opss := GenerateOps(cfg)
	out := make([][]testbed.Txn, len(opss))
	for p, ops := range opss {
		txns := make([]testbed.Txn, len(ops))
		for i, o := range ops {
			txns[i] = o.Txn()
		}
		out[p] = txns
	}
	return out
}

// readTxn retrieves a single tuple by primary key.
func readTxn(key uint64) testbed.Txn {
	return func(e core.Engine) error {
		_, ok, err := e.Get(TableName, key)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("ycsb: key %d missing", key)
		}
		return nil
	}
}

// updateTxn modifies a single field of a single tuple by primary key.
func updateTxn(key uint64, field int, val []byte) testbed.Txn {
	return func(e core.Engine) error {
		return e.Update(TableName, key, core.Update{
			Cols: []int{field},
			Vals: []core.Value{core.BytesVal(val)},
		})
	}
}
