package main

import (
	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// nominalSeconds is the measuring time BENCHMARK.json's run_seconds names;
// the schedule lengths below are calibrated so a run takes about that long on
// the 2-core reference box. -seconds scales the schedules in proportion, so
// the work of a run is a pure function of (workload, seed, seconds).
const nominalSeconds = 20

// policy is the fixed measurement policy (README "Fixed policy"). It is
// identical on both sides of any comparison; only the seed and the workload
// vary between runs.
type policy struct {
	Seed       int64
	Partitions int
	Reps       int // K: fresh build + load + whole schedule repetitions

	Env     core.EnvConfig
	Options core.Options

	YCSBTuples int
	ReadTxns   int
	WriteTxns  int
	TPCC       tpcc.Config // Txns is the in-process full-mix count
	NetTPCC    int         // payment frames per network tpcc leg
}

// Per-workload schedule lengths at scale 1. Engines differ ~8x in speed, so
// each workload gets the lengths that fit its slowest engine into the run.
var baseSizes = map[string]struct{ tuples, read, write, tpcc, netTPCC int }{
	"nvm-engines":  {tuples: 6000, read: 12000, write: 6000, tpcc: 360},
	"disk-engines": {tuples: 8000, read: 12000, write: 6000, tpcc: 600},
	"wire":         {tuples: 16000, read: 30000, write: 18000, netTPCC: 12000},
	"cluster":      {tuples: 4800, read: 18000, write: 14400, netTPCC: 3000},
}

func newPolicy(workload string, seed int64, scale float64) policy {
	b := baseSizes[workload]
	sc := func(n int) int {
		v := int(float64(n)*scale) / 12 * 12 // divisible by the partitions and by the traced run's halves
		if v < 24 {
			v = 24
		}
		return v
	}
	// Below scale 1 (tests) the TPC-C database and K shrink too, or set-up
	// would dominate a smoke run; at and above scale 1 both are fixed.
	customers, items, reps := 30, 200, 5
	if scale < 1 {
		customers, items, reps = max(10, int(30*scale)), max(50, int(200*scale)), 2
	}
	return policy{
		Seed:       seed,
		Partitions: 2,
		Reps:       reps,
		Env: core.EnvConfig{
			// Three times what the hungriest engine needs (disk-engines passes at
			// 40 MB). The arenas are Go heap: with 192 MB ones a repetition's
			// set-up spent 0.3-4 s re-zeroing the previous repetition's memory.
			DeviceSize: 96 << 20,
			Profile:    nvm.ProfileLowNVM,
			FSExtent:   512 << 10,
			CacheSize:  128 << 10,
		},
		Options: core.Options{
			MemTableCap:         512,
			CheckpointEvery:     4000,
			FlushWorkers:        0,
			RecoveryParallelism: 1, // see README known_issues
		},
		YCSBTuples: sc(b.tuples),
		ReadTxns:   sc(b.read),
		WriteTxns:  sc(b.write),
		TPCC: tpcc.Config{
			Warehouses: 2, Districts: 10, Customers: customers, Items: items,
			Txns: sc(b.tpcc), Partitions: 2, Seed: seed,
		},
		NetTPCC: sc(b.netTPCC),
	}
}

func (p policy) ycsb(mix ycsb.Mix, skew ycsb.Skew, txns int) ycsb.Config {
	return ycsb.Config{Tuples: p.YCSBTuples, Txns: txns, Partitions: p.Partitions,
		Mix: mix, Skew: skew, Seed: p.Seed}
}

func (p policy) readCfg() ycsb.Config  { return p.ycsb(ycsb.ReadOnly, ycsb.HighSkew, p.ReadTxns) }
func (p policy) writeCfg() ycsb.Config { return p.ycsb(ycsb.WriteHeavy, ycsb.LowSkew, p.WriteTxns) }

// schemas is the one database every workload builds: the YCSB table plus the
// nine TPC-C tables, so the three legs run against the same engine instance.
func (p policy) schemas() []*core.Schema {
	return append(ycsb.Schema(p.readCfg()), tpcc.Schemas()...)
}

func (p policy) dbConfig(kind testbed.EngineKind, schemas []*core.Schema) testbed.Config {
	return testbed.Config{Engine: kind, Partitions: p.Partitions, Env: p.Env, Options: p.Options, Schemas: schemas}
}

// load fills a fresh database with both workloads' initial state.
func (p policy) load(db *testbed.DB) error {
	if err := ycsb.Load(db, p.readCfg()); err != nil {
		return err
	}
	return tpcc.Load(db, p.TPCC)
}
