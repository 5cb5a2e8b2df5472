package bench

import (
	"nstore/internal/core"
	"nstore/internal/costmodel"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// BreakdownResult holds Fig. 13: the share of execution time spent in each
// engine component (storage / recovery / index / other), per mixture.
type BreakdownResult struct {
	// Shares[mix][engine] = fractions summing to 1.
	Shares map[string]map[testbed.EngineKind]core.Breakdown
}

// Breakdown reproduces Fig. 13 (YCSB, low skew, low NVM latency).
func (r *Runner) Breakdown() (*BreakdownResult, error) {
	res := &BreakdownResult{Shares: make(map[string]map[testbed.EngineKind]core.Breakdown)}
	for _, mix := range ycsb.Mixes {
		res.Shares[mix.Name] = make(map[testbed.EngineKind]core.Breakdown)
		cfg := r.ycsbCfg(mix, ycsb.LowSkew)
		work := ycsb.Generate(cfg)
		for _, kind := range r.S.Engines {
			db, err := r.ycsbDB(kind, nvm.ProfileDRAM, r.S.Options, cfg)
			if err != nil {
				return nil, err
			}
			db.SetLatency(nvm.ProfileLowNVM)
			before := db.Breakdown()
			if _, err := db.ExecuteSequential(work); err != nil {
				return nil, err
			}
			if err := db.Flush(); err != nil {
				return nil, err
			}
			after := db.Breakdown()
			res.Shares[mix.Name][kind] = core.Breakdown{
				Storage:  after.Storage - before.Storage,
				Recovery: after.Recovery - before.Recovery,
				Index:    after.Index - before.Index,
				Other:    after.Other - before.Other,
			}
		}
	}

	r.section("Fig. 13 — execution time breakdown (% storage/recovery/index)")
	w := r.tab()
	fprintf(w, "engine")
	for _, mix := range ycsb.Mixes {
		fprintf(w, "\t%s", mix.Name)
	}
	fprintf(w, "\n")
	for _, kind := range r.S.Engines {
		fprintf(w, "%s", kind)
		for _, mix := range ycsb.Mixes {
			b := res.Shares[mix.Name][kind]
			t := b.Total()
			if t == 0 {
				fprintf(w, "\t-")
				continue
			}
			fprintf(w, "\t%.0f/%.0f/%.0f",
				100*float64(b.Storage)/float64(t),
				100*float64(b.Recovery)/float64(t),
				100*float64(b.Index)/float64(t))
		}
		fprintf(w, "\n")
	}
	w.Flush()
	return res, nil
}

// FootprintResult holds Fig. 14: storage occupied by engine component.
type FootprintResult struct {
	YCSB map[testbed.EngineKind]core.Footprint
	TPCC map[testbed.EngineKind]core.Footprint
}

// Footprint reproduces Fig. 14 (balanced YCSB at low skew, and TPC-C).
func (r *Runner) Footprint() (*FootprintResult, error) {
	res := &FootprintResult{
		YCSB: make(map[testbed.EngineKind]core.Footprint),
		TPCC: make(map[testbed.EngineKind]core.Footprint),
	}
	// after executes work and reports what the engine then occupies, with
	// a checkpoint taken so that component is included.
	after := func(db *testbed.DB, work [][]testbed.Txn) (core.Footprint, error) {
		if _, err := db.ExecuteSequential(work); err != nil {
			return core.Footprint{}, err
		}
		if err := db.Flush(); err != nil {
			return core.Footprint{}, err
		}
		checkpointAll(db)
		return db.Footprint(), nil
	}
	ycfg, tcfg := r.ycsbCfg(ycsb.Balanced, ycsb.LowSkew), r.tpccCfg()
	ywork, twork := ycsb.Generate(ycfg), tpcc.Generate(tcfg)
	for _, kind := range r.S.Engines {
		ydb, err := r.ycsbDB(kind, nvm.ProfileDRAM, r.S.Options, ycfg)
		if err != nil {
			return nil, err
		}
		if res.YCSB[kind], err = after(ydb, ywork); err != nil {
			return nil, err
		}
		tdb, err := r.tpccDB(kind, nvm.ProfileDRAM, r.S.Options, tcfg)
		if err != nil {
			return nil, err
		}
		if res.TPCC[kind], err = after(tdb, twork); err != nil {
			return nil, err
		}
	}

	for wi, m := range []map[testbed.EngineKind]core.Footprint{res.YCSB, res.TPCC} {
		r.section("Fig. 14 — storage footprint (" + []string{"YCSB", "TPC-C"}[wi] + ")")
		w := r.tab()
		fprintf(w, "engine\ttable\tindex\tlog\tcheckpoint\tother\ttotal\n")
		for _, kind := range r.S.Engines {
			f := m[kind]
			fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", kind,
				humanBytes(f.Table), humanBytes(f.Index), humanBytes(f.Log),
				humanBytes(f.Checkpoint), humanBytes(f.Other), humanBytes(f.Total()))
		}
		w.Flush()
	}
	return res, nil
}

// CostModel prints Table 3 (the analytical write-cost model) alongside
// measured bytes written per operation on the live engines.
func (r *Runner) CostModel() error {
	p := costmodel.DefaultParams()
	r.section("Table 3 — analytical bytes written to NVM per operation (model)")
	w := r.tab()
	fprintf(w, "engine\tinsert(mem/log/table)\tupdate\tdelete\n")
	for _, e := range costmodel.Engines {
		fprintf(w, "%s", e)
		for _, op := range []costmodel.Op{costmodel.Insert, costmodel.Update, costmodel.Delete} {
			c := costmodel.Of(e, op, p)
			fprintf(w, "\t%d/%d/%d=%d", c.Memory, c.Log, c.Table, c.Total())
		}
		fprintf(w, "\n")
	}
	w.Flush()

	// Measured: bytes written per op on a small single-partition database.
	r.section("Table 3 — measured bytes written per operation")
	w = r.tab()
	fprintf(w, "engine\tinsert\tupdate\tdelete\tmodel(ins/upd/del)\n")
	schema := ycsb.Schema(ycsb.Config{Fields: 10, FieldSize: 100})
	const ops = 400
	for _, kind := range r.S.Engines {
		db, err := testbed.New(testbed.Config{
			Engine: kind, Partitions: 1,
			Env:     core.EnvConfig{DeviceSize: 256 << 20},
			Options: r.S.Options, Schemas: schema,
		})
		if err != nil {
			return err
		}
		eng := db.Engine(0)
		cfgLoad := ycsb.Config{Tuples: 2000, Partitions: 1, Seed: 3}
		if err := ycsb.Load(db, cfgLoad); err != nil {
			return err
		}
		measure := func(fn func(i int) error) (int64, error) {
			if err := db.Flush(); err != nil {
				return 0, err
			}
			before := db.Stats().BytesWritten
			for i := 0; i < ops; i++ {
				if err := eng.Begin(); err != nil {
					return 0, err
				}
				if err := fn(i); err != nil {
					return 0, err
				}
				if err := eng.Commit(); err != nil {
					return 0, err
				}
			}
			if err := db.Flush(); err != nil {
				return 0, err
			}
			return int64(db.Stats().BytesWritten-before) / ops, nil
		}
		val := make([]byte, 100)
		ins, err := measure(func(i int) error {
			row := []core.Value{core.IntVal(int64(10000 + i))}
			for j := 0; j < 10; j++ {
				row = append(row, core.BytesVal(val))
			}
			return eng.Insert(ycsb.TableName, uint64(10000+i), row)
		})
		if err != nil {
			return err
		}
		upd, err := measure(func(i int) error {
			return eng.Update(ycsb.TableName, uint64(10000+i), core.Update{
				Cols: []int{1}, Vals: []core.Value{core.BytesVal(val)},
			})
		})
		if err != nil {
			return err
		}
		del, err := measure(func(i int) error {
			return eng.Delete(ycsb.TableName, uint64(10000+i))
		})
		if err != nil {
			return err
		}
		me := costmodel.Engine(kind)
		fprintf(w, "%s\t%d\t%d\t%d\t%d/%d/%d\n", kind, ins, upd, del,
			costmodel.Of(me, costmodel.Insert, p).Total(),
			costmodel.Of(me, costmodel.Update, p).Total(),
			costmodel.Of(me, costmodel.Delete, p).Total())
	}
	w.Flush()
	return nil
}

// checkpointAll triggers a checkpoint on engines that support one, so the
// footprint report includes the checkpoint component (Fig. 14).
func checkpointAll(db *testbed.DB) {
	for i := 0; i < db.Partitions(); i++ {
		if ck, ok := db.Engine(i).(interface{ Checkpoint() error }); ok {
			ck.Checkpoint()
		}
	}
}
