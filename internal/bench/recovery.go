package bench

import (
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// RecoveryResult holds Fig. 12: recovery latency as a function of the
// number of transactions executed before the crash.
type RecoveryResult struct {
	Txns []int
	// Latency[engine][workload][txnIdx]; workload: 0 YCSB, 1 TPC-C.
	Latency map[testbed.EngineKind][2][]time.Duration
	// Device holds, in the same shape, the device counters each recovery
	// consumed. They are exact where Latency carries run-to-run spread, so
	// they are what the shape of Fig. 12 is asserted on.
	Device map[testbed.EngineKind][2][]nvm.Stats
}

// Recovery reproduces Fig. 12. Checkpointing and MemTable flushing are
// configured off so the traditional engines must replay everything since
// the start, while the NVM-aware engines' latency stays flat.
func (r *Runner) Recovery() (*RecoveryResult, error) {
	res := &RecoveryResult{
		Txns:    r.S.RecoveryTxns,
		Latency: make(map[testbed.EngineKind][2][]time.Duration),
		Device:  make(map[testbed.EngineKind][2][]nvm.Stats),
	}
	opts := r.S.Options
	opts.CheckpointEvery = 1 << 30
	opts.MemTableCap = 1 << 30
	workloads := [2]func(testbed.EngineKind, core.Options, int) (time.Duration, nvm.Stats, error){
		r.recoveryYCSB, r.recoveryTPCC}

	for _, kind := range r.S.Engines {
		// The CoW engines have no recovery process (§3.2, §4.2); they are
		// reported as 0 like the paper's omission.
		noRecovery := kind == testbed.CoW || kind == testbed.NVMCoW
		var lat [2][]time.Duration
		var dev [2][]nvm.Stats
		for _, n := range res.Txns {
			for wi, recoverAfter := range workloads {
				var d time.Duration
				var st nvm.Stats
				if !noRecovery {
					var err error
					if d, st, err = recoverAfter(kind, opts, n); err != nil {
						return nil, err
					}
				}
				lat[wi] = append(lat[wi], d)
				dev[wi] = append(dev[wi], st)
			}
		}
		res.Latency[kind], res.Device[kind] = lat, dev
	}

	for wi, name := range []string{"YCSB", "TPC-C"} {
		r.section("Fig. 12 — recovery latency (" + name + ")")
		w := r.tab()
		fprintf(w, "engine")
		for _, n := range res.Txns {
			fprintf(w, "\t%d txns", n)
		}
		fprintf(w, "\n")
		for _, kind := range r.S.Engines {
			fprintf(w, "%s", kind)
			for i := range res.Txns {
				fprintf(w, "\t%v", res.Latency[kind][wi][i].Round(10*time.Microsecond))
			}
			fprintf(w, "\n")
		}
		w.Flush()
	}
	return res, nil
}

// crashAndRecover executes work on db, power-cycles it and returns the
// recovery's wall time and the device counters the recovery consumed.
func crashAndRecover(db *testbed.DB, work [][]testbed.Txn) (time.Duration, nvm.Stats, error) {
	if _, err := db.Execute(work); err != nil {
		return 0, nvm.Stats{}, err
	}
	if err := db.Flush(); err != nil {
		return 0, nvm.Stats{}, err
	}
	db.Crash()
	before := db.Stats()
	d, err := db.Recover()
	return d, db.Stats().Sub(before), err
}

func (r *Runner) recoveryYCSB(kind testbed.EngineKind, opts core.Options, txns int) (time.Duration, nvm.Stats, error) {
	cfg := r.ycsbCfg(ycsb.WriteHeavy, ycsb.LowSkew)
	cfg.Txns = txns
	db, err := r.ycsbDB(kind, nvm.ProfileDRAM, opts, cfg)
	if err != nil {
		return 0, nvm.Stats{}, err
	}
	return crashAndRecover(db, ycsb.Generate(cfg))
}

func (r *Runner) recoveryTPCC(kind testbed.EngineKind, opts core.Options, txns int) (time.Duration, nvm.Stats, error) {
	cfg := r.tpccCfg()
	cfg.Txns = txns
	db, err := r.tpccDB(kind, nvm.ProfileDRAM, opts, cfg)
	if err != nil {
		return 0, nvm.Stats{}, err
	}
	return crashAndRecover(db, tpcc.Generate(cfg))
}
