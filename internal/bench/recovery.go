package bench

import (
	"fmt"
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
		if kind == testbed.CoW || kind == testbed.NVMCoW {
			// The CoW engines have no recovery process (§3.2, §4.2); they
			// are reported as ~0 like the paper's omission.
			zeros := make([]time.Duration, len(res.Txns))
			res.Latency[kind] = [2][]time.Duration{zeros, zeros}
			none := make([]nvm.Stats, len(res.Txns))
			res.Device[kind] = [2][]nvm.Stats{none, none}
			continue
		}
		var lat [2][]time.Duration
		var dev [2][]nvm.Stats
		for _, n := range res.Txns {
			for wi, recoverAfter := range workloads {
				d, st, err := recoverAfter(kind, opts, n)
				if err != nil {
					return nil, err
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

// RecoverySweepPoint is one (engine, WAL-size) data point of the
// sequential-vs-parallel recovery sweep.
type RecoverySweepPoint struct {
	Engine testbed.EngineKind
	Txns   int
	// Sequential and Parallel model the recovery latency on parallel
	// hardware, the same convention as ExecuteSequential: partitions are
	// recovered one after another on the calling goroutine (stable
	// measurement, no shared-CPU noise), and the effective time is the sum
	// over partitions for the sequential pipeline vs the slowest single
	// partition for the parallel one — partitions share no state during
	// recovery, so on real hardware they recover concurrently.
	Sequential time.Duration
	Parallel   time.Duration
	// Records sums the engines' recovery work units across partitions
	// (parallel pass); Workers is the intra-engine fan-out it ran with.
	Records int64
	Workers int
}

// Speedup is the sequential/parallel wall-clock ratio.
func (p RecoverySweepPoint) Speedup() float64 {
	if p.Parallel <= 0 {
		return 0
	}
	return float64(p.Sequential) / float64(p.Parallel)
}

// RecoverySweepResult holds the recovery sweep (BENCH_recovery.json).
type RecoverySweepResult struct {
	Points []RecoverySweepPoint
}

// RecoverySweep measures crash recovery sequential vs parallel for every
// engine at each Fig. 12 WAL size, asserting that both recoveries converge
// to an identical state digest. Workload: YCSB write-heavy/low-skew, with
// checkpointing and MemTable flushing off so the traditional engines replay
// the full WAL.
func (r *Runner) RecoverySweep() (*RecoverySweepResult, error) {
	opts := r.S.Options
	opts.CheckpointEvery = 1 << 30
	opts.MemTableCap = 1 << 30

	res := &RecoverySweepResult{}
	for _, kind := range r.S.Engines {
		for _, n := range r.S.RecoveryTxns {
			seqStats, seqDig, err := r.recoverMeasured(kind, opts, n, 1)
			if err != nil {
				return nil, err
			}
			parStats, parDig, err := r.recoverMeasured(kind, opts, n, 0)
			if err != nil {
				return nil, err
			}
			if seqDig != parDig {
				return nil, fmt.Errorf("bench: %s at %d txns: sequential and parallel recovery digests differ", kind, n)
			}
			pt := RecoverySweepPoint{Engine: kind, Txns: n}
			for _, s := range seqStats {
				pt.Sequential += s.Wall // sequential pipeline: partitions back to back
			}
			for _, s := range parStats {
				if s.Wall > pt.Parallel {
					pt.Parallel = s.Wall // parallel pipeline: slowest partition
				}
				pt.Records += s.Records
				if s.Workers > pt.Workers {
					pt.Workers = s.Workers
				}
			}
			res.Points = append(res.Points, pt)
		}
	}

	r.section("Recovery sweep — sequential vs parallel (YCSB write-heavy)")
	w := r.tab()
	fprintf(w, "engine\ttxns\tsequential\tparallel\tspeedup\trecords\tworkers\n")
	for _, p := range res.Points {
		fprintf(w, "%s\t%d\t%v\t%v\t%.2fx\t%d\t%d\n",
			p.Engine, p.Txns,
			p.Sequential.Round(10*time.Microsecond), p.Parallel.Round(10*time.Microsecond),
			p.Speedup(), p.Records, p.Workers)
	}
	w.Flush()
	return res, nil
}

// recoverMeasured builds a deterministic YCSB database, executes txns,
// crashes, and recovers partition by partition on the calling goroutine
// (RecoverWith(1) — stable per-partition walls without shared-CPU noise).
// parallelism selects the engines' intra-recovery fan-out: 1 forces fully
// sequential recovery, 0 the bounded CPU default.
func (r *Runner) recoverMeasured(kind testbed.EngineKind, opts core.Options, txns, parallelism int) ([]testbed.RecoveryStat, [32]byte, error) {
	o := opts
	o.RecoveryParallelism = parallelism
	cfg := r.ycsbCfg(ycsb.WriteHeavy, ycsb.LowSkew)
	cfg.Txns = txns
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: r.S.Partitions,
		Env:        r.envCfg(profileByName(r.S, "dram")),
		Options:    o,
		Schemas:    ycsb.Schema(cfg),
	})
	if err != nil {
		return nil, [32]byte{}, err
	}
	if err := ycsb.Load(db, cfg); err != nil {
		return nil, [32]byte{}, err
	}
	if _, err := db.Execute(ycsb.Generate(cfg)); err != nil {
		return nil, [32]byte{}, err
	}
	if err := db.Flush(); err != nil {
		return nil, [32]byte{}, err
	}
	db.Crash()
	if _, err := db.RecoverWith(1); err != nil {
		return nil, [32]byte{}, err
	}
	dig, err := db.StateDigest()
	if err != nil {
		return nil, [32]byte{}, err
	}
	return db.RecoveryStats(), dig, nil
}

// crashAndRecover power-cycles db and returns its recovery's wall time and
// the device counters the recovery consumed.
func crashAndRecover(db *testbed.DB) (time.Duration, nvm.Stats, error) {
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
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: r.S.Partitions,
		Env:        r.envCfg(profileByName(r.S, "dram")),
		Options:    opts,
		Schemas:    ycsb.Schema(cfg),
	})
	if err != nil {
		return 0, nvm.Stats{}, err
	}
	if err := ycsb.Load(db, cfg); err != nil {
		return 0, nvm.Stats{}, err
	}
	if _, err := db.Execute(ycsb.Generate(cfg)); err != nil {
		return 0, nvm.Stats{}, err
	}
	return crashAndRecover(db)
}

func (r *Runner) recoveryTPCC(kind testbed.EngineKind, opts core.Options, txns int) (time.Duration, nvm.Stats, error) {
	cfg := r.tpccCfg()
	cfg.Txns = txns
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: r.S.Partitions,
		Env:        r.envCfg(profileByName(r.S, "dram")),
		Options:    opts,
		Schemas:    tpcc.Schemas(),
	})
	if err != nil {
		return 0, nvm.Stats{}, err
	}
	if err := tpcc.Load(db, cfg); err != nil {
		return 0, nvm.Stats{}, err
	}
	if _, err := db.Execute(tpcc.Generate(cfg)); err != nil {
		return 0, nvm.Stats{}, err
	}
	return crashAndRecover(db)
}
