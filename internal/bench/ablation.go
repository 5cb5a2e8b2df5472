package bench

import (
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/workload/ycsb"
)

// Ablations beyond the paper's numbered figures: each isolates one design
// choice DESIGN.md calls out.

// CLWBResult compares the default sync primitive, CLWB (the Appendix C
// instruction-set extension: it "can retain a copy of the line in the cache
// hierarchy, reducing the possibility of cache misses during subsequent
// accesses"), against the CLFLUSH one the ablation switches back to.
type CLWBResult struct {
	// Throughput[engine][0] = CLFLUSH, [1] = CLWB.
	Throughput map[testbed.EngineKind][2]float64
	// Loads[engine] likewise (CLWB should reduce re-fetch misses).
	Loads map[testbed.EngineKind][2]uint64
}

// CLWB runs the write-heavy YCSB mixture on the NVM-aware engines under
// both sync-primitive semantics.
func (r *Runner) CLWB() (*CLWBResult, error) {
	res := &CLWBResult{
		Throughput: make(map[testbed.EngineKind][2]float64),
		Loads:      make(map[testbed.EngineKind][2]uint64),
	}
	cfg := r.ycsbCfg(ycsb.WriteHeavy, ycsb.LowSkew)
	work := ycsb.Generate(cfg)
	for _, kind := range []testbed.EngineKind{testbed.NVMInP, testbed.NVMCoW, testbed.NVMLog} {
		var tp [2]float64
		var ld [2]uint64
		for mode := 0; mode < 2; mode++ {
			db, err := r.newYCSBDB(kind, cfg)
			if err != nil {
				return nil, err
			}
			db.SetLatency(nvm.ProfileLowNVM)
			db.SetSyncCLWB(mode == 1)
			if _, err := db.ExecuteSequential(work); err != nil { // warm
				return nil, err
			}
			db.ResetStats()
			out, err := db.ExecuteSequential(work)
			if err != nil {
				return nil, err
			}
			tp[mode] = out.Throughput()
			ld[mode] = out.Stats.Loads
		}
		res.Throughput[kind] = tp
		res.Loads[kind] = ld
	}

	r.section("Ablation — sync primitive: CLFLUSH vs CLWB (write-heavy YCSB, 2x latency)")
	w := r.tab()
	fprintf(w, "engine\tclflush txn/s\tclwb txn/s\tclflush loads\tclwb loads\n")
	for _, kind := range []testbed.EngineKind{testbed.NVMInP, testbed.NVMCoW, testbed.NVMLog} {
		fprintf(w, "%s\t%s\t%s\t%s\t%s\n", kind,
			human(res.Throughput[kind][0]), human(res.Throughput[kind][1]),
			human(float64(res.Loads[kind][0])), human(float64(res.Loads[kind][1])))
	}
	w.Flush()
	return res, nil
}

// GroupCommitResult sweeps the group-commit batch size, the design knob
// trading transaction latency against fsync amortization (§3.1, §3.2).
type GroupCommitResult struct {
	Sizes []int
	// Throughput[engine][sizeIdx]
	Throughput map[testbed.EngineKind][]float64
}

// GroupCommit sweeps batch sizes on the engines that use it.
func (r *Runner) GroupCommit() (*GroupCommitResult, error) {
	res := &GroupCommitResult{
		Sizes:      []int{1, 4, 16, 64, 256},
		Throughput: make(map[testbed.EngineKind][]float64),
	}
	for _, kind := range []testbed.EngineKind{testbed.InP, testbed.CoW, testbed.Log, testbed.NVMCoW} {
		for _, g := range res.Sizes {
			opts := r.S.Options
			opts.GroupCommitSize = g
			cfg := r.ycsbCfg(ycsb.WriteHeavy, ycsb.LowSkew)
			db, err := testbed.New(testbed.Config{
				Engine:     kind,
				Partitions: r.S.Partitions,
				Env:        r.envCfg(nvm.ProfileLowNVM),
				Options:    opts,
				Schemas:    ycsb.Schema(cfg),
			})
			if err != nil {
				return nil, err
			}
			if err := ycsb.Load(db, cfg); err != nil {
				return nil, err
			}
			db.ResetStats()
			out, err := db.ExecuteSequential(ycsb.Generate(cfg))
			if err != nil {
				return nil, err
			}
			res.Throughput[kind] = append(res.Throughput[kind], out.Throughput())
		}
	}

	r.section("Ablation — group commit batch size (write-heavy YCSB, 2x latency)")
	w := r.tab()
	fprintf(w, "engine")
	for _, g := range res.Sizes {
		fprintf(w, "\tG=%d", g)
	}
	fprintf(w, "\n")
	for _, kind := range []testbed.EngineKind{testbed.InP, testbed.CoW, testbed.Log, testbed.NVMCoW} {
		fprintf(w, "%s", kind)
		for i := range res.Sizes {
			fprintf(w, "\t%s", human(res.Throughput[kind][i]))
		}
		fprintf(w, "\n")
	}
	w.Flush()
	return res, nil
}

// MemTableResult sweeps the MemTable capacity of the log-structured
// engines: small MemTables flush often (higher write amplification via
// compaction, the cost model's theta); large ones lengthen the Log engine's
// recovery and coalescing chains.
type MemTableResult struct {
	Caps []int
	// Throughput[engine][capIdx] and BytesWritten[engine][capIdx].
	Throughput map[testbed.EngineKind][]float64
	Bytes      map[testbed.EngineKind][]uint64
}

// MemTable sweeps the flush threshold on both log-structured engines.
func (r *Runner) MemTable() (*MemTableResult, error) {
	res := &MemTableResult{
		Caps:       []int{128, 512, 2048, 8192},
		Throughput: make(map[testbed.EngineKind][]float64),
		Bytes:      make(map[testbed.EngineKind][]uint64),
	}
	for _, kind := range []testbed.EngineKind{testbed.Log, testbed.NVMLog} {
		for _, cap := range res.Caps {
			opts := r.S.Options
			opts.MemTableCap = cap
			cfg := r.ycsbCfg(ycsb.Balanced, ycsb.LowSkew)
			db, err := testbed.New(testbed.Config{
				Engine:     kind,
				Partitions: r.S.Partitions,
				Env:        r.envCfg(nvm.ProfileLowNVM),
				Options:    opts,
				Schemas:    ycsb.Schema(cfg),
			})
			if err != nil {
				return nil, err
			}
			if err := ycsb.Load(db, cfg); err != nil {
				return nil, err
			}
			db.ResetStats()
			out, err := db.ExecuteSequential(ycsb.Generate(cfg))
			if err != nil {
				return nil, err
			}
			res.Throughput[kind] = append(res.Throughput[kind], out.Throughput())
			res.Bytes[kind] = append(res.Bytes[kind], out.Stats.BytesWritten)
		}
	}

	r.section("Ablation — MemTable capacity / write amplification (balanced YCSB, 2x latency)")
	w := r.tab()
	fprintf(w, "engine")
	for _, c := range res.Caps {
		fprintf(w, "\tcap=%d", c)
	}
	fprintf(w, "\n")
	for _, kind := range []testbed.EngineKind{testbed.Log, testbed.NVMLog} {
		fprintf(w, "%s", kind)
		for i := range res.Caps {
			fprintf(w, "\t%s (%.0fMB)", human(res.Throughput[kind][i]), float64(res.Bytes[kind][i])/(1<<20))
		}
		fprintf(w, "\n")
	}
	w.Flush()
	return res, nil
}

// Ablations runs all three.
func (r *Runner) Ablations() error {
	if _, err := r.CLWB(); err != nil {
		return err
	}
	if _, err := r.GroupCommit(); err != nil {
		return err
	}
	_, err := r.MemTable()
	return err
}
