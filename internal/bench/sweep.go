package bench

import (
	"fmt"
	"strconv"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/workload/ycsb"
)

// sweep describes a one-knob sensitivity experiment (Figs. 15–16 and the
// ablations DESIGN.md calls out): YCSB at low skew unless skew names another,
// and 2x NVM latency on a fresh database per point, with one option or device
// setting varied.
type sweep struct {
	title   string
	engines []testbed.EngineKind
	mixes   []ycsb.Mix
	skew    ycsb.Skew
	values  func(testbed.EngineKind) []int
	label   func(v int) string
	// One of the two applies an axis value: opts edits the options the
	// database is built with, device adjusts the loaded database's devices.
	opts   func(kind testbed.EngineKind, o *core.Options, v int)
	device func(db *testbed.DB, v int)
	// warm executes the workload once before the measured pass.
	warm bool
	// axis heads the value column of the per-engine value × mixture
	// throughput grids. A sweep with cols prints one engine × value table
	// instead: per column group, a header pattern over the value's label
	// and the cell.
	axis string
	cols []sweepCol
}

type sweepCol struct {
	head string
	cell func(Measurement) string
}

// SweepPoint is one measured point of a sweep: Value is the axis value,
// Latency is always the 2x profile.
type SweepPoint struct {
	Measurement
	Value int
}

// SweepPoints is a sweep's measurements.
type SweepPoints []SweepPoint

// At returns the point of an engine and mixture at an axis value; the zero
// Measurement if the sweep has none.
func (ps SweepPoints) At(kind testbed.EngineKind, mix ycsb.Mix, v int) Measurement {
	for _, p := range ps {
		if p.Engine == kind && p.Mix == mix.Name && p.Value == v {
			return p.Measurement
		}
	}
	return Measurement{}
}

var (
	nvmEngines = []testbed.EngineKind{testbed.NVMInP, testbed.NVMCoW, testbed.NVMLog}

	throughputCell = func(m Measurement) string { return human(m.Throughput) }
)

func fixed(vs ...int) func(testbed.EngineKind) []int {
	return func(testbed.EngineKind) []int { return vs }
}

var nodeSizeSweep = sweep{
	title:   "Fig. 15 — B+tree node size sensitivity (YCSB, 2x latency, low skew; txn/sec)",
	engines: nvmEngines,
	mixes:   ycsb.Mixes,
	values: func(kind testbed.EngineKind) []int {
		if kind == testbed.NVMCoW {
			return []int{1024, 2048, 4096, 8192, 16384}
		}
		return []int{128, 256, 512, 1024, 2048}
	},
	label: strconv.Itoa,
	opts: func(kind testbed.EngineKind, o *core.Options, v int) {
		if kind == testbed.NVMCoW {
			o.CowPageSize = v
		} else {
			o.BTreeNodeSize = v
		}
	},
	axis: "node(B)",
}

// syncLatencySweep grows the sync primitive's cost from the current
// baseline (0) to 10 us, emulating PCOMMIT-class instructions; values are
// nanoseconds.
var syncLatencySweep = sweep{
	title:   "Fig. 16 — sync primitive latency sensitivity (YCSB, 2x latency, low skew; txn/sec)",
	engines: nvmEngines,
	mixes:   ycsb.Mixes,
	values:  fixed(0, 10, 100, 1000, 10000),
	label: func(v int) string {
		if v == 0 {
			return "current"
		}
		return time.Duration(v).String()
	},
	device: func(db *testbed.DB, v int) { db.SetSyncExtra(time.Duration(v)) },
	warm:   true,
	axis:   "sync-lat",
}

// clwbSweep compares the default sync primitive, CLWB (the Appendix C
// instruction-set extension: it "can retain a copy of the line in the cache
// hierarchy, reducing the possibility of cache misses during subsequent
// accesses"), against the CLFLUSH one the ablation switches back to (0);
// CLWB should reduce re-fetch loads. It runs at high skew, where the lines
// an update writes back are soon read again: at low skew an NVM-InP update
// writes back the field of a tuple the next updates rarely touch, and the
// clean line CLWB keeps costs the cache about what it saves (ablation A1 in
// EXPERIMENTS.md).
var clwbSweep = sweep{
	title:   "Ablation — sync primitive: CLFLUSH vs CLWB (write-heavy YCSB, high skew, 2x latency)",
	engines: nvmEngines,
	mixes:   []ycsb.Mix{ycsb.WriteHeavy},
	skew:    ycsb.HighSkew,
	values:  fixed(0, 1),
	label:   func(v int) string { return [2]string{"clflush", "clwb"}[v] },
	device:  func(db *testbed.DB, v int) { db.SetSyncCLWB(v == 1) },
	warm:    true,
	cols: []sweepCol{
		{"%s txn/s", throughputCell},
		{"%s loads", func(m Measurement) string { return human(float64(m.Loads)) }},
	},
}

// groupCommitSweep varies the group-commit batch size, the design knob
// trading transaction latency against fsync amortization (§3.1, §3.2), on
// the engines that use it.
var groupCommitSweep = sweep{
	title:   "Ablation — group commit batch size (write-heavy YCSB, 2x latency)",
	engines: []testbed.EngineKind{testbed.InP, testbed.CoW, testbed.Log, testbed.NVMCoW},
	mixes:   []ycsb.Mix{ycsb.WriteHeavy},
	values:  fixed(1, 4, 16, 64, 256),
	label:   strconv.Itoa,
	opts:    func(_ testbed.EngineKind, o *core.Options, v int) { o.GroupCommitSize = v },
	cols:    []sweepCol{{"G=%s", throughputCell}},
}

// memTableSweep varies the MemTable capacity of the log-structured engines:
// small MemTables flush often (higher write amplification via compaction,
// the cost model's theta); large ones lengthen the Log engine's recovery
// and coalescing chains.
var memTableSweep = sweep{
	title:   "Ablation — MemTable capacity / write amplification (balanced YCSB, 2x latency)",
	engines: []testbed.EngineKind{testbed.Log, testbed.NVMLog},
	mixes:   []ycsb.Mix{ycsb.Balanced},
	values:  fixed(128, 512, 2048, 8192),
	label:   strconv.Itoa,
	opts:    func(_ testbed.EngineKind, o *core.Options, v int) { o.MemTableCap = v },
	cols: []sweepCol{{"cap=%s", func(m Measurement) string {
		return fmt.Sprintf("%s (%.0fMB)", human(m.Throughput), float64(m.BytesWritten)/(1<<20))
	}}},
}

// NodeSize reproduces Fig. 15 (Appendix B): throughput of the NVM-aware
// engines as a function of B+tree / CoW B+tree node size.
func (r *Runner) NodeSize() (SweepPoints, error) { return r.sweep(&nodeSizeSweep) }

// SyncLatency reproduces Fig. 16 (Appendix C).
func (r *Runner) SyncLatency() (SweepPoints, error) { return r.sweep(&syncLatencySweep) }

// CLWB runs ablation A1 (CLFLUSH vs CLWB).
func (r *Runner) CLWB() (SweepPoints, error) { return r.sweep(&clwbSweep) }

// GroupCommit runs the group-commit batch size ablation.
func (r *Runner) GroupCommit() (SweepPoints, error) { return r.sweep(&groupCommitSweep) }

// MemTable runs the MemTable capacity ablation.
func (r *Runner) MemTable() (SweepPoints, error) { return r.sweep(&memTableSweep) }

// Ablations runs the three ablations beyond the paper's numbered figures.
func (r *Runner) Ablations() error {
	for _, sw := range []*sweep{&clwbSweep, &groupCommitSweep, &memTableSweep} {
		if _, err := r.sweep(sw); err != nil {
			return err
		}
	}
	return nil
}

// sweepPoint builds, loads and measures one point of sw.
func (r *Runner) sweepPoint(sw *sweep, kind testbed.EngineKind, cfg ycsb.Config, work [][]testbed.Txn, v int) (SweepPoint, error) {
	opts := r.S.Options
	if sw.opts != nil {
		sw.opts(kind, &opts, v)
	}
	db, err := r.ycsbDB(kind, nvm.ProfileLowNVM, opts, cfg)
	if err != nil {
		return SweepPoint{}, err
	}
	if sw.device != nil {
		sw.device(db, v)
	}
	if sw.warm {
		if _, err := db.ExecuteSequential(work); err != nil {
			return SweepPoint{}, err
		}
	}
	m, err := measured(db, kind, cfg.Mix.Name, cfg.Skew.Name, nvm.ProfileLowNVM.Name, work)
	return SweepPoint{Measurement: m, Value: v}, err
}

// sweep measures every (engine, mixture, value) point of sw and prints its
// tables.
func (r *Runner) sweep(sw *sweep) (SweepPoints, error) {
	var points SweepPoints
	for _, mix := range sw.mixes {
		skew := sw.skew
		if skew.Name == "" {
			skew = ycsb.LowSkew
		}
		cfg := r.ycsbCfg(mix, skew)
		work := ycsb.Generate(cfg)
		for _, kind := range sw.engines {
			for _, v := range sw.values(kind) {
				p, err := r.sweepPoint(sw, kind, cfg, work, v)
				if err != nil {
					return nil, err
				}
				points = append(points, p)
			}
		}
	}

	r.section(sw.title)
	if sw.cols == nil {
		for _, kind := range sw.engines {
			r.printf("\n%s:\n", kind)
			w := r.tab()
			fprintf(w, "%s", sw.axis)
			for _, mix := range sw.mixes {
				fprintf(w, "\t%s", mix.Name)
			}
			fprintf(w, "\n")
			for _, v := range sw.values(kind) {
				fprintf(w, "%s", sw.label(v))
				for _, mix := range sw.mixes {
					fprintf(w, "\t%s", throughputCell(points.At(kind, mix, v)))
				}
				fprintf(w, "\n")
			}
			w.Flush()
		}
		return points, nil
	}
	w := r.tab()
	fprintf(w, "engine")
	for _, col := range sw.cols {
		for _, v := range sw.values(sw.engines[0]) {
			fprintf(w, "\t"+col.head, sw.label(v))
		}
	}
	fprintf(w, "\n")
	for _, kind := range sw.engines {
		fprintf(w, "%s", kind)
		for _, col := range sw.cols {
			for _, v := range sw.values(kind) {
				fprintf(w, "\t%s", col.cell(points.At(kind, sw.mixes[0], v)))
			}
		}
		fprintf(w, "\n")
	}
	w.Flush()
	return points, nil
}
