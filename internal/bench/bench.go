// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5 and appendices) on the emulated NVM
// device, printing paper-style rows and returning structured results so
// tests can assert the qualitative shapes (who wins, by roughly what
// factor, where the crossovers fall).
package bench

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// Scale sizes the experiments. The paper's full scale (2M tuples, 8M txns,
// 8 warehouses with 100k items) is reachable by raising these knobs; the
// defaults complete quickly on a laptop while preserving relative shapes.
type Scale struct {
	Partitions int
	DeviceSize int64
	// CacheSize is the simulated CPU cache per partition. The paper's ratio
	// is ~1% of the database (20 MB L3 vs 2 GB); keep the cache well below
	// the per-partition working set or latency configs have no effect.
	CacheSize int

	YCSBTuples int
	YCSBTxns   int

	TPCCWarehouses int
	TPCCCustomers  int
	TPCCItems      int
	TPCCTxns       int

	// RecoveryTxns are the transaction counts of Fig. 12's x-axis.
	RecoveryTxns []int

	Engines   []testbed.EngineKind
	Latencies []nvm.Profile

	Options core.Options
	Seed    int64
}

// SmallScale completes the full suite in a couple of minutes.
func SmallScale() Scale {
	return Scale{
		Partitions:     4,
		DeviceSize:     512 << 20,
		CacheSize:      128 << 10,
		YCSBTuples:     20000,
		YCSBTxns:       20000,
		TPCCWarehouses: 4,
		TPCCCustomers:  100,
		TPCCItems:      500,
		TPCCTxns:       4000,
		RecoveryTxns:   []int{1000, 4000, 16000},
		Engines:        testbed.Kinds,
		Latencies:      nvm.Profiles,
		Options:        core.Options{MemTableCap: 512},
		Seed:           42,
	}
}

// MediumScale approaches the paper's configuration more closely.
func MediumScale() Scale {
	s := SmallScale()
	s.Partitions = 8
	s.DeviceSize = 1 << 30
	s.CacheSize = 512 << 10
	s.YCSBTuples = 200000
	s.YCSBTxns = 200000
	s.TPCCWarehouses = 8
	s.TPCCCustomers = 500
	s.TPCCItems = 2000
	s.TPCCTxns = 40000
	s.RecoveryTxns = []int{1000, 10000, 100000}
	return s
}

// Runner executes experiments and writes paper-style tables to W.
type Runner struct {
	S Scale
	W io.Writer
}

// New creates a runner.
func New(s Scale, w io.Writer) *Runner {
	if s.Options.CheckpointEvery == 0 && s.Partitions > 0 {
		// The paper's InP engine checkpoints periodically (§3.1); at these
		// scaled-down run lengths a full-database gzip would dominate, so
		// fire roughly once per measured run's writes.
		ck := s.YCSBTxns / s.Partitions * 2 / 5
		if ck < 1000 {
			ck = 1000
		}
		s.Options.CheckpointEvery = ck
	}
	return &Runner{S: s, W: w}
}

func (r *Runner) printf(format string, args ...interface{}) {
	fmt.Fprintf(r.W, format, args...)
}

func (r *Runner) section(title string) {
	fmt.Fprintf(r.W, "\n=== %s ===\n", title)
}

func (r *Runner) tab() *tabwriter.Writer {
	return tabwriter.NewWriter(r.W, 2, 4, 2, ' ', 0)
}

// envCfg builds per-partition storage at the runner's scale.
func (r *Runner) envCfg(profile nvm.Profile) core.EnvConfig {
	return core.EnvConfig{
		DeviceSize: r.S.DeviceSize / int64(r.S.Partitions),
		Profile:    profile,
		FSExtent:   512 << 10,
		CacheSize:  r.S.CacheSize,
	}
}

func (r *Runner) newDB(kind testbed.EngineKind, prof nvm.Profile, opts core.Options, schemas []*core.Schema) (*testbed.DB, error) {
	return testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: r.S.Partitions,
		Env:        r.envCfg(prof),
		Options:    opts,
		Schemas:    schemas,
	})
}

// ycsbDB creates and loads a YCSB database for the engine.
func (r *Runner) ycsbDB(kind testbed.EngineKind, prof nvm.Profile, opts core.Options, cfg ycsb.Config) (*testbed.DB, error) {
	db, err := r.newDB(kind, prof, opts, ycsb.Schema(cfg))
	if err != nil {
		return nil, err
	}
	if err := ycsb.Load(db, cfg); err != nil {
		return nil, err
	}
	return db, nil
}

// tpccDB creates and loads a TPC-C database for the engine.
func (r *Runner) tpccDB(kind testbed.EngineKind, prof nvm.Profile, opts core.Options, cfg tpcc.Config) (*testbed.DB, error) {
	db, err := r.newDB(kind, prof, opts, tpcc.Schemas())
	if err != nil {
		return nil, err
	}
	if err := tpcc.Load(db, cfg); err != nil {
		return nil, err
	}
	return db, nil
}

func (r *Runner) ycsbCfg(mix ycsb.Mix, skew ycsb.Skew) ycsb.Config {
	return ycsb.Config{
		Tuples:     r.S.YCSBTuples,
		Txns:       r.S.YCSBTxns,
		Partitions: r.S.Partitions,
		Mix:        mix,
		Skew:       skew,
		Seed:       r.S.Seed,
	}
}

func (r *Runner) tpccCfg() tpcc.Config {
	return tpcc.Config{
		Warehouses: r.S.TPCCWarehouses,
		Customers:  r.S.TPCCCustomers,
		Items:      r.S.TPCCItems,
		Txns:       r.S.TPCCTxns,
		Partitions: r.S.Partitions,
		Seed:       r.S.Seed,
	}
}

// Measurement is one (engine, configuration) data point. The embedded
// device counters (loads, stores, CLWBs, fences, bytes, simulated stall,
// summed over partitions) are exact for a fixed scale and seed, so they are
// what shape tests assert on; Throughput and Elapsed include wall time and
// are for the printed figures only.
type Measurement struct {
	Engine  testbed.EngineKind
	Mix     string
	Skew    string
	Latency string
	Txns    int
	nvm.Stats
	Throughput float64
	Elapsed    time.Duration
}

// Points is an experiment's measurements.
type Points []Measurement

// Find returns the data point for an exact configuration (TPC-C points
// have no mixture or skew), or nil.
func (ps Points) Find(e testbed.EngineKind, mix, skew, lat string) *Measurement {
	for i := range ps {
		p := &ps[i]
		if p.Engine == e && p.Mix == mix && p.Skew == skew && p.Latency == lat {
			return p
		}
	}
	return nil
}

// StallPerTxn is the simulated NVM stall each transaction paid.
func (m Measurement) StallPerTxn() time.Duration {
	if m.Txns == 0 {
		return 0
	}
	return m.Stall / time.Duration(m.Txns)
}

// measured executes work on db from zeroed counters and records the run,
// then flushes what the engines batched so the next run starts from none.
func measured(db *testbed.DB, kind testbed.EngineKind, mix, skew, lat string, work [][]testbed.Txn) (Measurement, error) {
	db.ResetStats()
	out, err := db.ExecuteSequential(work)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", kind, err)
	}
	if err := db.Flush(); err != nil {
		return Measurement{}, fmt.Errorf("%s: flush: %w", kind, err)
	}
	return Measurement{
		Engine: kind, Mix: mix, Skew: skew, Latency: lat,
		Txns:       out.Txns,
		Stats:      out.Stats,
		Throughput: out.Throughput(),
		Elapsed:    out.Elapsed,
	}, nil
}

// experiments names every runnable experiment, in the paper's order. Those
// that return points have them published as BENCH_<name>.json by nvbench.
var experiments = []struct {
	name string
	run  func(*Runner) (Points, error)
}{
	{"fig1", func(r *Runner) (Points, error) { _, err := r.Fig1(); return nil, err }},
	{"ycsb", (*Runner).YCSB},
	{"tpcc", (*Runner).TPCC},
	{"recovery", func(r *Runner) (Points, error) { _, err := r.Recovery(); return nil, err }},
	{"breakdown", func(r *Runner) (Points, error) { _, err := r.Breakdown(); return nil, err }},
	{"footprint", func(r *Runner) (Points, error) { _, err := r.Footprint(); return nil, err }},
	{"costmodel", func(r *Runner) (Points, error) { return nil, r.CostModel() }},
	{"nodesize", func(r *Runner) (Points, error) { _, err := r.NodeSize(); return nil, err }},
	{"synclat", func(r *Runner) (Points, error) { _, err := r.SyncLatency(); return nil, err }},
	{"ablations", func(r *Runner) (Points, error) { return nil, r.Ablations() }},
}

// ErrUnknownExperiment is Run's error for a name it does not have.
var ErrUnknownExperiment = errors.New("bench: unknown experiment")

// Run runs one experiment by name. "all" is every table and figure of the
// paper — everything but the ablations — and returns no points.
func (r *Runner) Run(name string) (Points, error) {
	if name == "all" {
		for _, e := range experiments {
			if e.name == "ablations" {
				continue
			}
			if _, err := e.run(r); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", e.name, err)
			}
		}
		return nil, nil
	}
	for _, e := range experiments {
		if e.name == name {
			return e.run(r)
		}
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownExperiment, name)
}
