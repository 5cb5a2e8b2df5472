// Package testbed is the lightweight DBMS of §3 (Fig. 2): a coordinator
// dispatches pre-generated transaction batches to partitions, each served by
// one executor goroutine over its own storage engine and emulated NVM
// device. Transactions execute serially within a partition (the paper's
// lightweight timestamp-ordering scheme), and every transaction touches a
// single partition (§5.1).
package testbed

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nstore/internal/core"
	"nstore/internal/engine/cow"
	"nstore/internal/engine/inp"
	"nstore/internal/engine/logeng"
	"nstore/internal/engine/nvminp"
	"nstore/internal/engine/nvmlog"
	"nstore/internal/nvm"
)

// EngineKind selects one of the six storage engines.
type EngineKind string

// The six engines of the study.
const (
	InP    EngineKind = "inp"
	CoW    EngineKind = "cow"
	Log    EngineKind = "log"
	NVMInP EngineKind = "nvm-inp"
	NVMCoW EngineKind = "nvm-cow"
	NVMLog EngineKind = "nvm-log"
)

// Kinds lists the engines in the paper's presentation order.
var Kinds = []EngineKind{InP, CoW, Log, NVMInP, NVMCoW, NVMLog}

// IsNVMAware reports whether the engine exploits NVM's persistence (§4).
func (k EngineKind) IsNVMAware() bool {
	return k == NVMInP || k == NVMCoW || k == NVMLog
}

// Traditional returns the engine's traditional counterpart (identity for
// traditional engines).
func (k EngineKind) Traditional() EngineKind {
	switch k {
	case NVMInP:
		return InP
	case NVMCoW:
		return CoW
	case NVMLog:
		return Log
	}
	return k
}

// ErrAbort is returned by a transaction body to request a rollback (e.g.
// the 1% of TPC-C NewOrder transactions that abort).
var ErrAbort = errors.New("testbed: transaction aborted")

// Txn is a stored-procedure invocation bound to one partition.
type Txn func(e core.Engine) error

// Config describes a testbed database.
type Config struct {
	Engine     EngineKind
	Partitions int
	Env        core.EnvConfig // per-partition storage sizing
	Options    core.Options
	Schemas    []*core.Schema
}

// DB is the testbed database: one engine instance per partition.
type DB struct {
	cfg   Config
	parts []*partition

	statsMu      sync.Mutex
	lastRecovery []RecoveryStat
}

// partition guards its env/eng pointers with mu: RecoverPartition swaps
// them on a heal while a metrics scraper may be resolving Engine(i)/Env(i)
// from another goroutine. Transaction execution itself stays single-owner
// (the partition's executor goroutine) and does not need the lock beyond
// pointer resolution.
type partition struct {
	mu  sync.RWMutex
	env *core.Env
	eng core.Engine
}

func (p *partition) engine() core.Engine {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.eng
}

func (p *partition) environ() *core.Env {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.env
}

func buildEngine(kind EngineKind, env *core.Env, schemas []*core.Schema, opts core.Options, recover bool) (core.Engine, error) {
	switch kind {
	case InP:
		if recover {
			return inp.Open(env, schemas, opts)
		}
		return inp.New(env, schemas, opts)
	case CoW:
		if recover {
			return cow.Open(env, schemas, opts)
		}
		return cow.New(env, schemas, opts)
	case Log:
		if recover {
			return logeng.Open(env, schemas, opts)
		}
		return logeng.New(env, schemas, opts)
	case NVMInP:
		if recover {
			return nvminp.Open(env, schemas, opts)
		}
		return nvminp.New(env, schemas, opts)
	case NVMCoW:
		if recover {
			return cow.OpenNVM(env, schemas, opts)
		}
		return cow.NewNVM(env, schemas, opts)
	case NVMLog:
		if recover {
			return nvmlog.Open(env, schemas, opts)
		}
		return nvmlog.New(env, schemas, opts)
	}
	return nil, fmt.Errorf("testbed: unknown engine %q", kind)
}

// Attach builds a database over previously restored partition devices
// (e.g. from snapshots), running each engine's recovery protocol as after a
// power failure.
func Attach(cfg Config, devs []*nvm.Device) (*DB, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("testbed: no devices")
	}
	cfg.Partitions = len(devs)
	db := &DB{cfg: cfg}
	for i, dev := range devs {
		tmp := &core.Env{Dev: dev}
		var env *core.Env
		var err error
		if cfg.Engine.IsNVMAware() {
			env, err = tmp.Reopen()
		} else {
			env, err = tmp.ReopenVolatile()
		}
		if err != nil {
			return nil, fmt.Errorf("testbed: partition %d env: %w", i, err)
		}
		eng, err := buildEngine(cfg.Engine, env, cfg.Schemas, cfg.Options, true)
		if err != nil {
			return nil, fmt.Errorf("testbed: partition %d: %w", i, err)
		}
		db.parts = append(db.parts, &partition{env: env, eng: eng})
	}
	return db, nil
}

// New creates a database with freshly formatted partitions.
func New(cfg Config) (*DB, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 8
	}
	db := &DB{cfg: cfg}
	if cfg.Env.FSFraction == 0 && cfg.Engine.IsNVMAware() {
		// NVM-aware engines only use the allocator interface; leave just a
		// sliver of the device for the (unused) filesystem.
		cfg.Env.FSFraction = 0.05
	}
	for i := 0; i < cfg.Partitions; i++ {
		env := core.NewEnv(cfg.Env)
		eng, err := buildEngine(cfg.Engine, env, cfg.Schemas, cfg.Options, false)
		if err != nil {
			return nil, fmt.Errorf("testbed: partition %d: %w", i, err)
		}
		db.parts = append(db.parts, &partition{env: env, eng: eng})
	}
	return db, nil
}

// Partitions returns the partition count.
func (db *DB) Partitions() int { return db.cfg.Partitions }

// Options returns the database's effective engine options (defaults
// applied).
func (db *DB) Options() core.Options { return db.cfg.Options.WithDefaults() }

// Engine returns partition i's engine (for direct loading). The pointer
// resolution is safe against a concurrent RecoverPartition swap; the engine
// itself is single-partition and not safe for concurrent data operations.
func (db *DB) Engine(i int) core.Engine { return db.parts[i].engine() }

// Env returns partition i's storage environment. Safe against a concurrent
// RecoverPartition swap, like Engine.
func (db *DB) Env(i int) *core.Env { return db.parts[i].environ() }

// Route maps a primary key to its home partition.
func (db *DB) Route(key uint64) int { return int(key % uint64(db.cfg.Partitions)) }

// Schemas returns the table schemas every partition was built with (the
// network layer validates wire requests against them).
func (db *DB) Schemas() []*core.Schema { return db.cfg.Schemas }

// SetLatency switches every partition's NVM latency profile.
func (db *DB) SetLatency(p nvm.Profile) {
	for _, part := range db.parts {
		part.environ().Dev.SetLatency(p)
	}
}

// SetSyncExtra sets the sync-primitive latency on every device (Fig. 16).
func (db *DB) SetSyncExtra(lat time.Duration) {
	for _, part := range db.parts {
		part.environ().Dev.SetSyncExtra(lat)
	}
}

// SetSyncCLWB switches every device's sync primitive between CLWB (the
// default) and CLFLUSH semantics (Appendix C, ablation A1).
func (db *DB) SetSyncCLWB(on bool) {
	for _, part := range db.parts {
		part.environ().Dev.SetSyncCLWB(on)
	}
}

// Result summarizes an Execute run.
type Result struct {
	Txns      int
	Committed int
	Aborted   int
	// Elapsed is the effective completion time: the slowest partition's
	// wall-clock plus its simulated NVM stall.
	Elapsed time.Duration
	// Wall and Stall are the slowest partition's components.
	Wall  time.Duration
	Stall time.Duration
	// Stats aggregates the NVM perf counters across partitions.
	Stats nvm.Stats
}

// Throughput returns transactions per second over the effective time.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Txns) / r.Elapsed.Seconds()
}

// Execute runs each partition's transaction list on its executor goroutine,
// serially within the partition, and returns the merged result. A Txn
// returning ErrAbort is rolled back; any other error stops the run.
func (db *DB) Execute(perPart [][]Txn) (Result, error) {
	return db.execute(perPart, true)
}

// ExecuteSequential runs the partitions one after another on the calling
// goroutine. The result still models parallel hardware (effective time =
// slowest partition's wall + stall), but without goroutine-scheduling and
// shared-CPU noise — benchmark harnesses use this for stable measurements.
func (db *DB) ExecuteSequential(perPart [][]Txn) (Result, error) {
	return db.execute(perPart, false)
}

func (db *DB) execute(perPart [][]Txn, parallel bool) (Result, error) {
	if len(perPart) != len(db.parts) {
		return Result{}, fmt.Errorf("testbed: %d txn lists for %d partitions", len(perPart), len(db.parts))
	}
	type partRes struct {
		committed, aborted int
		wall               time.Duration
		stall              time.Duration
		err                error
	}
	results := make([]partRes, len(db.parts))
	runPart := func(i int) {
		part := db.parts[i]
		stall0 := part.env.Dev.Stats().Stall
		start := time.Now()
		for _, txn := range perPart[i] {
			if err := part.eng.Begin(); err != nil {
				results[i].err = err
				return
			}
			err := txn(part.eng)
			switch {
			case err == nil:
				if err := part.eng.Commit(); err != nil {
					results[i].err = err
					return
				}
				results[i].committed++
			case errors.Is(err, ErrAbort):
				if err := part.eng.Abort(); err != nil {
					results[i].err = err
					return
				}
				results[i].aborted++
			default:
				if aerr := part.eng.Abort(); aerr != nil {
					// The rollback itself failed: the partition state is
					// suspect, so report both causes instead of hiding the
					// abort failure behind the transaction error.
					err = errors.Join(err, aerr)
				}
				results[i].err = err
				return
			}
		}
		results[i].wall = time.Since(start)
		results[i].stall = part.env.Dev.Stats().Stall - stall0
	}
	if parallel {
		var wg sync.WaitGroup
		for i := range db.parts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runPart(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range db.parts {
			runPart(i)
		}
	}

	var res Result
	for i, pr := range results {
		if pr.err != nil {
			return res, fmt.Errorf("testbed: partition %d: %w", i, pr.err)
		}
		res.Committed += pr.committed
		res.Aborted += pr.aborted
		res.Txns += pr.committed + pr.aborted
		if pr.wall+pr.stall > res.Elapsed {
			res.Elapsed = pr.wall + pr.stall
			res.Wall = pr.wall
			res.Stall = pr.stall
		}
	}
	res.Stats = db.Stats()
	return res, nil
}

// Flush forces batched durability work on every partition.
func (db *DB) Flush() error {
	for _, part := range db.parts {
		if err := part.eng.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates NVM perf counters across partitions. Safe from any
// goroutine (devices survive partition heals, so the totals are monotonic
// between explicit resets).
func (db *DB) Stats() nvm.Stats {
	var s nvm.Stats
	for _, part := range db.parts {
		s = s.Add(part.environ().Dev.Stats())
	}
	return s
}

// ResetStats zeroes the counters on every device.
func (db *DB) ResetStats() {
	for _, part := range db.parts {
		part.environ().Dev.ResetStats()
	}
}

// Footprint sums the engines' storage footprints.
func (db *DB) Footprint() core.Footprint {
	var f core.Footprint
	for _, part := range db.parts {
		pf := part.eng.Footprint()
		f.Table += pf.Table
		f.Index += pf.Index
		f.Log += pf.Log
		f.Checkpoint += pf.Checkpoint
		f.Other += pf.Other
	}
	return f
}

// Breakdown sums the engines' execution-time breakdowns.
func (db *DB) Breakdown() core.Breakdown {
	var b core.Breakdown
	for _, part := range db.parts {
		b.Add(part.eng.Breakdown())
	}
	return b
}

// Crash simulates a power failure on every partition: volatile CPU caches
// and memory-controller buffers are lost.
func (db *DB) Crash() {
	for i := range db.parts {
		db.CrashPartition(i)
	}
}

// CrashPartition simulates a power failure on partition i only, leaving
// the other partitions serving. The serving runtime uses this to fence a
// partition whose engine failed before re-running its recovery protocol.
// The engine is retired first: a snapshot read in progress finishes, and
// later ones fail with core.ErrRetired instead of reading the medium the
// power cycle takes away.
func (db *DB) CrashPartition(i int) {
	part := db.parts[i]
	retire(part.engine())
	part.environ().Dev.Crash()
}

// retire shuts snapshot readers out of eng (core.Base.Retire).
func retire(eng core.Engine) {
	if x, ok := eng.(core.Excluder); ok {
		x.Retire()
	}
}

// exclude takes eng's exclusion for an owner-side read outside a transaction.
func exclude(eng core.Engine) (release func()) {
	if x, ok := eng.(core.Excluder); ok {
		return x.Exclude()
	}
	return func() {}
}

// RecoverPartition reopens partition i after a crash, running the
// engine's recovery protocol, and returns its recovery latency.
func (db *DB) RecoverPartition(i int) (time.Duration, error) {
	start := time.Now()
	part := db.parts[i]
	retire(part.engine()) // a caller that power-cycled the device itself
	var env *core.Env
	var err error
	if db.cfg.Engine.IsNVMAware() {
		env, err = part.env.Reopen()
	} else {
		env, err = part.env.ReopenVolatile()
	}
	if err != nil {
		return 0, fmt.Errorf("testbed: recover partition %d: %w", i, err)
	}
	eng, err := buildEngine(db.cfg.Engine, env, db.cfg.Schemas, db.cfg.Options, true)
	if err != nil {
		return 0, fmt.Errorf("testbed: recover partition %d: %w", i, err)
	}
	part.mu.Lock()
	part.env, part.eng = env, eng
	part.mu.Unlock()
	// Include the simulated NVM stall recovery work incurred.
	d := time.Since(start)
	var rep core.RecoveryReport
	if rr, ok := eng.(core.RecoveryReporter); ok {
		rep = rr.RecoveryReport()
	}
	db.recordRecoveryStat(RecoveryStat{Partition: i, Wall: d, Records: rep.Records})
	return d, nil
}
