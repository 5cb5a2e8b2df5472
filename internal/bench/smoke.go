package bench

import (
	"fmt"

	"nstore/internal/nvm"
	"nstore/internal/workload/ycsb"
)

// SmokeScale is the tiny configuration behind `nvbench -short`: one quick
// pass per engine, small enough for a CI smoke lane, big enough that the
// NVM counters are non-trivial.
func SmokeScale() Scale {
	s := SmallScale()
	s.Partitions = 2
	s.DeviceSize = 128 << 20
	s.YCSBTuples = 2000
	s.YCSBTxns = 2000
	s.Latencies = []nvm.Profile{nvm.ProfileDRAM}
	return s
}

// Smoke runs a single balanced/low-skew YCSB configuration per engine at
// the runner's scale and returns the measurements (for WriteSnapshot).
func (r *Runner) Smoke() ([]Measurement, error) {
	mix := ycsb.Balanced
	cfg := r.ycsbCfg(mix, ycsb.LowSkew)
	work := ycsb.Generate(cfg)

	r.section("smoke — YCSB balanced/low @dram")
	var ms []Measurement
	for _, kind := range r.S.Engines {
		db, err := r.ycsbDB(kind, nvm.ProfileDRAM, r.S.Options, cfg)
		if err != nil {
			return nil, err
		}
		m, err := measured(db, kind, mix.Name, ycsb.LowSkew.Name, nvm.ProfileDRAM.Name, work)
		if err != nil {
			return nil, fmt.Errorf("bench: smoke: %w", err)
		}
		ms = append(ms, m)
		r.printf("%s: %s txn/sec (%d stores, %.1f MB written)\n",
			kind, human(m.Throughput), m.Stores, float64(m.BytesWritten)/(1<<20))
	}
	return ms, nil
}
