package bench

import (
	"fmt"
	"strings"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
)

// vlogSizes is the value-size axis of the separation sweep. The labels ride
// in Measurement.Mix; Skew carries the configuration ("vlog-on"/"vlog-off").
var vlogSizes = []struct {
	bytes int
	label string
}{
	{64, "v64"},
	{1024, "v1k"},
	{16384, "v16k"},
}

// vlogBatch is how many inserts share one transaction: enough to amortize
// the per-commit WAL barrier so the flush/compaction write path — the thing
// value separation changes — dominates the measurement.
const vlogBatch = 16

// VlogResult holds the value-separation sweep (BENCH_vlog.json).
type VlogResult struct {
	Points []Measurement
	// Speedup[size] is vlog-on over vlog-off write throughput.
	Speedup map[string]float64
}

// Vlog measures what WiscKey-style value separation buys the Log engine as
// values grow (NVM-Log has no value log: its compaction carries entry chunks
// forward by pointer, so its values already stay where they were first
// written). For each value size it runs the same deterministic
// insert+overwrite schedule twice — VlogThreshold 512 ("vlog-on") and -1
// ("vlog-off") — on a single partition with a small memtable, so the run
// spans many flushes and compactions. With separation off, every compaction
// rewrites the full values into the merged SSTable; with it on, values ≥
// threshold are written once to the value log and the LSM only carries
// 12-byte pointers, so compaction write amplification stays flat in the
// value size. 64-byte values sit below the threshold in both configurations
// — that point is the control showing separation leaves small values alone.
//
// After the timed phase the vlog-on run forces GC passes (overwrites made
// the first half of the log dead), then both runs fold a full-table content
// digest; the two configurations must agree exactly — separation and GC are
// invisible to reads.
func (r *Runner) Vlog() (*VlogResult, error) {
	r.section("vlog — value separation write sweep on the Log engine")
	res := &VlogResult{Speedup: make(map[string]float64)}
	w := r.tab()
	fprintf(w, "engine\tvalue\tvlog-off\tvlog-on\ton/off\tMB-written off\ton\n")
	for _, sz := range vlogSizes {
		var pt [2]Measurement
		var digest [2]uint64
		for i, threshold := range []int{-1, 512} { // off, then on
			var err error
			if pt[i], digest[i], err = r.vlogOne(sz.bytes, sz.label, threshold); err != nil {
				return nil, fmt.Errorf("bench: vlog: %s thr=%d: %w", sz.label, threshold, err)
			}
		}
		if digest[0] != digest[1] {
			return nil, fmt.Errorf("bench: vlog: %s: vlog-on digest %016x diverged from vlog-off oracle %016x",
				sz.label, digest[1], digest[0])
		}
		off, on := pt[0], pt[1]
		res.Points = append(res.Points, off, on)
		if off.Throughput > 0 {
			res.Speedup[sz.label] = on.Throughput / off.Throughput
		}
		fprintf(w, "%s\t%s\t%s\t%s\t%.2fx\t%.1f\t%.1f\n",
			testbed.Log, sz.label, human(off.Throughput), human(on.Throughput),
			res.Speedup[sz.label],
			float64(off.BytesWritten)/(1<<20), float64(on.BytesWritten)/(1<<20))
	}
	w.Flush()
	return res, nil
}

func vlogSchemas(size int) []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TString, Size: size},
		},
	}}
}

// vlogOps sizes the schedule so every point writes enough data to spill
// through multiple flush/compaction rounds without the big-value points
// dominating the suite's runtime.
func (r *Runner) vlogOps(size int) int {
	base := r.S.YCSBTxns / 2
	switch {
	case size >= 16384:
		base /= 8
	case size >= 1024:
		base /= 4
	}
	if base < 256 {
		base = 256
	}
	return base - base%vlogBatch
}

func vlogRow(key int64, size int, gen byte) []core.Value {
	fill := byte('a') + byte((key+int64(gen))%26)
	return []core.Value{
		core.IntVal(key),
		core.IntVal(key*7 + int64(gen)),
		core.StrVal(strings.Repeat(string(rune(fill)), size)),
	}
}

func (r *Runner) vlogOne(size int, label string, threshold int) (Measurement, uint64, error) {
	ops := r.vlogOps(size)
	opts := r.S.Options
	opts.MemTableCap = 128
	opts.LSMGrowth = 4
	opts.VlogThreshold = threshold
	env := r.envCfg(nvm.ProfileDRAM)
	env.DeviceSize = r.S.DeviceSize // single partition gets the whole device
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.Log,
		Partitions: 1,
		Env:        env,
		Options:    opts,
		Schemas:    vlogSchemas(size),
	})
	if err != nil {
		return Measurement{}, 0, err
	}

	// The timed schedule: insert every key, then overwrite the first half
	// (generation 1) so compaction supersedes pointers and the value log
	// accumulates dead bytes for GC.
	var txns []testbed.Txn
	addBatch := func(lo, hi int64, gen byte) {
		txns = append(txns, func(e core.Engine) error {
			for k := lo; k < hi; k++ {
				if gen == 0 {
					if err := e.Insert("t", uint64(k), vlogRow(k, size, 0)); err != nil {
						return err
					}
					continue
				}
				if err := e.Update("t", uint64(k), core.Update{
					Cols: []int{1, 2},
					Vals: vlogRow(k, size, gen)[1:],
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for lo := int64(1); lo <= int64(ops); lo += vlogBatch {
		addBatch(lo, lo+vlogBatch, 0)
	}
	for lo := int64(1); lo <= int64(ops/2); lo += vlogBatch {
		hi := lo + vlogBatch
		if hi > int64(ops/2)+1 {
			hi = int64(ops/2) + 1
		}
		addBatch(lo, hi, 1)
	}

	db.ResetStats()
	out, err := db.ExecuteSequential([][]testbed.Txn{txns})
	if err != nil {
		return Measurement{}, 0, err
	}
	values := ops + ops/2
	s := db.Stats()
	m := Measurement{
		Engine: testbed.Log, Mix: label, Latency: "dram",
		Skew:       "vlog-off",
		Throughput: float64(values) / out.Elapsed.Seconds(),
		Elapsed:    out.Elapsed,
		Loads:      s.Loads, Stores: s.Stores,
		BytesRead: s.BytesRead, BytesWritten: s.BytesWritten,
	}
	if threshold > 0 {
		m.Skew = "vlog-on"
	}

	// Outside the timed window: push residual memtables down, and on the
	// separated configuration reclaim the garbage the overwrites created —
	// the digest below must not notice either.
	if err := db.Flush(); err != nil {
		return Measurement{}, 0, err
	}
	eng := db.Engine(0).(interface {
		core.FlushStatser
		GCVlog() error
	})
	if threshold > 0 && size >= threshold {
		if eng.FlushStats().VlogBytes == 0 {
			return Measurement{}, 0, fmt.Errorf("no bytes separated at %dB; sweep is vacuous", size)
		}
		for pass := 0; pass < 4; pass++ {
			if err := eng.GCVlog(); err != nil {
				return Measurement{}, 0, err
			}
		}
	}
	if threshold < 0 && eng.FlushStats().VlogBytes != 0 {
		return Measurement{}, 0, fmt.Errorf("vlog-off configuration separated bytes")
	}

	// Content digest over the whole table, order-independent fold.
	var digest uint64
	scan := func(e core.Engine) error {
		return e.ScanRange("t", 0, uint64(ops)+1, func(pk uint64, row []core.Value) bool {
			h := uint64(14695981039346656037)
			for i := 0; i < len(row[2].S); i++ {
				h = (h ^ uint64(row[2].S[i])) * 1099511628211
			}
			digest ^= mvccFold(int(pk), h^uint64(row[1].I))
			return true
		})
	}
	if _, err := db.ExecuteSequential([][]testbed.Txn{{scan}}); err != nil {
		return Measurement{}, 0, err
	}
	return m, digest, nil
}
