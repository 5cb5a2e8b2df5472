package serve

import (
	"fmt"
	"time"

	"nstore/internal/core"
	"nstore/internal/obs"
	"nstore/internal/testbed"
)

// buildMetrics registers the runtime's metric surface. Naming and lifetime
// rules (the stable schema the /metrics endpoint serves):
//
//   - serve_* counters read the supervisor's own atomics, so a scrape
//     always matches Stats(). Monotonic for the runtime's lifetime.
//   - nvm_* counters aggregate the partition devices. Devices survive
//     partition heals, so these are monotonic too (absent an explicit
//     ResetStats).
//   - pmfs_*, wal_* and bd_* values come from the filesystem, WAL and
//     engine instances, which are REBUILT when a partition heals — they
//     restart from zero at that point, so they are registered as gauges,
//     not counters.
//   - serve_partNN_* metrics are per partition: ack-latency histograms
//     (recorded on the submit path), queue-depth and degraded gauges.
func (rt *Runtime) buildMetrics() {
	reg := obs.New()
	rt.reg = reg

	reg.CounterFunc("serve_committed", rt.stats.committed.Load)
	reg.CounterFunc("serve_aborted", rt.stats.aborted.Load)
	reg.CounterFunc("serve_failed", rt.stats.failed.Load)
	reg.CounterFunc("serve_retries", rt.stats.retries.Load)
	reg.CounterFunc("serve_panics", rt.stats.panics.Load)
	reg.CounterFunc("serve_heals", rt.stats.heals.Load)
	reg.CounterFunc("serve_heal_fails", rt.stats.healFails.Load)
	reg.CounterFunc("serve_overloaded", rt.stats.overloaded.Load)
	reg.CounterFunc("serve_recovering", rt.stats.recovering.Load)
	reg.CounterFunc("serve_reads", rt.stats.reads.Load)
	reg.CounterFunc("serve_read_fails", rt.stats.readFails.Load)
	reg.GaugeFunc("serve_degraded", func() float64 {
		return float64(rt.stats.degraded.Load())
	})

	db := rt.db
	nvmCounter := func(sel func(s nvmStats) int64) func() int64 {
		return func() int64 { return sel(nvmStatsOf(db)) }
	}
	reg.CounterFunc("nvm_loads", nvmCounter(func(s nvmStats) int64 { return s.loads }))
	reg.CounterFunc("nvm_stores", nvmCounter(func(s nvmStats) int64 { return s.stores }))
	reg.CounterFunc("nvm_flushes", nvmCounter(func(s nvmStats) int64 { return s.flushes }))
	reg.CounterFunc("nvm_fences", nvmCounter(func(s nvmStats) int64 { return s.fences }))
	reg.CounterFunc("nvm_bytes_read", nvmCounter(func(s nvmStats) int64 { return s.bytesRead }))
	reg.CounterFunc("nvm_bytes_written", nvmCounter(func(s nvmStats) int64 { return s.bytesWritten }))
	reg.CounterFunc("nvm_stall_ns", nvmCounter(func(s nvmStats) int64 { return s.stallNS }))
	reg.CounterFunc("nvm_read_stall_ns", nvmCounter(func(s nvmStats) int64 { return s.readStallNS }))

	reg.GaugeFunc("pmfs_fsyncs", func() float64 {
		var n int64
		for i := 0; i < db.Partitions(); i++ {
			s, _ := db.Env(i).FS.SyncStats()
			n += s
		}
		return float64(n)
	})
	reg.GaugeFunc("pmfs_fsync_ns", func() float64 {
		var ns int64
		for i := 0; i < db.Partitions(); i++ {
			_, n := db.Env(i).FS.SyncStats()
			ns += n
		}
		return float64(ns)
	})

	walGauge := func(sel func(core.WalStats) int64) func() float64 {
		return func() float64 {
			var n int64
			for i := 0; i < db.Partitions(); i++ {
				if ws, ok := db.Engine(i).(core.WalStatser); ok {
					n += sel(ws.WalStats())
				}
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("wal_records", walGauge(func(s core.WalStats) int64 { return s.Records }))
	reg.GaugeFunc("wal_bytes", walGauge(func(s core.WalStats) int64 { return s.Bytes }))
	reg.GaugeFunc("wal_flushes", walGauge(func(s core.WalStats) int64 { return s.Fsyncs }))

	// Staged flush pipeline (the two Log engines) + value log (Log only); zero
	// elsewhere.
	// Engine instances are rebuilt on partition heals, hence gauges.
	flushGauge := func(sel func(core.FlushStats) int64) func() float64 {
		return func() float64 {
			var n int64
			for i := 0; i < db.Partitions(); i++ {
				if fs, ok := db.Engine(i).(core.FlushStatser); ok {
					n += sel(fs.FlushStats())
				}
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("flush_flushes", flushGauge(func(s core.FlushStats) int64 { return s.Flushes }))
	reg.GaugeFunc("flush_compactions", flushGauge(func(s core.FlushStats) int64 { return s.Compactions }))
	reg.GaugeFunc("flush_gc_runs", flushGauge(func(s core.FlushStats) int64 { return s.GCRuns }))
	reg.GaugeFunc("flush_failures", flushGauge(func(s core.FlushStats) int64 { return s.Failures }))
	reg.GaugeFunc("flush_prepare_ns", flushGauge(func(s core.FlushStats) int64 { return s.PrepareNs }))
	reg.GaugeFunc("flush_build_ns", flushGauge(func(s core.FlushStats) int64 { return s.BuildNs }))
	reg.GaugeFunc("flush_install_ns", flushGauge(func(s core.FlushStats) int64 { return s.InstallNs }))
	reg.GaugeFunc("flush_release_ns", flushGauge(func(s core.FlushStats) int64 { return s.ReleaseNs }))
	reg.GaugeFunc("vlog_segments", flushGauge(func(s core.FlushStats) int64 { return s.VlogSegments }))
	reg.GaugeFunc("vlog_bytes", flushGauge(func(s core.FlushStats) int64 { return s.VlogBytes }))
	reg.GaugeFunc("vlog_discard", flushGauge(func(s core.FlushStats) int64 { return s.VlogDiscard }))
	reg.GaugeFunc("vlog_reclaimed", flushGauge(func(s core.FlushStats) int64 { return s.VlogReclaimed }))
	reg.GaugeFunc("vlog_space_amp", func() float64 {
		// Aggregate amplification: total live-segment bytes over bytes not
		// yet known dead, folded across partitions.
		var agg core.FlushStats
		for i := 0; i < db.Partitions(); i++ {
			if fs, ok := db.Engine(i).(core.FlushStatser); ok {
				st := fs.FlushStats()
				agg.VlogBytes += st.VlogBytes
				agg.VlogDiscard += st.VlogDiscard
			}
		}
		return agg.VlogSpaceAmp()
	})

	bdGauge := func(sel func(core.Breakdown) time.Duration) func() float64 {
		return func() float64 {
			var total time.Duration
			for i := 0; i < db.Partitions(); i++ {
				total += sel(db.Engine(i).Breakdown().Snapshot())
			}
			return float64(total)
		}
	}
	reg.GaugeFunc("bd_storage_ns", bdGauge(func(b core.Breakdown) time.Duration { return b.Storage }))
	reg.GaugeFunc("bd_recovery_ns", bdGauge(func(b core.Breakdown) time.Duration { return b.Recovery }))
	reg.GaugeFunc("bd_index_ns", bdGauge(func(b core.Breakdown) time.Duration { return b.Index }))
	reg.GaugeFunc("bd_other_ns", bdGauge(func(b core.Breakdown) time.Duration { return b.Other }))

	for i, ex := range rt.execs {
		ex := ex
		rt.ackHist = append(rt.ackHist, reg.Histogram(fmt.Sprintf("serve_part%02d_ack_ns", i)))
		rt.readHist = append(rt.readHist, reg.Histogram(fmt.Sprintf("serve_part%02d_read_ns", i)))
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_queue_depth", i), func() float64 {
			return float64(len(ex.ch))
		})
		readQ := rt.readQs[i]
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_read_queue_depth", i), func() float64 {
			return float64(len(readQ))
		})
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_degraded", i), func() float64 {
			if ex.degraded.Load() {
				return 1
			}
			return 0
		})
		// Recovery stats are rebuilt on every heal, hence gauges. They read
		// the testbed's mutex-guarded per-partition snapshot, so a scrape is
		// safe against a concurrent RecoverPartition.
		part := i
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_recovery_ns", i), func() float64 {
			return float64(recoveryStatOf(db, part).Wall)
		})
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_recovery_records", i), func() float64 {
			return float64(recoveryStatOf(db, part).Records)
		})
		// Active snapshot views pin the GC watermark; a stuck gauge here
		// means some reader is holding back pre-image reclamation. What that
		// costs the writers is the two gauges after it: the pre-images held,
		// and the device reads nvm-inp / nvm-log writes made only because a
		// view was pinned. They read the testbed's mutex-guarded engine
		// pointer, so a scrape is safe against a concurrent partition heal,
		// which restarts them from zero.
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_active_views", i), func() float64 {
			if sr, ok := db.Engine(part).(core.SnapshotReader); ok {
				return float64(sr.Oracle().ActiveViews())
			}
			return 0
		})
		undoGauge := func(sel func(core.UndoStats) int64) func() float64 {
			return func() float64 {
				if us, ok := db.Engine(part).(core.UndoStatser); ok {
					return float64(sel(us.UndoStats()))
				}
				return 0
			}
		}
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_undo_records", i), undoGauge(func(s core.UndoStats) int64 { return s.Records }))
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_preimage_captures", i), undoGauge(func(s core.UndoStats) int64 { return s.Captures }))
		reg.GaugeFunc(fmt.Sprintf("serve_part%02d_preimage_materialized", i), undoGauge(func(s core.UndoStats) int64 { return s.Materialized }))
	}
}

// recoveryStatOf fetches one partition's last recovery stat (zero value if
// the partition never recovered).
func recoveryStatOf(db *testbed.DB, part int) testbed.RecoveryStat {
	stats := db.RecoveryStats()
	if part < len(stats) {
		return stats[part]
	}
	return testbed.RecoveryStat{}
}

// nvmStats flattens the aggregated device counters to signed ints for the
// counter callbacks.
type nvmStats struct {
	loads, stores, flushes, fences                int64
	bytesRead, bytesWritten, stallNS, readStallNS int64
}

func nvmStatsOf(db *testbed.DB) nvmStats {
	s := db.Stats()
	return nvmStats{
		loads:        int64(s.Loads),
		stores:       int64(s.Stores),
		flushes:      int64(s.Flushes),
		fences:       int64(s.Fences),
		bytesRead:    int64(s.BytesRead),
		bytesWritten: int64(s.BytesWritten),
		stallNS:      int64(s.Stall),
		readStallNS:  int64(s.ReadStall),
	}
}

// Metrics returns the runtime's registry (for the HTTP endpoint and tests).
func (rt *Runtime) Metrics() *obs.Registry { return rt.reg }
