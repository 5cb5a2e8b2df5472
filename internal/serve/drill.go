package serve

import (
	"context"
	"fmt"
	"io"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/pmfs"
	"nstore/internal/testbed"
)

// FaultNames lists the fault schedules RunDrill accepts.
var FaultNames = []string{"none", "fsync-transient", "fsync-lost", "fsync-torn", "fence-lose", "fence-reorder"}

// DrillConfig parameterizes RunDrill, the workload binaries' -serve mode.
type DrillConfig struct {
	// Clients is the number of concurrent clients per partition.
	Clients int
	// Fault names the mid-traffic fault schedule (see FaultNames).
	Fault string
	// FaultAfter is how many fsyncs/fences to let through first.
	FaultAfter int
	// Seed seeds the fault schedules and the runtime's jitter.
	Seed int64
	// WantRows, when >= 0, is the expected total row count after the
	// final power cycle (workloads that never insert or delete).
	WantRows int64
	// Metrics, when non-empty, is a listen address (host:port, ":0" for
	// ephemeral) for the /metrics + /healthz + pprof endpoint, which stays
	// up for the duration of the drill.
	Metrics string
	// Out and Errw receive the report and the supervisor event log.
	Out, Errw io.Writer
}

// RunDrill drives pre-generated transactions through the serving runtime
// with concurrent clients while the configured fault fires on every
// partition mid-traffic, then proves the surviving state: the run must
// complete without abandoning work beyond what the fault cost, and the
// database must come back from a final full power cycle with every
// committed row.
func RunDrill(db *testbed.DB, perPart [][]testbed.Txn, schemas []*core.Schema, cfg DrillConfig) error {
	ctx := context.Background()
	rt := New(db, Config{Seed: cfg.Seed, OnEvent: func(ev Event) {
		fmt.Fprintf(cfg.Errw, "[part %d] %s: %v\n", ev.Part, ev.Kind, ev.Err)
	}})
	if cfg.Metrics != "" {
		ms, err := rt.StartMetrics(cfg.Metrics)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Fprintf(cfg.Out, "metrics: http://%s/metrics\n", ms.Addr())
	}
	if err := armFault(ctx, rt, db, cfg.Fault, cfg.FaultAfter, cfg.Seed); err != nil {
		return err
	}
	ds := Drive(ctx, rt, perPart, cfg.Clients)
	stats := rt.Stats()
	if err := rt.Close(); err != nil {
		fmt.Fprintln(cfg.Errw, "close:", err)
	}
	fmt.Fprintf(cfg.Out, "serve: %d acked, %d aborted, %d abandoned (clients); supervisor: %d retries, %d panics contained, %d heals, %d degraded\n",
		ds.Acked, ds.Aborted, ds.Abandoned, stats.Retries, stats.Panics, stats.Heals, stats.Degraded)
	live, err := countRows(db, schemas)
	if err != nil {
		return fmt.Errorf("live scan: %w", err)
	}
	db.Crash()
	d, err := db.Recover()
	if err != nil {
		return fmt.Errorf("final recovery: %w", err)
	}
	recovered, err := countRows(db, schemas)
	if err != nil {
		return fmt.Errorf("recovered scan: %w", err)
	}
	if recovered != live || (cfg.WantRows >= 0 && recovered != cfg.WantRows) {
		want := cfg.WantRows
		if want < 0 {
			want = live
		}
		return fmt.Errorf("row count diverged: live %d, recovered %d, want %d", live, recovered, want)
	}
	fmt.Fprintf(cfg.Out, "final crash + recovery: %v; %d rows intact\n", d, recovered)
	for _, s := range db.RecoveryStats() {
		fmt.Fprintf(cfg.Out, "  part %d: %v (%d records)\n", s.Partition, s.Wall.Round(1000), s.Records)
	}
	return nil
}

// armFault installs the requested fault schedule on every partition, from
// each partition's own executor goroutine.
func armFault(ctx context.Context, rt *Runtime, db *testbed.DB, fault string, after int, seed int64) error {
	if fault == "" || fault == "none" {
		return nil
	}
	for p := 0; p < db.Partitions(); p++ {
		env := db.Env(p)
		pseed := seed + int64(p)
		var fn func()
		switch fault {
		case "fsync-transient":
			fn = func() { env.FS.FailSyncs(after, 2) }
		case "fsync-lost":
			fn = func() {
				env.FS.InjectSyncFault(pmfs.SyncFault{Seed: pseed, AfterSyncs: after, Mode: pmfs.SyncCrashLost})
			}
		case "fsync-torn":
			fn = func() {
				env.FS.InjectSyncFault(pmfs.SyncFault{Seed: pseed, AfterSyncs: after, Mode: pmfs.SyncCrashTorn})
			}
		case "fence-lose":
			fn = func() {
				env.Dev.InjectFaults(nvm.FaultPlan{Seed: pseed, Mode: nvm.FaultLoseAll, CrashAfterFences: after})
			}
		case "fence-reorder":
			fn = func() {
				env.Dev.InjectFaults(nvm.FaultPlan{Seed: pseed, Mode: nvm.FaultReorder, CrashAfterFences: after, KeepProb: 0.5})
			}
		default:
			return fmt.Errorf("unknown fault %q", fault)
		}
		rt.Arm(ctx, p, fn)
	}
	return nil
}

// countRows scans every table on every partition.
func countRows(db *testbed.DB, schemas []*core.Schema) (int64, error) {
	var total int64
	for p := 0; p < db.Partitions(); p++ {
		for _, s := range schemas {
			err := db.Engine(p).ScanRange(s.Name, 0, ^uint64(0), func(uint64, []core.Value) bool {
				total++
				return true
			})
			if err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}
