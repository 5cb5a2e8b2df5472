package netdrill

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/pmfs"
	"nstore/internal/serve"
	"nstore/internal/testbed"
)

// faults names every -fault schedule and arms it on one partition's
// environment, letting after fsyncs or fences through first; "none" arms
// nothing.
var faults = map[string]func(env *core.Env, after int, seed int64){
	"none":            nil,
	"fsync-transient": func(env *core.Env, after int, _ int64) { env.FS.FailSyncs(after, 2) },
	"fsync-lost": func(env *core.Env, after int, seed int64) {
		env.FS.InjectSyncFault(pmfs.SyncFault{Seed: seed, AfterSyncs: after, Mode: pmfs.SyncCrashLost})
	},
	"fsync-torn": func(env *core.Env, after int, seed int64) {
		env.FS.InjectSyncFault(pmfs.SyncFault{Seed: seed, AfterSyncs: after, Mode: pmfs.SyncCrashTorn})
	},
	"fence-lose": func(env *core.Env, after int, seed int64) {
		env.Dev.InjectFaults(nvm.FaultPlan{Seed: seed, Mode: nvm.FaultLoseAll, CrashAfterFences: after})
	},
	"fence-reorder": func(env *core.Env, after int, seed int64) {
		env.Dev.InjectFaults(nvm.FaultPlan{Seed: seed, Mode: nvm.FaultReorder, CrashAfterFences: after, KeepProb: 0.5})
	},
}

// runServe is the -serve drill: concurrent clients drive w's in-process
// schedule through the supervised runtime while f.Fault fires on every
// partition mid-traffic, then it proves the surviving state: the run must
// complete without abandoning work beyond what the fault cost, and the
// database must come back from a final full power cycle with every committed
// row. Supervisor events go to errw.
func runServe(db *testbed.DB, w *Workload, f *Flags, out, errw io.Writer) error {
	ctx := context.Background()
	rt := serve.New(db, serve.Config{Seed: f.Seed, OnEvent: func(ev serve.Event) {
		fmt.Fprintf(errw, "[part %d] %s: %v\n", ev.Part, ev.Kind, ev.Err)
	}})
	if f.Metrics != "" {
		ms, err := rt.StartMetrics(f.Metrics)
		if err != nil {
			rt.Close()
			return err
		}
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", ms.Addr())
	}
	if arm := faults[f.Fault]; arm != nil {
		// Each partition's schedule is installed from its own executor, so
		// it is ordered with the executor's engine accesses.
		for p := 0; p < db.Partitions(); p++ {
			env, seed := db.Env(p), f.Seed+int64(p)
			rt.Arm(ctx, p, func() { arm(env, f.FaultAfter, seed) })
		}
	}
	res := driveRuntime(ctx, rt, w.Txns(), f.Clients)
	stats := rt.Stats()
	if err := rt.Close(); err != nil {
		fmt.Fprintln(errw, "close:", err)
	}
	fmt.Fprintf(out, "serve: %d acked, %d aborted, %d abandoned (clients); supervisor: %d retries, %d panics contained, %d heals, %d degraded\n",
		res.Acked, res.Aborted, res.Failed, stats.Retries, stats.Panics, stats.Heals, stats.Degraded)
	live, err := countRows(db, w.Schemas)
	if err != nil {
		return fmt.Errorf("live scan: %w", err)
	}
	db.Crash()
	d, err := db.Recover()
	if err != nil {
		return fmt.Errorf("final recovery: %w", err)
	}
	recovered, err := countRows(db, w.Schemas)
	if err != nil {
		return fmt.Errorf("recovered scan: %w", err)
	}
	if recovered != live || (w.WantRows >= 0 && recovered != w.WantRows) {
		want := w.WantRows
		if want < 0 {
			want = live
		}
		return fmt.Errorf("row count diverged: live %d, recovered %d, want %d", live, recovered, want)
	}
	fmt.Fprintf(out, "final crash + recovery: %v; %d rows intact\n", d, recovered)
	for _, s := range db.RecoveryStats() {
		fmt.Fprintf(out, "  part %d: %v (%d records)\n", s.Partition, s.Wall.Round(1000), s.Records)
	}
	return nil
}

// driveRuntime feeds the per-partition transaction lists through the runtime
// with clients concurrent workers per partition, worker c taking every
// clients-th transaction from the c-th. Result.Failed counts the transactions
// abandoned.
func driveRuntime(ctx context.Context, rt *serve.Runtime, perPart [][]testbed.Txn, clients int) Result {
	clients = max(clients, 1)
	res, _ := fanOut(len(perPart), clients, func(t *tally, p, c int) {
		for i := c; i < len(perPart[p]); i += clients {
			submitWithRetry(ctx, t, rt, p, perPart[p][i])
		}
	})
	return res
}

// submitWithRetry submits one transaction and tallies its outcome. Typed
// retryable outcomes (backpressure, in-flight recovery, contained panics) are
// resubmitted a bounded number of times; anything else abandons the
// transaction, so a fault never stalls the drive. KeyExists on a resubmission
// is the ack of an ambiguous earlier attempt that committed after all.
func submitWithRetry(ctx context.Context, t *tally, rt *serve.Runtime, part int, txn testbed.Txn) {
	var err error
	for attempt := 0; attempt < 12; attempt++ {
		err = rt.SubmitPart(ctx, part, txn)
		var te *core.TxnError
		switch {
		case err == nil, errors.Is(err, core.ErrKeyExists) && attempt > 0:
			t.acked.Add(1)
			return
		case errors.Is(err, testbed.ErrAbort):
			t.aborted.Add(1)
			return
		case core.IsRetryable(err), errors.Is(err, nvm.ErrInjectedCrash), errors.As(err, &te) && te.Panicked:
			time.Sleep(time.Duration(200+100*attempt) * time.Microsecond)
		default:
			t.fail(err)
			return
		}
	}
	t.fail(err)
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
