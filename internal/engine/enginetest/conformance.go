package enginetest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/pmfs"
)

// faultFamily is one class of injected failure. Exactly one of device/sync
// is set: device plans act on the NVM write-back hierarchy (all engines);
// sync faults act on the filesystem fsync path (traditional engines, whose
// durability runs entirely through pmfs).
type faultFamily struct {
	name   string
	device *nvm.FaultPlan
	sync   *pmfs.SyncFault
}

// conformanceFamilies returns the rotation of fault families for an engine.
func conformanceFamilies(volatile bool) []faultFamily {
	fams := []faultFamily{
		{name: "device-lose-all", device: &nvm.FaultPlan{Mode: nvm.FaultLoseAll}},
		{name: "device-reorder", device: &nvm.FaultPlan{Mode: nvm.FaultReorder, KeepProb: 0.5}},
		{name: "device-tear", device: &nvm.FaultPlan{Mode: nvm.FaultTear, KeepProb: 0.5, TearProb: 0.7}},
	}
	if volatile {
		fams = append(fams,
			faultFamily{name: "fsync-lost", sync: &pmfs.SyncFault{Mode: pmfs.SyncCrashLost}},
			faultFamily{name: "fsync-torn", sync: &pmfs.SyncFault{Mode: pmfs.SyncCrashTorn}},
			faultFamily{name: "fsync-after", sync: &pmfs.SyncFault{Mode: pmfs.SyncCrashAfter}},
		)
	}
	return fams
}

// withFamily runs schedule under the seed's fault family — derived from the
// seed, not the loop index, so -seed=N replays it under the same family —
// and names the family in its failure.
func withFamily(f Factory, schedule func(Factory, faultFamily, int64) error) func(int64) error {
	fams := conformanceFamilies(f.Volatile)
	return func(seed int64) error {
		fam := fams[int(uint64(seed)%uint64(len(fams)))]
		if err := schedule(f, fam, seed); err != nil {
			return fmt.Errorf("[%s] %w", fam.name, err)
		}
		return nil
	}
}

// arm installs the family's fault on env, seeded by seed: a device fault
// fires at fence base+rng.Intn(span) from now, a sync fault at fsync
// rng.Intn(syncs).
func (fam faultFamily) arm(env *core.Env, seed int64, rng *rand.Rand, base, span, syncs int) {
	if fam.device != nil {
		p := *fam.device
		p.Seed, p.CrashAfterFences = seed, base+rng.Intn(span)
		env.Dev.InjectFaults(p)
		return
	}
	sf := *fam.sync
	sf.Seed, sf.AfterSyncs = seed, rng.Intn(syncs)
	env.FS.InjectSyncFault(sf)
}

// watch has a sync family's filesystem record every write from the start,
// so the fault arm installs later may tear a write made before it: pmfs
// records unsynced ranges only while a sync fault is installed. The fault
// watch installs cannot fire before arm replaces it.
func (fam faultFamily) watch(env *core.Env) {
	if fam.sync != nil {
		env.FS.InjectSyncFault(pmfs.SyncFault{AfterSyncs: math.MaxInt})
	}
}

// RunRecoveryConformance drives the engine through seeded workloads, each
// ending in an injected crash — power loss at a fence boundary, reordered or
// torn cache-line write-back, and (for the traditional engines) lost or torn
// fsyncs — then recovers and asserts the exact committed state survived.
func RunRecoveryConformance(t *testing.T, f Factory) {
	t.Helper()
	runSchedules(t, withFamily(f, recoverySchedule))
}

// RunConformanceCatchesMissingFence is the battery's self-test on an
// NVM-aware engine: with the SFENCE removed (fences are no-ops during the
// workload, restored for recovery) 12 schedules from baseSeed (seed mod 3:
// lose-all, reorder, tear) must report a failure at every latency profile —
// synced lines retained in the cache (CLWB) and streamed lines waiting in the
// memory controller's buffer must both expose a missing fence.
func RunConformanceCatchesMissingFence(t *testing.T, f Factory, baseSeed int64) {
	for _, prof := range nvm.Profiles {
		t.Run(prof.Name, func(t *testing.T) {
			broken := Factory{
				Name: f.Name + "-nofence",
				New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
					env.Dev.SetLatency(prof)
					e, err := f.New(env, schemas, opts)
					if err == nil {
						env.Dev.SetFenceNoop(true)
					}
					return e, err
				},
				Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
					env.Dev.SetFenceNoop(false)
					return f.Open(env, schemas, opts)
				},
			}
			err := seedLoop(t.Name(), baseSeed, 12, withFamily(broken, recoverySchedule))
			if err == nil {
				t.Fatal("conformance battery did not catch an engine whose commit fence was removed")
			}
			t.Logf("caught as expected: %v", err)
		})
	}
}

// recoverySchedule runs one seeded workload until its armed fault crashes
// it, recovers, and checks the recovered state against the committed model.
func recoverySchedule(f Factory, fam faultFamily, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	env, opts, schemas := scheduleEnv(), scheduleOpts, testSchema()
	// VlogThreshold 64 reaches the Log engine only: it separates user rows
	// (~85 B encoded) but not item rows, so its every crash schedule also
	// exercises the value-log head replay and pointer validation.
	opts.VlogThreshold = 64
	fam.watch(env)
	e, err := f.New(env, schemas, opts)
	if err != nil {
		return fmt.Errorf("New: %w", err)
	}

	// Arm the fault after setup: the crash window is the workload itself. The
	// traditional engines fence only at fsyncs, the NVM engines at every
	// durable pointer store, so their trigger ranges differ.
	span := 600
	if f.Volatile {
		span = 200
	}
	fam.arm(env, seed^0x5eed, rng, 5, span, 120)

	// The workload runs until the fault fires: a schedule that outlived its
	// crash would test only a clean power cut.
	const maxTxns = 400
	w := newWorkload(rng, e)
	crashed, err := nvm.Crashed(func() error { return w.txns(maxTxns) })
	if err != nil {
		return err
	}
	if !crashed {
		return fmt.Errorf("the fault had not fired after %d transactions (%d fences taken)",
			maxTxns, env.Dev.Stats().Fences)
	}
	e2, err := crashOpen(f, env, schemas, opts)
	if err == nil {
		err = checkAtomic(e2, schemas, w.committed, w.working, w.phase == "commit")
	}
	if err == nil {
		err = probe(e2, "users", userRow(probeKey))
	}
	if err != nil {
		return fmt.Errorf("crash in phase %s: %w", w.phase, err)
	}
	return nil
}

// RunConcurrentRecoveryConformance is the conformance check for crashes
// inside recovery: a recovery pass must be restartable at any point without
// changing the state it converges to. It logs, per fault family, the share of
// schedules whose fault fired inside recovery.
func RunConcurrentRecoveryConformance(t *testing.T, f Factory) {
	t.Helper()
	fired := firings{}
	runSchedules(t, withFamily(f, fired.concurrent))
	for _, fam := range conformanceFamilies(f.Volatile) {
		n := fired[fam.name]
		t.Logf("%s/%s: the fault fired mid-recovery on %d of %d schedules", f.Name, fam.name, n[1], n[0])
	}
}

// firings counts, per fault family, the concurrent-recovery schedules run and
// those whose fault fired mid-recovery.
type firings map[string][2]int

// concurrent runs concurrentSchedule and counts whether its fault fired.
func (fr firings) concurrent(f Factory, fam faultFamily, seed int64) error {
	crashed, err := concurrentSchedule(f, fam, seed)
	n := fr[fam.name]
	n[0]++
	if crashed {
		n[1]++
	}
	fr[fam.name] = n
	return err
}

// concurrentSchedule runs one cycle: workload → clean crash → control
// recovery → crash → recovery attempt with a fault armed to fire
// mid-recovery → crash → final recovery, to the same committed state. It
// reports whether the fault fired inside the attempt.
func concurrentSchedule(f Factory, fam faultFamily, seed int64) (bool, error) {
	rng := rand.New(rand.NewSource(seed))
	env, opts, schemas := scheduleEnv(), scheduleOpts, testSchema()
	e, err := f.New(env, schemas, opts)
	if err != nil {
		return false, fmt.Errorf("New: %w", err)
	}
	w := newWorkload(rng, e)
	if err := w.txns(60); err != nil {
		return false, err
	}
	if err := e.Flush(); err != nil {
		return false, fmt.Errorf("Flush: %w", err)
	}

	// Control pass: clean power cycle. No transaction was in flight, so the
	// committed model is unambiguous. It measures the fences the engine's
	// recovery takes.
	env.Dev.Crash()
	env2, err := reattach(f, env)
	if err != nil {
		return false, fmt.Errorf("control recovery: %w", err)
	}
	start := env.Dev.Stats().Fences
	e2, err := f.Open(env2, schemas, opts)
	fences := int(env.Dev.Stats().Fences - start)
	if err == nil {
		err = checkModel(e2, schemas, w.committed)
	}
	if err != nil {
		return false, fmt.Errorf("control recovery: %w", err)
	}

	// Power-cycle again, then arm a fault timed to fire inside the next
	// recovery — the power cut lands mid-replay: a device fault at one of the
	// fences the control recovery took, a sync fault on the filesystem this
	// recovery opened, not the one before it. (Every reopen is of env's one
	// device.)
	env.Dev.Crash()
	env3, err := reattach(f, env)
	if err != nil {
		return false, fmt.Errorf("mid-recovery attempt: %w", err)
	}
	fam.arm(env3, seed^0x7ec0, rng, 0, max(fences, 1), 10)
	crashed, err := nvm.Crashed(func() error {
		_, err := f.Open(env3, schemas, opts)
		return err
	})
	if err != nil {
		return crashed, fmt.Errorf("mid-recovery attempt: %w", err)
	}

	// Final pass: cut the power over whatever the interrupted recovery left
	// behind (Crash applies the plan's reorder/tear effects to un-fenced
	// write-back) and recover once more, to the same committed state.
	e3, err := crashOpen(f, env, schemas, opts)
	if err == nil {
		err = checkModel(e3, schemas, w.committed)
	}
	if err == nil {
		err = probe(e3, "users", userRow(probeKey))
	}
	if err != nil {
		return crashed, fmt.Errorf("final recovery (mid-recovery crash fired: %v): %w", crashed, err)
	}
	return crashed, nil
}

// userOp applies one random mutation or read to the users table, mirroring
// it in the model.
func userOp(rng *rand.Rand, e core.Engine, m model, step int) error {
	users := m["users"]
	key := uint64(rng.Intn(120)) + 1
	switch rng.Intn(4) {
	case 0:
		if _, exists := users[key]; exists {
			return nil
		}
		row := userRow(int64(key))
		row[1].I = int64(rng.Intn(1000))
		if err := e.Insert("users", key, row); err != nil {
			return fmt.Errorf("Insert users/%d: %w", key, err)
		}
		users[key] = core.CloneRow(row)
	case 1:
		if _, exists := users[key]; !exists {
			return nil
		}
		upd := core.Update{Cols: []int{1, 3}, Vals: []core.Value{
			core.IntVal(int64(rng.Intn(1000))),
			core.StrVal(fmt.Sprintf("bio-%d-%d", step, key)),
		}}
		if err := e.Update("users", key, upd); err != nil {
			return fmt.Errorf("Update users/%d: %w", key, err)
		}
		row := core.CloneRow(users[key])
		core.ApplyDelta(row, upd)
		users[key] = row
	case 2:
		if _, exists := users[key]; !exists {
			return nil
		}
		if err := e.Delete("users", key); err != nil {
			return fmt.Errorf("Delete users/%d: %w", key, err)
		}
		delete(users, key)
	case 3:
		row, ok, err := e.Get("users", key)
		if err != nil {
			return fmt.Errorf("Get users/%d: %w", key, err)
		}
		want, exists := users[key]
		if ok != exists || (ok && !core.RowsEqual(testSchema()[0], row, want)) {
			return fmt.Errorf("read users/%d diverged from model (ok=%v exists=%v)", key, ok, exists)
		}
	}
	return nil
}

// itemOp applies one random mutation to the items table.
func itemOp(rng *rand.Rand, e core.Engine, m model) error {
	key := uint64(rng.Intn(60)) + 1
	return mutate(rng, e, "items", m["items"], key, 3, func() []core.Value {
		return []core.Value{core.IntVal(int64(key)), core.IntVal(int64(rng.Intn(500)))}
	})
}

// mutate inserts the row newRow draws at key if rows lacks it, else deletes
// the key one time in del, else sets its column 1 to a random int, mirroring
// the write in rows.
func mutate(rng *rand.Rand, e core.Engine, table string, rows map[uint64][]core.Value, key uint64, del int, newRow func() []core.Value) error {
	if _, exists := rows[key]; !exists {
		row := newRow()
		if err := e.Insert(table, key, row); err != nil {
			return fmt.Errorf("Insert %s/%d: %w", table, key, err)
		}
		rows[key] = core.CloneRow(row)
		return nil
	}
	if rng.Intn(del) == 0 {
		if err := e.Delete(table, key); err != nil {
			return fmt.Errorf("Delete %s/%d: %w", table, key, err)
		}
		delete(rows, key)
		return nil
	}
	upd := core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(int64(rng.Intn(500)))}}
	if err := e.Update(table, key, upd); err != nil {
		return fmt.Errorf("Update %s/%d: %w", table, key, err)
	}
	row := core.CloneRow(rows[key])
	core.ApplyDelta(row, upd)
	rows[key] = row
	return nil
}
