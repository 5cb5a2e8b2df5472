package enginetest

import (
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/txn2pc"
)

// The crash-schedule driver every battery runs on: one seed loop, one
// transaction loop, one power-cut-and-reopen and one state oracle.

// seedFlag is the base seed of every seeded schedule.
var seedFlag = flag.Int64("seed", 1, "base seed for fault-injection schedules")

// BaseSeed returns the -seed test flag.
func BaseSeed() int64 { return *seedFlag }

// runSchedules runs a battery's schedule at 200 seeds from -seed, or 40
// under -short, and fails t at the first schedule that fails.
func runSchedules(t *testing.T, schedule func(seed int64) error) {
	t.Helper()
	n := 200
	if testing.Short() {
		n = 40
	}
	if err := seedLoop(t.Name(), BaseSeed(), n, schedule); err != nil {
		t.Fatal(err)
	}
}

// seedLoop runs schedule at n seeds from base and returns the first failure,
// naming its seed and the command that replays it: a -run pattern that
// anchors each level of test's name, so it selects that test and no other.
func seedLoop(test string, base int64, n int, schedule func(seed int64) error) error {
	levels := strings.Split(test, "/")
	for i, l := range levels {
		levels[i] = "^" + regexp.QuoteMeta(l) + "$"
	}
	for seed := base; seed < base+int64(n); seed++ {
		if err := schedule(seed); err != nil {
			return fmt.Errorf("seed %d: %w\nreplay: go test -run '%s' -seed=%d", seed, err, strings.Join(levels, "/"), seed)
		}
	}
	return nil
}

// scheduleOpts force MemTable flushes, LSM merges and checkpoints inside a
// short schedule, and make every engine durable at commit (GroupCommitSize 1),
// so the committed model is exact.
var scheduleOpts = core.Options{MemTableCap: 32, LSMGrowth: 3, BTreeNodeSize: 128,
	GroupCommitSize: 1, CheckpointEvery: 40}

func scheduleEnv() *core.Env {
	return core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, FSExtent: 64 << 10})
}

// model is the reference state of a schedule: table -> key -> row. A table
// it has no entry for is empty.
type model map[string]map[uint64][]core.Value

// clone copies m's tables but shares their rows: a model that is cloned has
// its rows replaced, never written in place.
func (m model) clone() model {
	out := make(model, len(m))
	for table, rows := range m {
		out[table] = maps.Clone(rows)
	}
	return out
}

// workload is the crash schedules' transaction loop over testSchema: it
// tracks the model as of the last Commit, the model with the open
// transaction's writes, and the phase the loop is in, which is where an
// injected crash stops it.
type workload struct {
	rng                *rand.Rand
	e                  core.Engine
	committed, working model
	phase              string
}

func newWorkload(rng *rand.Rand, e core.Engine) *workload {
	empty := func() model { return model{"users": {}, "items": {}} }
	return &workload{rng: rng, e: e, committed: empty(), working: empty()}
}

// txns runs n transactions: Begin, one to three operations (one in four on
// items, the rest on users), then Abort one time in eight, else Commit.
func (w *workload) txns(n int) error {
	for step := 0; step < n; step++ {
		w.phase = "begin"
		if err := w.e.Begin(); err != nil {
			return fmt.Errorf("step %d: Begin: %w", step, err)
		}
		for o, nops := 0, 1+w.rng.Intn(3); o < nops; o++ {
			w.phase = "op"
			var err error
			if w.rng.Intn(4) == 3 {
				err = itemOp(w.rng, w.e, w.working)
			} else {
				err = userOp(w.rng, w.e, w.working, step)
			}
			if err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		if w.rng.Intn(8) == 0 {
			w.phase = "abort"
			if err := w.e.Abort(); err != nil {
				return fmt.Errorf("step %d: Abort: %w", step, err)
			}
			w.working = w.committed.clone()
		} else {
			w.phase = "commit"
			if err := w.e.Commit(); err != nil {
				return fmt.Errorf("step %d: Commit: %w", step, err)
			}
			w.committed = w.working.clone()
		}
	}
	return nil
}

// crashOpen cuts the power under env — an armed fault plan decides what the
// un-fenced lines leave behind — and recovers f's engine from the medium.
func crashOpen(f Factory, env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
	env.Dev.Crash()
	env2, err := reattach(f, env)
	if err != nil {
		return nil, err
	}
	e, err := f.Open(env2, schemas, opts)
	if err != nil {
		return nil, fmt.Errorf("recovery open: %w", err)
	}
	return e, nil
}

// reattach opens the filesystem and the arena on env's device, the arena
// reformatted for a volatile engine.
func reattach(f Factory, env *core.Env) (*core.Env, error) {
	reopen := env.Reopen
	if f.Volatile {
		reopen = env.ReopenVolatile
	}
	env2, err := reopen()
	if err != nil {
		return nil, fmt.Errorf("env reopen: %w", err)
	}
	return env2, nil
}

// rowReader is what the oracle reads: a core.Engine or a core.ReadView.
type rowReader interface {
	Get(table string, key uint64) ([]core.Value, bool, error)
	ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error
	ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error
}

// checkModel is the state oracle: every table of schemas scans to exactly
// m's rows, each row reads back by key, and each is in every secondary index
// of its table under its own index key.
func checkModel(r rowReader, schemas []*core.Schema, m model) error {
	for _, s := range schemas {
		rows := m[s.Name]
		n := 0
		var bad error
		if err := r.ScanRange(s.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			n++
			if want, ok := rows[pk]; !ok {
				bad = fmt.Errorf("%s: phantom key %d", s.Name, pk)
			} else if !core.RowsEqual(s, row, want) {
				bad = fmt.Errorf("%s: key %d = %v, want %v", s.Name, pk, row, want)
			}
			return bad == nil
		}); err != nil {
			return fmt.Errorf("%s: scan: %w", s.Name, err)
		}
		if bad != nil {
			return bad
		}
		if n != len(rows) {
			return fmt.Errorf("%s: scan found %d rows, model has %d", s.Name, n, len(rows))
		}
		for key, want := range rows {
			if row, ok, err := r.Get(s.Name, key); err != nil || !ok || !core.RowsEqual(s, row, want) {
				return fmt.Errorf("%s: point read of key %d = %v (found %v, err %v), want %v", s.Name, key, row, ok, err, want)
			}
			for _, ix := range s.Secondary {
				sec, found := ix.SecKey(want), false
				err := r.ScanSecondary(s.Name, ix.Name, sec, func(pk uint64) bool {
					found = pk == key
					return !found
				})
				if err != nil || !found {
					return fmt.Errorf("%s: key %d missing from %s=%d (err %v)", s.Name, key, ix.Name, sec, err)
				}
			}
		}
	}
	return nil
}

// checkAtomic is the crash rule: the transaction in flight at the crash is
// absent — r holds before — or, if the crash hit inside Commit, which may
// have passed its commit point and lost only the return, absent or whole.
func checkAtomic(r rowReader, schemas []*core.Schema, before, after model, inCommit bool) error {
	errB := checkModel(r, schemas, before)
	if errB == nil {
		return nil
	}
	if !inCommit {
		return fmt.Errorf("in-flight transaction not absent: %w", errB)
	}
	if errA := checkModel(r, schemas, after); errA != nil {
		return fmt.Errorf("crash in Commit, transaction neither absent (%v) nor whole (%v)", errB, errA)
	}
	return nil
}

// probeKey is a key no schedule draws, below the key rule's bound for a table
// with secondary indexes (core.TableMeta.CheckKey).
const probeKey = 1 << 23

// probe commits row at probeKey of table and reads it back: a recovered
// engine must take new transactions.
func probe(e core.Engine, table string, row []core.Value) error {
	const key = uint64(probeKey)
	if err := txn2pc.Run(e, func() error { return e.Insert(table, key, row) }); err != nil {
		return fmt.Errorf("post-recovery transaction: %w", err)
	}
	if _, ok, err := e.Get(table, key); err != nil || !ok {
		return fmt.Errorf("post-recovery probe row missing (ok=%v, err=%v)", ok, err)
	}
	return nil
}
