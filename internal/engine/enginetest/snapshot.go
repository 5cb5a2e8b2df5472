package enginetest

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"nstore/internal/core"
)

// RunSnapshotConformance drives the engine through seeded concurrent
// read/write workloads and asserts snapshot isolation: every view pinned by a
// concurrent reader is an exact, prefix-consistent committed snapshot — no
// dirty reads, no torn scans, no phantom or lost rows — view timestamps
// never move backwards, and a clean power cycle rebuilds the same durable
// frontier.
func RunSnapshotConformance(t *testing.T, f Factory) {
	t.Helper()
	runSchedules(t, func(seed int64) error { return snapshotSchedule(f, scheduleOpts, seed) })
}

// RunGroupCommitSnapshotConformance is RunSnapshotConformance with four
// transactions to a group commit, for an engine that publishes a commit only
// at its group's fsync: a view pinned between the two must roll the commit
// back, and one pinned after must see it whole. The history logs the
// committed state each time the oracle advances.
func RunGroupCommitSnapshotConformance(t *testing.T, f Factory) {
	t.Helper()
	opts := scheduleOpts
	opts.GroupCommitSize = 4
	runSchedules(t, func(seed int64) error { return snapshotSchedule(f, opts, seed) })
}

// snapEntry records the exact committed state whose publication advanced
// the oracle to ts. The writer appends inside the same critical section as
// Commit, so a reader that pinned a view at ts T and then takes the lock is
// guaranteed to find T's entry.
type snapEntry struct {
	ts uint64
	m  model
}

// snapshotSchedule runs one seeded schedule under opts: a single-owner
// writer commits, aborts and deletes through the engine while concurrent
// readers pin views and compare them against the logged committed history,
// then a clean power cycle must recover exactly the final committed
// snapshot.
func snapshotSchedule(f Factory, opts core.Options, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	env, schemas := scheduleEnv(), testSchema()
	e, err := f.New(env, schemas, opts)
	if err != nil {
		return fmt.Errorf("New: %w", err)
	}
	sr, ok := core.Engine(e).(core.SnapshotReader)
	if !ok {
		return fmt.Errorf("engine %s does not implement core.SnapshotReader", e.Name())
	}

	var mu sync.Mutex
	hist := []snapEntry{{ts: sr.Oracle().ReadTs(), m: model{}}}

	var stop atomic.Bool
	var readerErr atomic.Value
	var wg sync.WaitGroup
	readers := 2 + int(seed&1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastTs uint64
			for !stop.Load() {
				v := sr.SnapshotView()
				err := checkSnapshotView(v, schemas, &mu, &hist, lastTs)
				if v.Ts() > lastTs {
					lastTs = v.Ts()
				}
				v.Close()
				if err != nil {
					readerErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}

	committed := model{"users": {}, "items": {}}
	working := committed.clone()
	steps := 25 + rng.Intn(25)
	writeErr := func() error {
		for step := 0; step < steps; step++ {
			if err := e.Begin(); err != nil {
				return fmt.Errorf("step %d: Begin: %w", step, err)
			}
			nops := 1 + rng.Intn(3)
			for o := 0; o < nops; o++ {
				if err := snapshotMutate(e, working, rng); err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
			}
			if rng.Intn(6) == 0 {
				if err := e.Abort(); err != nil {
					return fmt.Errorf("step %d: Abort: %w", step, err)
				}
				working = committed.clone()
				continue
			}
			// Commit and the history append share the critical section: the
			// oracle advances inside Commit — to this transaction's timestamp
			// when it is durable, not at all while its group waits for the
			// fsync — so no reader can pin a timestamp and miss its entry. An
			// advance publishes every commit so far, so the state it
			// publishes is the committed one.
			mu.Lock()
			err := e.Commit()
			if err == nil {
				committed = working
				if ts := sr.Oracle().ReadTs(); ts > hist[len(hist)-1].ts {
					hist = append(hist, snapEntry{ts: ts, m: committed})
				}
			}
			mu.Unlock()
			if err != nil {
				return fmt.Errorf("step %d: Commit: %w", step, err)
			}
			working = committed.clone()
		}
		return nil
	}()
	stop.Store(true)
	wg.Wait()
	if writeErr != nil {
		return writeErr
	}
	if err, _ := readerErr.Load().(error); err != nil {
		return fmt.Errorf("concurrent reader: %w", err)
	}

	// A clean power cycle must recover exactly the final committed
	// snapshot, with the rebuilt oracle's floor serving it.
	if err := e.Flush(); err != nil {
		return fmt.Errorf("pre-crash Flush: %w", err)
	}
	e2, err := crashOpen(f, env, schemas, opts)
	if err != nil {
		return err
	}
	sr2, ok := core.Engine(e2).(core.SnapshotReader)
	if !ok {
		return fmt.Errorf("recovered engine lost core.SnapshotReader")
	}
	if err := sr2.ReadSnapshot(func(v core.ReadView) error { return checkModel(v, schemas, committed) }); err != nil {
		return fmt.Errorf("post-recovery snapshot != final committed state: %w", err)
	}
	return nil
}

// snapshotMutate applies one random write to the engine and the working
// model: insert a fresh key, update or delete an existing one, in users —
// whose secondary index every update moves — or in items, which has none.
func snapshotMutate(e core.Engine, working model, rng *rand.Rand) error {
	key := uint64(rng.Intn(48))
	if rng.Intn(2) == 0 {
		return mutate(rng, e, "items", working["items"], key, 4, func() []core.Value {
			return []core.Value{core.IntVal(int64(key)), core.IntVal(rng.Int63n(1000))}
		})
	}
	return mutate(rng, e, "users", working["users"], key, 4, func() []core.Value {
		row := userRow(int64(key) + rng.Int63n(1000))
		row[0] = core.IntVal(int64(key))
		return row
	})
}

// checkSnapshotView asserts that the view is exactly the committed state
// logged at the newest history entry with ts <= view ts — a commit published
// between this view and a newer one must be invisible in its entirety.
// minTs is the reader's previous view timestamp (monotonicity).
func checkSnapshotView(v core.ReadView, schemas []*core.Schema, mu *sync.Mutex, hist *[]snapEntry, minTs uint64) error {
	ts := v.Ts()
	if ts < minTs {
		return fmt.Errorf("view timestamps went backwards: %d after %d", ts, minTs)
	}
	mu.Lock()
	entries := *hist
	i := sort.Search(len(entries), func(i int) bool { return entries[i].ts > ts })
	mu.Unlock()
	if i == 0 {
		return fmt.Errorf("view ts %d below the history floor %d", ts, entries[0].ts)
	}
	if err := checkModel(v, schemas, entries[i-1].m); err != nil {
		return fmt.Errorf("view ts %d (model ts %d): %w", ts, entries[i-1].ts, err)
	}
	return nil
}
