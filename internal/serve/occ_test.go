package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
)

// rmwTxn is the canonical OCC workload: read key, write back value+delta.
// Under first-committer-wins two concurrent rmwTxns on the same key conflict
// and one retries against a fresh snapshot, so the increments never clobber
// each other — the final value counts acked increments exactly.
func rmwTxn(key uint64, delta int64) testbed.Txn {
	return func(e core.Engine) error {
		row, ok, err := e.Get("t", key)
		if err != nil {
			return err
		}
		if !ok {
			return e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(delta)})
		}
		return e.Update("t", key, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(row[1].I + delta)}})
	}
}

// slowRmwTxn is rmwTxn with a yield between the read and the write. On a
// single-core runner a short optimistic phase runs snapshot→validate without
// preemption and never collides; the sleep parks the goroutine mid-body so
// another writer can land a competing commit — real contention, not luck.
func slowRmwTxn(key uint64, delta int64) testbed.Txn {
	return func(e core.Engine) error {
		row, ok, err := e.Get("t", key)
		if err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
		if !ok {
			return e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(delta)})
		}
		return e.Update("t", key, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(row[1].I + delta)}})
	}
}

// preload seeds keys 0..n-1 with value 0 through the runtime so every
// subsequent rmwTxn takes the update path.
func preload(t *testing.T, rt *Runtime, part int, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		if err := rt.SubmitPart(context.Background(), part, insertTxn(uint64(k), 0)); err != nil {
			t.Fatalf("preload key %d: %v", k, err)
		}
	}
}

// submitUntilAcked retries retryable outcomes (conflict-exhausted, heals in
// flight) until the commit acks. Conflicts abort before touching the engine,
// so a resubmission never double-applies.
func submitUntilAcked(t *testing.T, rt *Runtime, part int, txn testbed.Txn) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := rt.SubmitPart(context.Background(), part, txn)
		if err == nil {
			return
		}
		if (core.IsRetryable(err) || errors.Is(err, nvm.ErrInjectedCrash)) && attempt < 50 {
			time.Sleep(time.Duration(100+50*attempt) * time.Microsecond)
			continue
		}
		t.Fatalf("submit never acked: %v", err)
	}
}

// TestOCCSerialEquivalence runs the same seeded RMW workload with Writers:1
// (the untouched serial path — the oracle) and Writers:4 (optimistic
// executors) on every engine and asserts the final table states are
// identical. Increments commute, and the client retries until every one of
// them is acked, so any divergence is a lost or doubled update — exactly
// what OCC validation must prevent.
func TestOCCSerialEquivalence(t *testing.T) {
	const nKeys = 16
	const clients = 4
	perClient := 60
	if testing.Short() {
		perClient = 20
	}
	seed := enginetest.BaseSeed()

	run := func(t *testing.T, kind testbed.EngineKind, writers int) map[uint64]int64 {
		db := newDB(t, kind, 1, 32<<20)
		rt := New(db, Config{Writers: writers, Seed: seed, QueueDepth: 16})
		preload(t, rt, 0, nKeys)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(c)))
				for i := 0; i < perClient; i++ {
					submitUntilAcked(t, rt, 0, rmwTxn(uint64(rng.Intn(nKeys)), 1+int64(c)))
				}
			}(c)
		}
		wg.Wait()
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]int64)
		err := db.Engine(0).ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			got[pk] = row[1].I
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	for _, kind := range testbed.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			serial := run(t, kind, 1)
			occ := run(t, kind, 4)
			if len(serial) != len(occ) {
				t.Fatalf("row count diverged: serial %d, occ %d (seed=%d)", len(serial), len(occ), seed)
			}
			for k, v := range serial {
				if occ[k] != v {
					t.Fatalf("key %d: serial %d, occ %d (seed=%d) — an update was lost or doubled", k, v, occ[k], seed)
				}
			}
		})
	}
}

// TestOCCConflictSurfacesTyped choreographs a transaction that conflicts on
// every attempt: its read set is invalidated by a competing commit while the
// body is parked, for MaxRetries+1 straight attempts. The surfaced error
// must be core.ErrConflict — typed, retryable — and the conflict counter
// must have ticked once per attempt.
func TestOCCConflictSurfacesTyped(t *testing.T) {
	db := newDB(t, testbed.InP, 1, 32<<20)
	rt := New(db, Config{Writers: 2, MaxRetries: 2, Seed: 7})
	defer rt.Close()
	preload(t, rt, 0, 1)

	ran := make(chan struct{})
	proceed := make(chan struct{})
	victim := func(e core.Engine) error {
		row, _, err := e.Get("t", 0) // read set: key 0
		if err != nil {
			return err
		}
		ran <- struct{}{}
		<-proceed
		return e.Update("t", 0, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(row[1].I + 1)}})
	}

	res := make(chan error, 1)
	go func() { res <- rt.SubmitPart(context.Background(), 0, victim) }()

	// Each time the victim's body runs, land a competing write on its read
	// set before letting it reach validation. MaxRetries=2 → 3 attempts.
	for attempt := 0; attempt < 3; attempt++ {
		<-ran
		if err := rt.SubmitPart(context.Background(), 0, rmwTxn(0, 100)); err != nil {
			t.Fatalf("competing write %d: %v", attempt, err)
		}
		proceed <- struct{}{}
	}

	err := <-res
	if !errors.Is(err, core.ErrConflict) {
		t.Fatalf("want core.ErrConflict, got %v", err)
	}
	if !core.IsRetryable(err) {
		t.Fatalf("conflict must be retryable by contract, got %v", err)
	}
	if got := rt.Stats().Conflicts; got != 3 {
		t.Fatalf("want 3 validation conflicts, got %d", got)
	}
	if !strings.Contains(err.Error(), "t/0") {
		t.Fatalf("conflict error should name the clashing key, got %q", err)
	}
}

// TestOCCReadOnlyAndAbort: a read-only transaction through the optimistic
// path serializes at its snapshot (no validation, no durability work) and
// observes committed state; testbed.ErrAbort still surfaces as an abort.
func TestOCCReadOnlyAndAbort(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 1, 32<<20)
	rt := New(db, Config{Writers: 2, Seed: 11})
	defer rt.Close()
	preload(t, rt, 0, 4)
	submitUntilAcked(t, rt, 0, rmwTxn(2, 40))

	var saw int64
	err := rt.SubmitPart(context.Background(), 0, func(e core.Engine) error {
		row, ok, err := e.Get("t", 2)
		if err != nil || !ok {
			return fmt.Errorf("read-only get: ok=%v err=%v", ok, err)
		}
		saw = row[1].I
		return nil
	})
	if err != nil {
		t.Fatalf("read-only txn: %v", err)
	}
	if saw != 40 {
		t.Fatalf("read-only txn saw %d, want 40", saw)
	}

	if err := rt.SubmitPart(context.Background(), 0, func(e core.Engine) error {
		if err := e.Update("t", 2, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(999)}}); err != nil {
			return err
		}
		return testbed.ErrAbort
	}); !errors.Is(err, testbed.ErrAbort) {
		t.Fatalf("want ErrAbort, got %v", err)
	}
	if got := mustGet(t, db, 0, 2); got != 40 {
		t.Fatalf("aborted txn leaked a write: key 2 = %d, want 40", got)
	}
	if rt.Stats().Aborted != 1 {
		t.Fatalf("stats: %+v", rt.Stats())
	}
}

// TestOCCGroupCommitDeferredAck: with GroupCommitSize > 1 every OCC ack must
// wait for the group's durability barrier — a power cycle straight after the
// last ack may not eat a single acked commit, whichever writer carried it.
// Also pins the per-writer ack histograms into the metric surface.
func TestOCCGroupCommitDeferredAck(t *testing.T) {
	seed := enginetest.BaseSeed()
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.NVMLog,
		Partitions: 2,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: 8},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(db, Config{Writers: 3, Seed: seed, QueueDepth: 16})

	const clients = 6
	nTxns := 80
	if testing.Short() {
		nTxns = 30
	}
	acked := make([]map[uint64]int64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		acked[c] = make(map[uint64]int64)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := c % 2
			rng := rand.New(rand.NewSource(seed*100 + int64(c)))
			for i := 0; i < nTxns; i++ {
				key := uint64(c*nTxns+i)*2 + uint64(p)
				val := rng.Int63()
				submitUntilAcked(t, rt, p, insertTxn(key, val))
				acked[c][key] = val
			}
		}(c)
	}
	wg.Wait()

	snap := rt.Metrics().Snapshot()
	found := false
	for name, h := range snap.Histograms {
		if strings.Contains(name, "writer") && h.Count > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no per-writer ack histogram recorded any sample in OCC mode")
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Committed; got < int64(clients*nTxns) {
		t.Fatalf("committed %d < %d submitted", got, clients*nTxns)
	}

	db.Crash()
	if _, err := db.Recover(); err != nil {
		t.Fatalf("final recovery: %v (seed=%d)", err, seed)
	}
	for c := range acked {
		p := c % 2
		for key, val := range acked[c] {
			row, ok, err := db.Engine(p).Get("t", key)
			if err != nil || !ok {
				t.Fatalf("acked key %d lost after power cycle (ok=%v err=%v, seed=%d)", key, ok, err, seed)
			}
			if row[1].I != val {
				t.Fatalf("acked key %d = %d, want %d (seed=%d)", key, row[1].I, val, seed)
			}
		}
	}
}

// TestOCCContentionSoak hammers a hot keyset from concurrent clients with
// Writers:4 while injected crashes force mid-traffic heals, then power
// cycles. Zero acked-commit loss: each key's final value must equal the
// acked increments on it exactly — conflicts may abort and heals may fail
// transactions, but an acked RMW is durable and applied exactly once.
func TestOCCContentionSoak(t *testing.T) {
	const nKeys = 8 // hot: clients collide constantly
	const clients = 4
	perClient := 120
	if testing.Short() {
		perClient = 40
	}
	seed := enginetest.BaseSeed()

	for _, kind := range []testbed.EngineKind{testbed.InP, testbed.NVMCoW} {
		t.Run(string(kind), func(t *testing.T) {
			db := newDB(t, kind, 1, 32<<20)
			rt := New(db, Config{Writers: 4, Seed: seed, QueueDepth: 16})
			preload(t, rt, 0, nKeys)

			ackedInc := make([]atomic.Int64, nKeys)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*31 + int64(c)))
					for i := 0; i < perClient; i++ {
						if c == 0 && (i == perClient/3 || i == 2*perClient/3) {
							// A body-surfaced injected crash heals the
							// partition mid-traffic (any outcome is fine).
							rt.SubmitPart(context.Background(), 0, func(core.Engine) error {
								return nvm.ErrInjectedCrash
							})
							continue
						}
						key := uint64(rng.Intn(nKeys))
						submitUntilAcked(t, rt, 0, slowRmwTxn(key, 1))
						ackedInc[key].Add(1)
					}
				}(c)
			}
			wg.Wait()
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			stats := rt.Stats()
			if stats.Heals < 1 {
				t.Errorf("injected crashes never healed the partition: %+v", stats)
			}
			if stats.Conflicts < 1 {
				t.Errorf("hot-key contention produced zero OCC conflicts: %+v", stats)
			}
			if stats.Degraded != 0 {
				t.Errorf("partition degraded during soak: %+v", stats)
			}

			verify := func(when string) {
				for k := 0; k < nKeys; k++ {
					want := ackedInc[k].Load()
					got := mustGet(t, db, 0, uint64(k))
					if got != want {
						t.Fatalf("%s: key %d = %d, want %d acked increments (seed=%d) — acked work lost or doubled", when, k, got, want, seed)
					}
				}
			}
			verify("live")
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatalf("final recovery: %v (seed=%d)", err, seed)
			}
			verify("after power cycle")
			t.Logf("%s OCC soak (seed=%d): %+v", kind, seed, stats)
		})
	}
}

// TestOCCBackoffRNGRace is the regression for the shared-RNG data race: the
// per-partition backoff rand.Rand is not goroutine-safe, and with multiple
// optimistic executors the conflict-retry path used to hammer it from every
// writer at once. Each writer now derives its own seeded RNG; this test
// drives all four writers into simultaneous backoff under -race.
func TestOCCBackoffRNGRace(t *testing.T) {
	db := newDB(t, testbed.InP, 1, 32<<20)
	rt := New(db, Config{Writers: 4, Seed: 3, QueueDepth: 32, RetryBase: 10 * time.Microsecond})
	defer rt.Close()
	preload(t, rt, 0, 1)

	const clients = 8
	perClient := 40
	if testing.Short() {
		perClient = 15
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Single hot key: every concurrent pair conflicts, so the
				// retry/backoff path runs on all writers concurrently.
				submitUntilAcked(t, rt, 0, slowRmwTxn(0, 1))
			}
		}()
	}
	wg.Wait()
	if rt.Stats().Conflicts == 0 {
		t.Error("race regression needs conflicts to exercise per-writer backoff RNGs")
	}
	if got := mustGet(t, db, 0, 0); got != int64(clients*perClient) {
		t.Fatalf("key 0 = %d, want %d", got, clients*perClient)
	}
}

// TestOCCReadOnlySuccessReleasesParkedAcks: a writer's commit that finds the
// queue busy parks its ack for the group's barrier. If what then drains the
// queue is a read-only transaction — which succeeds without joining the
// group — nothing further arrives to run the barrier, so the read-only
// success has to: the parked ack used to wait for the next request.
func TestOCCReadOnlySuccessReleasesParkedAcks(t *testing.T) {
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.NVMInP,
		Partitions: 1,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: 8},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(db, Config{Writers: 2, Seed: 5})
	defer rt.Close()
	ctx := context.Background()
	preload(t, rt, 0, 2)

	// gated parks a transaction inside its body; a conflict retry would
	// re-enter, hence the Once.
	gated := func(body testbed.Txn) (txn testbed.Txn, inBody, gate chan struct{}) {
		inBody, gate = make(chan struct{}), make(chan struct{})
		var once sync.Once
		return func(e core.Engine) error {
			once.Do(func() { close(inBody) })
			<-gate
			return body(e)
		}, inBody, gate
	}
	readKey1 := func(e core.Engine) error {
		_, _, err := e.Get("t", 1)
		return err
	}
	writeTxn, writeIn, writeGate := gated(rmwTxn(0, 7))
	parkTxn, parkIn, parkGate := gated(readKey1)
	defer close(parkGate)

	// One writer holds the write inside its body, the other a read-only
	// transaction, and a second read-only transaction waits in the queue.
	write, parked, queued := make(chan error, 1), make(chan error, 1), make(chan error, 1)
	go func() { write <- rt.SubmitPart(ctx, 0, writeTxn) }()
	<-writeIn
	go func() { parked <- rt.SubmitPart(ctx, 0, parkTxn) }()
	<-parkIn
	go func() { queued <- rt.SubmitPart(ctx, 0, readKey1) }()
	waitQueued(t, rt, 0, 1)

	// The write commits behind a busy queue, so its ack is parked; its
	// writer then serves the queued read-only transaction, which leaves the
	// queue idle with the other writer still inside its body.
	close(writeGate)
	if err := <-queued; err != nil {
		t.Fatalf("queued read-only txn = %v", err)
	}
	select {
	case err := <-write:
		if err != nil {
			t.Fatalf("write = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the write's parked ack was not released when a read-only success left the queue idle")
	}
}
