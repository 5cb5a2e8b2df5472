package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/testbed"
)

// TestRecoverAllRacesSubmitAndMetrics is the race-detector regression for
// RecoverAll's concurrent partition recovery: client goroutines keep submitting transactions
// while RecoverAll rips partitions out from under them and a scraper snapshots
// the metrics registry (which reads per-partition recovery stats) the whole
// time. No faults are armed — every recovery must succeed — so the only
// acceptable submit failures are the typed fail-fast errors. Run under -race;
// the CI recovery lane does.
//
// On the two Log engines the MemTable is small and the clients overwrite a
// few hot keys, so flushes, merges and (on log, whose small value-log
// segments fill with dead records) value-log GC run inline in the executors
// while the scraper reads the flush_* gauges: FlushStats must read under the
// engine's exclusion. Traffic keeps going after the recovery rounds until
// the scraper has seen each of those counters move.
func TestRecoverAllRacesSubmitAndMetrics(t *testing.T) {
	// Replaces a hot key's whole image, so every flush separates fresh values
	// and every merge leaves the older ones dead.
	upsert := func(k uint64) testbed.Txn {
		return func(e core.Engine) error {
			hot := k % 64
			_, ok, err := e.Get("t", hot)
			if err == nil && ok {
				err = e.Delete("t", hot)
			}
			if err != nil {
				return err
			}
			return e.Insert("t", hot, []core.Value{core.IntVal(int64(hot)), core.IntVal(int64(k))})
		}
	}
	for _, tc := range []struct {
		kind  testbed.EngineKind
		opts  core.Options
		txn   func(k uint64) testbed.Txn
		moved []string // flush gauges the scraper must see above zero
	}{
		{testbed.NVMInP, core.Options{GroupCommitSize: 1}, func(k uint64) testbed.Txn { return insertTxn(k, int64(k)) }, nil},
		{testbed.Log, core.Options{GroupCommitSize: 1, MemTableCap: 8, VlogThreshold: 1, VlogSegSize: 256}, upsert,
			[]string{"flush_flushes", "flush_compactions", "flush_gc_runs"}},
		{testbed.NVMLog, core.Options{GroupCommitSize: 1, MemTableCap: 8}, upsert,
			[]string{"flush_flushes", "flush_compactions"}},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			recoverAllRacesSubmitAndMetrics(t, tc.kind, tc.opts, tc.txn, tc.moved)
		})
	}
}

func recoverAllRacesSubmitAndMetrics(t *testing.T, kind testbed.EngineKind, opts core.Options, txn func(k uint64) testbed.Txn, moved []string) {
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: 4,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    opts,
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(db, Config{QueueDepth: 16})
	defer rt.Close()

	var (
		stop      atomic.Bool
		committed atomic.Int64
		key       atomic.Uint64
		wg        sync.WaitGroup
		allMoved  = make(chan struct{}) // closed once every gauge in moved was seen above zero
	)
	key.Store(1)

	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k := key.Add(1)
				err := rt.Submit(context.Background(), k, txn(k))
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrRecovering), errors.Is(err, ErrOverloaded):
					// expected while a partition is being healed or backed up
				default:
					t.Errorf("Submit(%d): %v", k, err)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		seen, pending := map[string]bool{}, len(moved)
		if pending == 0 {
			close(allMoved)
		}
		for !stop.Load() {
			snap := rt.Metrics().Snapshot()
			if len(snap.Gauges)+len(snap.Counters) == 0 {
				t.Error("metrics snapshot came back empty")
				return
			}
			for _, g := range moved {
				if !seen[g] && snap.Gauges[g] > 0 {
					seen[g] = true
					if pending--; pending == 0 {
						close(allMoved)
					}
				}
			}
		}
	}()

	for round := 0; round < 6; round++ {
		if err := rt.RecoverAll(2); err != nil {
			t.Fatalf("RecoverAll round %d: %v", round, err)
		}
	}
	select {
	case <-allMoved:
	case <-time.After(60 * time.Second):
		t.Errorf("the scraper did not see all of %v move within a minute", moved)
	}
	stop.Store(true)
	wg.Wait()

	if committed.Load() == 0 {
		t.Fatal("no transaction committed around the recovery storms")
	}
	st := rt.Stats()
	if st.Heals < int64(6*4) {
		t.Errorf("Stats.Heals = %d, want >= 24 (6 rounds x 4 partitions)", st.Heals)
	}
	if st.HealFails != 0 {
		t.Errorf("Stats.HealFails = %d with no faults armed", st.HealFails)
	}
}

// TestSnapshotReadsRaceWritesAndRecovery is the race-detector regression for
// the MVCC read path: reader goroutines pin snapshot views (point reads and
// full scans) while writers commit and RecoverAll power-cycles every
// partition mid-traffic. Beyond being race-clean, two invariants hold:
// an acked insert must be visible to every later snapshot (acks imply
// durability, and heals only roll back to the durable frontier), and a scan
// must never surface a row an executor hasn't acked (value always equals the
// committed key).
func TestSnapshotReadsRaceWritesAndRecovery(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 4, 32<<20)
	rt := New(db, Config{QueueDepth: 16})
	defer rt.Close()

	var (
		stop  atomic.Bool
		key   atomic.Uint64
		acked sync.Map // key -> struct{}{}, recorded only after the ack
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	key.Store(1)

	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k := key.Add(1)
				err := rt.Submit(context.Background(), k, insertTxn(k, int64(k)))
				switch {
				case err == nil:
					acked.Store(k, struct{}{})
				case errors.Is(err, ErrRecovering), errors.Is(err, ErrOverloaded):
				default:
					t.Errorf("Submit(%d): %v", k, err)
					return
				}
			}
		}()
	}

	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Every key acked before this iteration must be visible to a
				// view pinned now (ack ⇒ published ⇒ ts ≤ any later view).
				var probe uint64
				acked.Range(func(k, _ any) bool { probe = k.(uint64); return false })
				if probe != 0 {
					row, found, err := rt.GetRow(context.Background(), "t", probe)
					switch {
					case err == nil:
						if !found {
							t.Errorf("acked key %d invisible to a later snapshot", probe)
							return
						}
						if row[1].I != int64(probe) {
							t.Errorf("key %d: snapshot read %d", probe, row[1].I)
							return
						}
						reads.Add(1)
					case errors.Is(err, ErrRecovering), errors.Is(err, ErrOverloaded):
					default:
						t.Errorf("GetRow(%d): %v", probe, err)
						return
					}
				}
				for p := 0; p < db.Partitions(); p++ {
					err := rt.ReadPart(context.Background(), p, func(v core.ReadView) error {
						return v.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
							if row[1].I != int64(pk) {
								t.Errorf("partition %d key %d: scan saw torn value %d", p, pk, row[1].I)
								return false
							}
							return true
						})
					})
					switch {
					case err == nil:
						reads.Add(1)
					case errors.Is(err, ErrRecovering), errors.Is(err, ErrOverloaded):
					default:
						t.Errorf("ReadPart(%d): %v", p, err)
						return
					}
				}
			}
		}()
	}

	for round := 0; round < 4; round++ {
		if err := rt.RecoverAll(2); err != nil {
			t.Fatalf("RecoverAll round %d: %v", round, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if reads.Load() == 0 {
		t.Fatal("no snapshot read succeeded around the recovery storms")
	}
	st := rt.Stats()
	if st.Reads == 0 {
		t.Errorf("Stats.Reads = 0 after %d successful reads", reads.Load())
	}
}
