package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"nstore/internal/core"
	"nstore/internal/testbed"
)

// TestRecoverAllRacesSubmitAndMetrics is the race-detector regression for the
// parallel recovery pipeline: client goroutines keep submitting transactions
// while RecoverAll rips partitions out from under them and a scraper snapshots
// the metrics registry (which reads per-partition recovery stats) the whole
// time. No faults are armed — every recovery must succeed — so the only
// acceptable submit failures are the typed fail-fast errors. Run under -race;
// the CI recovery lane does.
func TestRecoverAllRacesSubmitAndMetrics(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 4, 32<<20)
	rt := New(db, Config{QueueDepth: 16})
	defer rt.Close()

	var (
		stop      atomic.Bool
		committed atomic.Int64
		key       atomic.Uint64
		wg        sync.WaitGroup
	)
	key.Store(1)

	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k := key.Add(1)
				err := rt.Submit(context.Background(), k, insertTxn(k, int64(k)))
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
		for !stop.Load() {
			snap := rt.Metrics().Snapshot()
			if len(snap.Gauges)+len(snap.Counters) == 0 {
				t.Error("metrics snapshot came back empty")
				return
			}
		}
	}()

	for round := 0; round < 6; round++ {
		if err := rt.RecoverAll(2); err != nil {
			t.Fatalf("RecoverAll round %d: %v", round, err)
		}
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
