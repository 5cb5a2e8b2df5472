package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
)

// The contract of snapshot reads (ReadPart) over the undo overlay: a read
// holds the engine's exclusion, so it waits for a transaction in flight but
// not for a group-commit barrier, and it rolls back what the barrier has not
// published.

func setTxn(key uint64, val int64) testbed.Txn {
	return func(e core.Engine) error {
		return e.Update("t", key, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(val)}})
	}
}

// TestReadBesideParkedBarrierDoesNotWait: a write committed into a
// group-commit buffer and not yet flushed holds nothing a read needs. A GET
// beside it returns at once, with the value before the write. It would hang
// if reads waited for the barrier, and read 31 if the engine staged no
// pre-image for the unpublished write. The test drives the engine itself, so
// the commit sits in the 8-deep buffer until the explicit Flush.
func TestReadBesideParkedBarrierDoesNotWait(t *testing.T) {
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.InP,
		Partitions: 1,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: 8},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()
	if err := rt.SubmitPart(ctx, 0, insertTxn(3, 30)); err != nil {
		t.Fatal(err)
	}

	e := db.Engine(0)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := setTxn(3, 31)(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	row, found, err := rt.GetRow(rctx, "t", 3)
	cancel()
	if err != nil || !found || row[1].I != 30 {
		t.Fatalf("GET beside an unflushed commit = %v, found %v, err %v; want the published 30 at once", row, found, err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if row, _, err := rt.GetRow(ctx, "t", 3); err != nil || row[1].I != 31 {
		t.Fatalf("GET after the barrier = %v, err %v; want 31", row, err)
	}
}

// TestReadBesideOpenTransactionWaits: a transaction in flight holds the
// engine's exclusion, so a GET beside it waits, then pins after the commit
// and returns the committed value. Without the exclusion the GET would
// return at once, reading the update before it committed.
func TestReadBesideOpenTransactionWaits(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 1, 32<<20)
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()
	if err := rt.SubmitPart(ctx, 0, insertTxn(3, 30)); err != nil {
		t.Fatal(err)
	}

	inBody, gate := make(chan struct{}), make(chan struct{})
	write := make(chan error, 1)
	go func() {
		write <- rt.SubmitPart(ctx, 0, func(e core.Engine) error {
			if err := setTxn(3, 31)(e); err != nil {
				return err
			}
			close(inBody)
			<-gate
			return nil
		})
	}()
	<-inBody // the update is applied, not committed

	type result struct {
		row   []core.Value
		found bool
		err   error
	}
	got := make(chan result, 1)
	go func() {
		row, found, err := rt.GetRow(ctx, "t", 3)
		got <- result{row, found, err}
	}()
	select {
	case r := <-got:
		close(gate)
		t.Fatalf("GET returned %v (err %v) beside an open transaction", r.row, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	r := <-got
	if r.err != nil || !r.found || r.row[1].I != 31 {
		t.Fatalf("GET after the commit = %v, found %v, err %v; want the committed 31", r.row, r.found, r.err)
	}
	if err := <-write; err != nil {
		t.Fatal(err)
	}
}

// TestViewsSeeOnlyPublishedCommits: no view ever observes an uncommitted or an
// unpublished write. The test drives the engine itself while two clients
// scan through ReadPart: each round publishes a value (commit + barrier), holds a
// transaction open on a second one and aborts it, commits a third into the
// group-commit buffer and lets the clients scan past it, then power-cycles
// the partition, which loses the third. A reader may see only the first.
// Without the exclusion a scan lands inside the open transaction; without
// the unpublished commit's pre-images a scan reads the third value.
func TestViewsSeeOnlyPublishedCommits(t *testing.T) {
	for _, kind := range []testbed.EngineKind{testbed.InP, testbed.NVMCoW} {
		t.Run(string(kind), func(t *testing.T) { publishedOnly(t, kind) })
	}
}

func publishedOnly(t *testing.T, kind testbed.EngineKind) {
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: 1,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: 64},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(db, Config{})
	defer rt.Close()
	const keys = 8

	var (
		stop  atomic.Bool
		scans atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		seen  = map[int64]bool{} // every value a view showed
		fails = make(chan error, 2)
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				err := rt.ReadPart(context.Background(), 0, func(v core.ReadView) error {
					return v.ScanRange("t", 0, keys, func(_ uint64, row []core.Value) bool {
						mu.Lock()
						seen[row[1].I] = true
						mu.Unlock()
						return true
					})
				})
				if err != nil && !errors.Is(err, ErrRecovering) {
					fails <- err
					return
				}
				scans.Add(1)
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// write sets every key to val in one transaction; it commits unless
	// hold is set, in which case it stays open for a while and aborts.
	write := func(val int64, hold bool) {
		t.Helper()
		e := db.Engine(0)
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < keys; k++ {
			_, exists, err := e.Get("t", k)
			if err == nil && exists {
				err = setTxn(k, val)(e)
			} else if err == nil {
				err = insertTxn(k, val)(e)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if hold {
			time.Sleep(2 * time.Millisecond) // reads arrive and wait
			if err := e.Abort(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 20
	if testing.Short() {
		rounds = 8
	}
	for round := int64(0); round < int64(rounds); round++ {
		published, open, parked := 10*round+1, 10*round+2, 10*round+3
		write(published, false)
		if err := db.Engine(0).Flush(); err != nil {
			t.Fatal(err)
		}
		write(open, true)
		write(parked, false)
		// Both clients finish a scan that began after the parked commit.
		for want := scans.Load() + 3; scans.Load() < want; time.Sleep(50 * time.Microsecond) {
			select {
			case err := <-fails:
				t.Fatal(err)
			default:
			}
		}
		db.CrashPartition(0)
		if _, err := db.RecoverPartition(0); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		sawOpen, sawParked := seen[open], seen[parked]
		mu.Unlock()
		if sawOpen || sawParked {
			t.Fatalf("round %d: a view showed %d (a transaction that aborted: %v) or %d (a commit the power cycle lost: %v)",
				round, open, sawOpen, parked, sawParked)
		}
		if row, _, err := rt.GetRow(context.Background(), "t", keys-1); err != nil || row[1].I != published {
			t.Fatalf("round %d: after the power cycle key %d = %v (err %v), want the published %d", round, keys-1, row, err, published)
		}
	}
}

// TestPinnedViewCostsCaptures: nvm-inp reads a pre-image only for a pinned
// view. A write with no view pinned makes no capture and leaves no
// pre-image; a view held across a write makes the writer capture the old
// value, which is what that view goes on reading.
func TestPinnedViewCostsCaptures(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 1, 32<<20)
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()
	gauge := func(name string) float64 {
		return rt.Metrics().Snapshot().Gauges["serve_part00_"+name]
	}
	for _, txn := range []testbed.Txn{insertTxn(5, 50), setTxn(5, 51)} {
		if err := rt.SubmitPart(ctx, 0, txn); err != nil {
			t.Fatal(err)
		}
	}
	if c, r := gauge("preimage_captures"), gauge("undo_records"); c != 0 || r != 0 {
		t.Fatalf("no view pinned: %v captures, %v pre-images held; want 0 and 0", c, r)
	}

	v := db.Engine(0).(core.SnapshotReader).SnapshotView()
	defer v.Close()
	if err := rt.SubmitPart(ctx, 0, setTxn(5, 52)); err != nil {
		t.Fatal(err)
	}
	if c, r := gauge("preimage_captures"), gauge("undo_records"); c < 1 || r < 1 {
		t.Fatalf("a write beside a pinned view: %v captures, %v pre-images held; want at least 1 of each", c, r)
	}
	row, ok, err := v.Get("t", 5)
	if err != nil || !ok || row[1].I != 51 {
		t.Fatalf("the pinned view reads %v (ok %v, err %v), want its snapshot's 51", row, ok, err)
	}
}

// TestPoolGetReadsTheDevice: a snapshot GET reads the row from the engine,
// so with the row out of the CPU cache it costs device loads — on the
// reader's clock (ReadStall), not the executor's (Stall).
func TestPoolGetReadsTheDevice(t *testing.T) {
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.NVMInP,
		Partitions: 1,
		Env:        core.EnvConfig{DeviceSize: 32 << 20, Profile: nvm.ProfileLowNVM},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()
	if err := rt.SubmitPart(ctx, 0, insertTxn(9, 90)); err != nil {
		t.Fatal(err)
	}
	db.Env(0).Dev.EvictAll()
	before := db.Stats()
	if row, ok, err := rt.GetRow(ctx, "t", 9); err != nil || !ok || row[1].I != 90 {
		t.Fatalf("GET = %v, ok %v, err %v", row, ok, err)
	}
	d := db.Stats().Sub(before)
	if d.Loads == 0 || d.ReadStall == 0 {
		t.Fatalf("a snapshot GET of a cold row made %d device loads, %v reader stall: it did not read the engine", d.Loads, d.ReadStall)
	}
	if d.Stall != 0 {
		t.Fatalf("a snapshot GET charged %v to the executor's stall clock", d.Stall)
	}
}

// TestReadPartRacesClose: snapshot reads run on their callers' goroutines
// beside writes while Close races them. Every read returns its result or
// ErrClosed, and none is still running once Close has returned: Close waits
// for the reads in flight before its final Flush.
func TestReadPartRacesClose(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 1, 32<<20)
	rt := New(db, Config{})
	ctx := context.Background()
	for k := uint64(1); k <= 64; k++ {
		if err := rt.SubmitPart(ctx, 0, insertTxn(k, int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	var closed atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := rt.ReadPart(ctx, 0, func(v core.ReadView) error {
					err := v.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
						return row[1].I == int64(pk)
					})
					if closed.Load() {
						t.Error("a read was still running after Close returned")
					}
					return err
				})
				switch {
				case err == nil:
					reads.Add(1)
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("ReadPart: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(1000); ; k++ {
			if err := rt.SubmitPart(ctx, 0, setTxn(k%64+1, int64(k%64+1))); errors.Is(err, ErrClosed) {
				return
			} else if err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("SubmitPart: %v", err)
				return
			}
		}
	}()
	for reads.Load() < 200 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	wg.Wait()
}

// TestReadPartAllocs pins what a snapshot point read costs the serving
// layer in allocations, the view's Get included.
func TestReadPartAllocs(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 1, 32<<20)
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()
	if err := rt.SubmitPart(ctx, 0, insertTxn(7, 70)); err != nil {
		t.Fatal(err)
	}
	op := func(v core.ReadView) error {
		_, _, err := v.Get("t", 7)
		return err
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := rt.ReadPart(ctx, 0, op); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadPart: %.1f allocations a read", allocs)
	if allocs > 4 {
		t.Errorf("ReadPart made %.1f allocations a read, want at most 4", allocs)
	}
}
