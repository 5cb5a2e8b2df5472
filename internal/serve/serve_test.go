package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
)

func schemas() []*core.Schema {
	return []*core.Schema{{
		Name:    "t",
		Columns: []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TInt}},
	}}
}

func newDB(t testing.TB, kind testbed.EngineKind, parts int, size int64) *testbed.DB {
	t.Helper()
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: parts,
		Env:        core.EnvConfig{DeviceSize: size},
		Options:    core.Options{GroupCommitSize: 1},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func insertTxn(key uint64, val int64) testbed.Txn {
	return func(e core.Engine) error {
		return e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(val)})
	}
}

// mustGet reads key's second column directly from partition p's engine.
func mustGet(t *testing.T, db *testbed.DB, p int, key uint64) int64 {
	t.Helper()
	row, ok, err := db.Engine(p).Get("t", key)
	if err != nil || !ok {
		t.Fatalf("key %d on partition %d: ok=%v err=%v", key, p, ok, err)
	}
	return row[1].I
}

// waitQueued blocks until partition part's submission queue holds n
// requests (what the serve_partNN_queue_depth gauge reports).
func waitQueued(t *testing.T, rt *Runtime, part, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for len(rt.execs[part].ch) != n {
		if time.Now().After(deadline) {
			t.Fatalf("partition %d queue holds %d requests, want %d", part, len(rt.execs[part].ch), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestSubmitHonorsContextCancellation(t *testing.T) {
	db := newDB(t, testbed.InP, 1, 32<<20)
	rt := New(db, Config{QueueDepth: 4})
	// Deferred calls run last-in first-out: the gate opens before Close
	// drains the executor, so a failed assertion below reports instead of
	// hanging in Close behind the parked blocker.
	defer rt.Close()
	gate, inBody := make(chan struct{}), make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	defer release()

	blocked := make(chan error, 1)
	go func() {
		blocked <- rt.SubmitPart(context.Background(), 0, func(core.Engine) error {
			close(inBody)
			<-gate
			return testbed.ErrAbort
		})
	}()
	<-inBody // the blocker holds the executor

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	res := make(chan error, 1)
	go func() {
		res <- rt.SubmitPart(ctx, 0, func(core.Engine) error {
			ran = true
			return testbed.ErrAbort
		})
	}()
	waitQueued(t, rt, 0, 1) // queued behind the blocker
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after cancel = %v, want context.Canceled", err)
	}
	release()
	if err := <-blocked; !errors.Is(err, testbed.ErrAbort) {
		t.Fatalf("blocker = %v", err)
	}
	// The executor must skip the canceled request without running it.
	if err := rt.SubmitPart(context.Background(), 0, insertTxn(0, 1)); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("canceled transaction was executed")
	}
}

func TestSubmitOverloadedIsTypedAndRetryable(t *testing.T) {
	db := newDB(t, testbed.InP, 1, 32<<20)
	rt := New(db, Config{QueueDepth: 1})

	gate, inBody := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rt.SubmitPart(context.Background(), 0, func(core.Engine) error {
			close(inBody)
			<-gate
			return testbed.ErrAbort
		})
	}()
	<-inBody // the blocker occupies the executor

	// Fill the queue, then overflow it.
	go func() {
		defer wg.Done()
		rt.SubmitPart(context.Background(), 0, func(core.Engine) error { return testbed.ErrAbort })
	}()
	waitQueued(t, rt, 0, 1)
	overloaded := rt.SubmitPart(context.Background(), 0, insertTxn(1, 1))
	if !errors.Is(overloaded, ErrOverloaded) {
		t.Fatalf("saturated Submit = %v, want ErrOverloaded", overloaded)
	}
	if !core.IsRetryable(overloaded) {
		t.Fatal("ErrOverloaded must be tagged retryable")
	}
	if rt.Stats().Overloaded == 0 {
		t.Fatal("overload not counted")
	}
	close(gate)
	wg.Wait()
	rt.Close()
}

func TestPanicContainedPartitionSurvives(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 2, 32<<20)
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()

	if err := rt.SubmitPart(ctx, 0, insertTxn(0, 7)); err != nil {
		t.Fatal(err)
	}
	err := rt.SubmitPart(ctx, 0, func(e core.Engine) error {
		if err := e.Insert("t", 2, []core.Value{core.IntVal(2), core.IntVal(9)}); err != nil {
			return err
		}
		panic("engine invariant violated (synthetic)")
	})
	var te *core.TxnError
	if !errors.As(err, &te) || !te.Panicked {
		t.Fatalf("panicking txn = %v, want core.TxnError{Panicked}", err)
	}
	// The partition stays in service and the panicking txn was rolled back.
	if err := rt.SubmitPart(ctx, 0, insertTxn(4, 8)); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, db, 0, 0); got != 7 {
		t.Fatalf("key 0 = %d, want 7", got)
	}
	if _, ok, _ := db.Engine(0).Get("t", 2); ok {
		t.Fatal("rolled-back insert visible")
	}
	if s := rt.Stats(); s.Panics != 1 || s.Heals != 0 {
		t.Fatalf("stats = %+v, want 1 contained panic, 0 heals", s)
	}
}

func TestPanicStormTriggersHeal(t *testing.T) {
	db := newDB(t, testbed.Log, 1, 32<<20)
	var events []Event
	var mu sync.Mutex
	rt := New(db, Config{
		PanicThreshold: 2,
		PanicWindow:    time.Minute,
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	defer rt.Close()
	ctx := context.Background()

	if err := rt.SubmitPart(ctx, 0, insertTxn(10, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rt.SubmitPart(ctx, 0, func(core.Engine) error { panic("storm") })
	}
	if s := rt.Stats(); s.Heals != 1 {
		t.Fatalf("stats = %+v, want exactly one heal", s)
	}
	// Committed data survived the engine's re-recovery.
	if got := mustGet(t, db, 0, 10); got != 3 {
		t.Fatalf("key 10 = %d, want 3", got)
	}
	// And the partition serves again.
	if err := rt.SubmitPart(ctx, 0, insertTxn(11, 4)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := map[EventKind]bool{EventPanic: false, EventHeal: false, EventHealed: false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("missing %s event in %v", k, kinds)
		}
	}
}

func TestTransientSyncFailureRetriedInPlace(t *testing.T) {
	for _, kind := range []testbed.EngineKind{testbed.InP, testbed.Log} {
		t.Run(string(kind), func(t *testing.T) {
			db := newDB(t, kind, 1, 32<<20)
			rt := New(db, Config{MaxRetries: 3})
			defer rt.Close()
			ctx := context.Background()

			if err := rt.SubmitPart(ctx, 0, insertTxn(1, 1)); err != nil {
				t.Fatal(err)
			}
			// The next two fsyncs fail transiently; the supervisor must
			// retry past them without surfacing an error.
			db.Env(0).FS.FailSyncs(0, 2)
			if err := rt.SubmitPart(ctx, 0, insertTxn(2, 2)); err != nil {
				t.Fatalf("submit over transient sync failure = %v", err)
			}
			if s := rt.Stats(); s.Retries < 1 {
				t.Fatalf("stats = %+v, want at least one retry", s)
			}
			if got := mustGet(t, db, 0, 2); got != 2 {
				t.Fatalf("key 2 = %d, want 2", got)
			}
		})
	}
}

func TestRetryableSurfacesAfterMaxRetries(t *testing.T) {
	db := newDB(t, testbed.InP, 1, 32<<20)
	rt := New(db, Config{MaxRetries: 2})
	defer rt.Close()
	ctx := context.Background()

	// More failures than MaxRetries allows: the typed retryable error
	// reaches the client instead of being hidden.
	db.Env(0).FS.FailSyncs(0, 10)
	err := rt.SubmitPart(ctx, 0, insertTxn(1, 1))
	if err == nil || !core.IsRetryable(err) {
		t.Fatalf("exhausted retries = %v, want retryable error", err)
	}
	db.Env(0).FS.FailSyncs(0, 0)
	// The aborted-and-rewound transaction left the partition consistent.
	if err := rt.SubmitPart(ctx, 0, insertTxn(1, 5)); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, db, 0, 1); got != 5 {
		t.Fatalf("key 1 = %d, want 5", got)
	}
}

func TestInjectedCrashHealsMidTraffic(t *testing.T) {
	db := newDB(t, testbed.NVMLog, 1, 32<<20)
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()

	for i := uint64(0); i < 20; i++ {
		if err := rt.SubmitPart(ctx, 0, insertTxn(i, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Arm a device fault from the executor goroutine (keeps the fault
	// state properly ordered with engine accesses), then keep submitting:
	// one submission dies with the injected crash and triggers a heal.
	rt.SubmitPart(ctx, 0, func(core.Engine) error {
		db.Env(0).Dev.InjectFaults(nvm.FaultPlan{Seed: 42, Mode: nvm.FaultReorder, CrashAfterFences: 3, KeepProb: 0.5})
		return testbed.ErrAbort
	})
	sawRecovering := false
	for i := uint64(20); i < 60; i++ {
		err := rt.SubmitPart(ctx, 0, insertTxn(i, int64(i)))
		if errors.Is(err, ErrRecovering) || errors.Is(err, nvm.ErrInjectedCrash) {
			sawRecovering = true
			continue
		}
		if err != nil && !core.IsRetryable(err) && !errors.Is(err, core.ErrKeyExists) {
			t.Fatalf("unexpected error at %d: %v", i, err)
		}
	}
	if !sawRecovering {
		t.Fatal("injected crash never surfaced as a recovering/crash error")
	}
	if s := rt.Stats(); s.Heals < 1 {
		t.Fatalf("stats = %+v, want at least one heal", s)
	}
	// Everything acked before the crash must still be there.
	for i := uint64(0); i < 20; i++ {
		if got := mustGet(t, db, 0, i); got != int64(i) {
			t.Fatalf("key %d = %d after heal, want %d", i, got, i)
		}
	}
}

func TestBreakerDegradesAfterRepeatedRecoveryFailure(t *testing.T) {
	db := newDB(t, testbed.InP, 2, 16<<20)
	rt := New(db, Config{BreakerThreshold: 2, RetryBase: 50 * time.Microsecond, RetryCap: 200 * time.Microsecond})
	defer rt.Close()
	ctx := context.Background()

	if err := rt.SubmitPart(ctx, 1, insertTxn(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Durably shred partition 0's device, then crash it: recovery cannot
	// succeed, so the circuit breaker must open instead of looping or
	// killing the process.
	err := rt.SubmitPart(ctx, 0, func(core.Engine) error {
		dev := db.Env(0).Dev
		garbage := make([]byte, 1<<20)
		for i := range garbage {
			garbage[i] = 0xA5
		}
		for off := int64(0); off < dev.Size(); off += int64(len(garbage)) {
			n := int64(len(garbage))
			if off+n > dev.Size() {
				n = dev.Size() - off
			}
			dev.WriteStream(off, garbage[:n])
		}
		dev.Fence()
		panic(nvm.ErrInjectedCrash)
	})
	if err == nil {
		t.Fatal("shredding txn reported success")
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Degraded == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", rt.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.SubmitPart(ctx, 0, insertTxn(0, 1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded partition Submit = %v, want ErrDegraded", err)
	}
	// The healthy partition is unaffected.
	if err := rt.SubmitPart(ctx, 1, insertTxn(3, 3)); err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.HealFails < 2 {
		t.Fatalf("stats = %+v, want >= 2 recorded heal failures", s)
	}
}

func TestCloseDrainsQueuedRequests(t *testing.T) {
	db := newDB(t, testbed.CoW, 2, 32<<20)
	rt := New(db, Config{QueueDepth: 32})
	ctx := context.Background()

	const n = 24
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- rt.Submit(ctx, uint64(i), insertTxn(uint64(i), int64(i)))
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		} else if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("drain error: %v", err)
		}
	}
	if int64(ok) != rt.Stats().Committed {
		t.Fatalf("acked %d but committed %d", ok, rt.Stats().Committed)
	}
	if err := rt.Submit(ctx, 0, insertTxn(99, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestFailureWaitsForHeldAcks: under group commit an insert's ack is held
// until the group's durability barrier. The retry of that insert, run while
// the ack is held, finds the key and answers KeyExists — which its client
// reads as the first attempt's ack — so the answer must wait for the same
// barrier: by the time it is out, the insert is durable, published to
// snapshot reads, and acked. (It used to go out at once, and the held ack
// then waited for the next request to arrive.)
func TestFailureWaitsForHeldAcks(t *testing.T) {
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

	// The first attempt parks inside its body until the retry is queued
	// behind it, so its commit finds the queue busy and holds the ack.
	inBody, gate := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		first <- rt.SubmitPart(ctx, 0, func(e core.Engine) error {
			close(inBody)
			<-gate
			return insertTxn(7, 70)(e)
		})
	}()
	<-inBody
	retry := make(chan error, 1)
	go func() { retry <- rt.SubmitPart(ctx, 0, insertTxn(7, 70)) }()
	waitQueued(t, rt, 0, 1) // the retry is in the queue
	close(gate)

	if err := <-retry; !errors.Is(err, core.ErrKeyExists) {
		t.Fatalf("retry = %v, want ErrKeyExists", err)
	}
	var found bool
	if err := rt.ReadPart(ctx, 0, func(v core.ReadView) error {
		_, found, err = v.Get("t", 7)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("KeyExists was answered from an insert no snapshot read can see yet: its durability barrier has not run")
	}
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("first attempt = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the held ack was never released")
	}
}

// TestReadOnlySuccessReleasesParkedAcks: a commit that finds the queue busy
// parks its ack for the group's barrier. If what then drains the queue is a
// read-only transaction, nothing further arrives to run the barrier, so the
// read-only success has to: the parked ack must not wait for the next
// request.
func TestReadOnlySuccessReleasesParkedAcks(t *testing.T) {
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
	rt := New(db, Config{})
	defer rt.Close()
	ctx := context.Background()
	if err := rt.SubmitPart(ctx, 0, insertTxn(1, 10)); err != nil {
		t.Fatal(err)
	}

	// The write parks inside its body until the read-only transaction is
	// queued behind it, so its commit finds the queue busy and parks the ack.
	inBody, gate := make(chan struct{}), make(chan struct{})
	write := make(chan error, 1)
	go func() {
		write <- rt.SubmitPart(ctx, 0, func(e core.Engine) error {
			close(inBody)
			<-gate
			return e.Update("t", 1, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(11)}})
		})
	}()
	<-inBody
	read := make(chan error, 1)
	go func() {
		read <- rt.SubmitPart(ctx, 0, func(e core.Engine) error {
			_, _, err := e.Get("t", 1)
			return err
		})
	}()
	waitQueued(t, rt, 0, 1)
	close(gate)

	for _, r := range []struct {
		name string
		ch   chan error
	}{{"read-only txn", read}, {"write", write}} {
		select {
		case err := <-r.ch:
			if err != nil {
				t.Fatalf("%s = %v", r.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("the %s was not acked when a read-only success left the queue idle", r.name)
		}
	}
	if got := mustGet(t, db, 0, 1); got != 11 {
		t.Fatalf("key 1 = %d, want 11", got)
	}
}

// TestOneExecutorPerPartition: a partition runs exactly one executor and one
// reader, so New refuses a Config that asks for more, naming the field, and
// starts and closes cleanly with the zero Config and with both set to 1.
func TestOneExecutorPerPartition(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{{"Writers", Config{Writers: 2}}, {"Readers", Config{Readers: 2}}} {
		t.Run(tc.field, func(t *testing.T) {
			db := newDB(t, testbed.InP, 1, 32<<20)
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "Config."+tc.field) {
					t.Fatalf("New(%+v) recovered %v, want a panic naming Config.%s", tc.cfg, r, tc.field)
				}
			}()
			New(db, tc.cfg).Close()
		})
	}
	for _, cfg := range []Config{{}, {Readers: 1, Writers: 1}} {
		db := newDB(t, testbed.InP, 2, 32<<20)
		rt := New(db, cfg)
		if err := rt.Submit(context.Background(), 1, insertTxn(1, 1)); err != nil {
			t.Fatalf("Config %+v: Submit = %v", cfg, err)
		}
		if _, found, err := rt.GetRow(context.Background(), "t", 1); err != nil || !found {
			t.Fatalf("Config %+v: GetRow found %v, err %v", cfg, found, err)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("Config %+v: Close = %v", cfg, err)
		}
	}
}
