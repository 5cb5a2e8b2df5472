// Package serve is the serving runtime over the testbed database: one
// executor goroutine per partition fed by a bounded submission queue, one
// reader goroutine per partition serving snapshot reads, and a supervisor
// that survives engine faults instead of crashing the process. Requests are
// admitted with backpressure (ErrOverloaded), engine panics are converted to
// typed core.TxnError at the transaction boundary, retryable durability
// failures are retried with capped exponential backoff, and a partition whose
// engine is beyond in-place repair is quarantined, crash-recovered through
// the engine's own recovery protocol, and put back in service — all while the
// other partitions keep committing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/obs"
	"nstore/internal/testbed"
)

// Typed serving-layer errors. ErrOverloaded and ErrRecovering are tagged
// retryable (errors.Is(err, core.ErrRetryable)): the client did nothing
// wrong and may resubmit. ErrDegraded and ErrClosed are terminal.
var (
	// ErrOverloaded is returned by Submit when the partition's bounded
	// queue is full — admission-control backpressure, not a failure.
	ErrOverloaded = core.Retryable(errors.New("serve: partition queue full"))
	// ErrRecovering fails requests that were queued behind a partition
	// heal; the partition will be back once recovery completes.
	ErrRecovering = core.Retryable(errors.New("serve: partition recovering"))
	// ErrDegraded is returned once a partition's circuit breaker has
	// opened after repeated recovery failures: the partition fails fast
	// until an operator intervenes.
	ErrDegraded = errors.New("serve: partition degraded")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("serve: runtime closed")
)

// Config tunes the serving runtime. Zero values select the defaults.
type Config struct {
	// QueueDepth bounds each partition's submission queue (default 64).
	QueueDepth int
	// MaxRetries caps in-place retries of a retryable failure before the
	// error is surfaced to the client (default 3).
	MaxRetries int
	// RetryBase and RetryCap shape the exponential backoff between
	// retries (defaults 100µs and 5ms); the actual sleep is jittered to
	// d/2 + rand(d/2) to decorrelate colliding clients.
	RetryBase time.Duration
	RetryCap  time.Duration
	// PanicThreshold panics within PanicWindow trip the partition into a
	// full heal instead of per-transaction containment (defaults 3 in 1s).
	PanicThreshold int
	PanicWindow    time.Duration
	// BreakerThreshold consecutive failed heals open the circuit breaker
	// and degrade the partition to fail-fast (default 3).
	BreakerThreshold int
	// DurableAck forces Engine.Flush after every commit before the ack is
	// released. With GroupCommitSize > 1 a commit may sit in a volatile
	// group buffer; enable this when the client treats an ack as durable.
	DurableAck bool
	// Writers is vestigial: each partition runs exactly one executor, which
	// holds the engine for a whole transaction. Only 0 and 1 are accepted; New
	// panics on any other value. It stays only because benchmark/netlegs.go
	// sets it, and is deleted with the benchmark change of ROADMAP item 10.
	Writers int
	// Readers is vestigial: each partition runs exactly one reader goroutine,
	// which serves Get/Scan against MVCC read views beside the executor queue.
	// A view reads the engine under its exclusion (core.Base), so it waits for
	// the one transaction in flight, and a second reader would only queue on
	// that exclusion too. Only 0 and 1 are accepted; New panics on any other
	// value. Deleted with Writers.
	Readers int
	// Seed seeds the per-partition jitter RNGs so a run is replayable.
	Seed int64
	// OnEvent, when set, observes supervisor decisions (tests, logs).
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Microsecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 5 * time.Millisecond
	}
	if c.PanicThreshold <= 0 {
		c.PanicThreshold = 3
	}
	if c.PanicWindow <= 0 {
		c.PanicWindow = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	return c
}

// mustOnePerPartition panics unless n, the value of the named Config field,
// asks for at most one goroutine per partition.
func mustOnePerPartition(field string, n int) {
	if n < 0 || n > 1 {
		panic(fmt.Sprintf("serve: Config.%s = %d: a partition runs exactly one; use 0 or 1", field, n))
	}
}

// EventKind labels a supervisor decision for observability.
type EventKind string

// Supervisor event kinds.
const (
	EventPanic      EventKind = "panic"     // engine panic converted to TxnError
	EventRetry      EventKind = "retry"     // retryable failure, backing off
	EventHeal       EventKind = "heal"      // partition quarantined for recovery
	EventHealed     EventKind = "healed"    // recovery succeeded, back in service
	EventHealFailed EventKind = "heal-fail" // one recovery attempt failed
	EventDegraded   EventKind = "degraded"  // circuit breaker opened
)

// Event is one supervisor decision on one partition.
type Event struct {
	Part int
	Kind EventKind
	Err  error
}

// Stats counts supervisor outcomes across the runtime's lifetime.
type Stats struct {
	Committed  int64 // transactions acked to clients
	Aborted    int64 // clean client-requested aborts (testbed.ErrAbort)
	Failed     int64 // transactions surfaced to clients as errors
	Retries    int64 // in-place retries of retryable failures
	Panics     int64 // engine panics contained at the txn boundary
	Heals      int64 // successful partition recoveries
	HealFails  int64 // failed recovery attempts
	Overloaded int64 // submissions rejected by admission control
	Recovering int64 // queued requests failed by a heal
	Degraded   int64 // partitions currently degraded
	Reads      int64 // snapshot reads served
	ReadFails  int64 // snapshot reads surfaced as errors
}

// Runtime serves transactions over a testbed database.
type Runtime struct {
	db    *testbed.DB
	cfg   Config
	execs []*executor
	wg    sync.WaitGroup

	// reg is the runtime's metrics registry (see metrics.go); ackHist holds
	// the per-partition submit→ack latency histograms for fast access on
	// the submit path.
	reg     *obs.Registry
	ackHist []*obs.Histogram

	// readQs feed the per-partition snapshot readers (see read.go); readHist
	// holds the per-partition read latency histograms.
	readQs   []chan *readReq
	readHist []*obs.Histogram

	// mu serializes submissions against Close: Submit holds the read
	// side while enqueueing, so Close cannot close a queue mid-send.
	mu     sync.RWMutex
	closed atomic.Bool

	// msMu guards the metrics servers started via StartMetrics, which the
	// runtime owns and tears down in Close.
	msMu    sync.Mutex
	metrics []*MetricsServer

	// healthMu guards the pluggable /healthz sources (see AddHealth).
	healthMu sync.Mutex
	health   []HealthSource

	stats struct {
		committed, aborted, failed atomic.Int64
		retries, panics            atomic.Int64
		heals, healFails           atomic.Int64
		overloaded, recovering     atomic.Int64
		degraded                   atomic.Int64
		reads, readFails           atomic.Int64
	}
}

type request struct {
	ctx  context.Context
	txn  testbed.Txn
	done chan error // buffered(1): the executor never blocks on the reply
}

type executor struct {
	rt   *Runtime
	part int
	ch   chan *request
	rng  *rand.Rand

	// engMu serializes engine access between the executor loop and an
	// out-of-band RecoverAll: the engine is single-partition and must never
	// see a transaction and its own recovery concurrently.
	engMu sync.Mutex
	// recovering is set for the duration of an out-of-band recovery so the
	// submit path and the executor loop fail fast with ErrRecovering
	// instead of queueing behind (or blocking on) the heal.
	recovering atomic.Bool

	// groupSize > 1 defers acks: a committed transaction may still sit in
	// the engine's volatile group-commit buffer, so its ack is withheld
	// until the group is durably flushed (pending holds the waiting
	// requests). This closes the ack-durability hole without forcing a
	// flush per transaction the way DurableAck does.
	groupSize int
	// pending holds the commits awaiting the group durability barrier.
	// Guarded by engMu.
	pending []*request

	panicTimes []time.Time // sliding window for panic-storm detection
	healFails  int         // consecutive failed heals (circuit breaker)
	degraded   atomic.Bool // atomic: the metrics scraper reads it live
}

// New builds a serving runtime over db and starts one executor goroutine and
// one reader goroutine per partition. The caller must Close it to drain and
// stop. It panics if cfg asks for more than one writer or reader.
func New(db *testbed.DB, cfg Config) *Runtime {
	mustOnePerPartition("Writers", cfg.Writers)
	mustOnePerPartition("Readers", cfg.Readers)
	cfg = cfg.withDefaults()
	rt := &Runtime{db: db, cfg: cfg}
	// With group commit and no per-txn flush, an ack must wait for the
	// group's durability barrier (see executor.pending).
	groupSize := 1
	if g := db.Options().GroupCommitSize; g > 1 && !cfg.DurableAck {
		groupSize = g
	}
	for i := 0; i < db.Partitions(); i++ {
		ex := &executor{
			rt:        rt,
			part:      i,
			ch:        make(chan *request, cfg.QueueDepth),
			rng:       rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			groupSize: groupSize,
		}
		rt.execs = append(rt.execs, ex)
		rt.readQs = append(rt.readQs, make(chan *readReq, cfg.QueueDepth))
	}
	rt.buildMetrics()
	for i, ex := range rt.execs {
		rt.wg.Add(2)
		go ex.run()
		go rt.readLoop(i)
	}
	return rt
}

// Submit routes the transaction to key's home partition and waits for the
// outcome. It returns ErrOverloaded without blocking when the partition's
// queue is full, and honors ctx cancellation both while queued and before
// execution starts (a transaction that already began is never abandoned
// mid-flight; its outcome is discarded).
func (rt *Runtime) Submit(ctx context.Context, key uint64, txn testbed.Txn) error {
	return rt.SubmitPart(ctx, rt.db.Route(key), txn)
}

// SubmitPart is Submit for an explicit partition.
func (rt *Runtime) SubmitPart(ctx context.Context, part int, txn testbed.Txn) error {
	if rt.closed.Load() {
		return ErrClosed
	}
	if part < 0 || part >= len(rt.execs) {
		return fmt.Errorf("serve: no partition %d", part)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if rt.execs[part].recovering.Load() {
		rt.stats.recovering.Add(1)
		return ErrRecovering
	}
	start := time.Now()
	req := &request{ctx: ctx, txn: txn, done: make(chan error, 1)}
	rt.mu.RLock()
	if rt.closed.Load() {
		rt.mu.RUnlock()
		return ErrClosed
	}
	select {
	case rt.execs[part].ch <- req:
		rt.mu.RUnlock()
	default:
		rt.mu.RUnlock()
		rt.stats.overloaded.Add(1)
		return ErrOverloaded
	}
	select {
	case err := <-req.done:
		// Submit→ack latency: queue wait + execution + (under group
		// commit) the durability barrier, success or failure alike.
		rt.ackHist[part].Record(time.Since(start))
		return err
	case <-ctx.Done():
		// The request stays queued; the executor observes the dead
		// context and skips it without starting a transaction.
		return ctx.Err()
	}
}

// Close drains every partition queue (queued requests still execute),
// stops the executors, and flushes batched durability work.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	if rt.closed.Swap(true) {
		rt.mu.Unlock()
		return ErrClosed
	}
	for _, ex := range rt.execs {
		close(ex.ch)
	}
	for _, q := range rt.readQs {
		close(q)
	}
	rt.mu.Unlock()
	rt.wg.Wait()
	rt.msMu.Lock()
	servers := rt.metrics
	rt.metrics = nil
	rt.msMu.Unlock()
	for _, ms := range servers {
		_ = ms.Close()
	}
	return rt.db.Flush()
}

// adoptMetrics records a metrics server for teardown in Close.
func (rt *Runtime) adoptMetrics(ms *MetricsServer) {
	rt.msMu.Lock()
	rt.metrics = append(rt.metrics, ms)
	rt.msMu.Unlock()
}

// DB exposes the runtime's database (the network layer routes and digests
// against it).
func (rt *Runtime) DB() *testbed.DB { return rt.db }

// RecoverAll power-cycles and re-recovers every partition behind a bounded
// worker pool of the given size (<= 0 picks core.ParallelChunks' default).
// Each partition is marked recovering first, so submissions and the executor
// loop fail fast with ErrRecovering instead of blocking on the heal; the
// partition returns to service the moment its own recovery completes — there
// is no cross-partition barrier. Held group-commit acks are failed with
// ErrRecovering (the power cycle wipes the volatile group buffer). Returns
// the first recovery error; the remaining partitions still recover.
func (rt *Runtime) RecoverAll(parallelism int) error {
	if rt.closed.Load() {
		return ErrClosed
	}
	for _, ex := range rt.execs {
		ex.recovering.Store(true)
	}
	err := core.ParallelChunks(parallelism, len(rt.execs), func(lo, hi int) error {
		var firstErr error
		for i := lo; i < hi; i++ {
			if rerr := rt.recoverOne(i); rerr != nil && firstErr == nil {
				firstErr = rerr
			}
		}
		return firstErr
	})
	for _, ex := range rt.execs {
		ex.recovering.Store(false)
	}
	return err
}

// recoverOne runs one partition's out-of-band power cycle + recovery under
// its engine mutex, then clears its recovering flag.
func (rt *Runtime) recoverOne(i int) error {
	ex := rt.execs[i]
	ex.engMu.Lock()
	defer func() {
		ex.recovering.Store(false)
		ex.engMu.Unlock()
	}()
	// Fail held acks: those commits sat in the volatile group buffer that
	// the power cycle below wipes, so they must not be acked.
	ex.failPendingLocked()
	rt.db.Env(i).Dev.DisarmFail()
	rt.db.CrashPartition(i)
	if err := ex.recoverQuiet(); err != nil {
		rt.stats.healFails.Add(1)
		rt.event(i, EventHealFailed, err)
		return err
	}
	rt.stats.heals.Add(1)
	rt.event(i, EventHealed, nil)
	return nil
}

// Stats snapshots the supervisor counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Committed:  rt.stats.committed.Load(),
		Aborted:    rt.stats.aborted.Load(),
		Failed:     rt.stats.failed.Load(),
		Retries:    rt.stats.retries.Load(),
		Panics:     rt.stats.panics.Load(),
		Heals:      rt.stats.heals.Load(),
		HealFails:  rt.stats.healFails.Load(),
		Overloaded: rt.stats.overloaded.Load(),
		Recovering: rt.stats.recovering.Load(),
		Degraded:   rt.stats.degraded.Load(),
		Reads:      rt.stats.reads.Load(),
		ReadFails:  rt.stats.readFails.Load(),
	}
}

func (rt *Runtime) event(part int, kind EventKind, err error) {
	if rt.cfg.OnEvent != nil {
		rt.cfg.OnEvent(Event{Part: part, Kind: kind, Err: err})
	}
}

// run is the partition's executor loop, the paper's serial executor and the
// testbed's concurrency contract (engines are single-partition and not safe
// for concurrent use): engMu is held across the whole transaction and runOnce
// drives the engine directly.
func (ex *executor) run() {
	defer ex.rt.wg.Done()
	for req := range ex.ch {
		if err := req.ctx.Err(); err != nil {
			req.done <- err
			continue
		}
		if ex.degraded.Load() {
			req.done <- ErrDegraded
			continue
		}
		if ex.recovering.Load() {
			// An out-of-band RecoverAll owns the engine right now; fail fast
			// instead of blocking the queue on its engMu.
			ex.rt.stats.recovering.Add(1)
			req.done <- ErrRecovering
			continue
		}
		ex.engMu.Lock()
		deferred, err := ex.serve(func() (bool, error) {
			if err := ex.runOnce(req.txn); err != nil {
				return false, err
			}
			return ex.holdAck(req), nil
		})
		// A failure is an answer too, and the body may have computed it from
		// commits whose acks are still held: KeyExists on the retry of an
		// insert whose first attempt sits in the group buffer reads to the
		// client as that insert's ack. It waits for the same barrier; if the
		// barrier fails the partition rolled back and the answer is void.
		if err != nil && !ex.flushPending() {
			err = ErrRecovering
		}
		ex.engMu.Unlock()
		if deferred {
			continue // the durability barrier owns the ack now
		}
		if err == nil {
			ex.rt.stats.committed.Add(1)
		}
		req.done <- err
	}
	// Close drained the queue; release any held acks durably.
	ex.engMu.Lock()
	ex.flushPending()
	ex.engMu.Unlock()
}

// holdAck is the tail of a commit under group commit: the transaction is
// applied, but possibly only into the volatile group buffer, so its ack is
// held until the group flushes — when the group is full or the queue went
// idle (no point delaying the clients). It reports whether the ack is now the
// durability barrier's to release. Caller holds engMu.
func (ex *executor) holdAck(req *request) bool {
	if ex.groupSize <= 1 {
		return false
	}
	ex.pending = append(ex.pending, req)
	if len(ex.pending) >= ex.groupSize || len(ex.ch) == 0 {
		ex.flushPending()
	}
	return true
}

// flushPending runs the durability barrier for the held acks: the engine's
// Flush forces the group commit, after which every pending transaction is
// provably durable and acked. A barrier that cannot be completed (retries
// exhausted, corruption, injected crash) means those commits were never
// durable — the pending requests are failed and the partition heals back to
// its last durable state, and flushPending reports false. Caller holds engMu.
func (ex *executor) flushPending() bool {
	if len(ex.pending) == 0 {
		return true
	}
	cfg := &ex.rt.cfg
	for attempt := 0; ; attempt++ {
		err := ex.flushQuiet()
		if err == nil {
			ex.rt.stats.committed.Add(int64(len(ex.pending)))
			for _, req := range ex.pending {
				req.done <- nil
			}
			ex.pending = ex.pending[:0]
			return true
		}
		if core.IsRetryable(err) && !errors.Is(err, nvm.ErrInjectedCrash) && attempt < cfg.MaxRetries {
			ex.rt.stats.retries.Add(1)
			ex.rt.event(ex.part, EventRetry, err)
			ex.backoff(attempt)
			continue
		}
		// heal fails the pending list first (those commits are not durable).
		ex.heal(err)
		return false
	}
}

// flushQuiet calls Engine.Flush, converting a panic (e.g. an injected crash
// at the fsync boundary) into a typed error for the supervisor.
func (ex *executor) flushQuiet() (err error) {
	eng := ex.rt.db.Engine(ex.part)
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("%v", r)
			}
			err = &core.TxnError{Engine: eng.Name(), Op: "flush", Panicked: true, Err: perr}
		}
	}()
	return eng.Flush()
}

// serve runs one transaction under the supervisor policy: contain panics,
// retry retryable failures with backoff, heal on anything worse. attempt
// executes the transaction once and reports whether its ack was deferred to
// the durability barrier. Caller holds engMu.
func (ex *executor) serve(attempt func() (deferred bool, err error)) (deferred bool, err error) {
	cfg := &ex.rt.cfg
	for n := 0; ; n++ {
		deferred, err := attempt()
		switch {
		case err == nil:
			// The committed counter is bumped at ack time (run or
			// flushPending), so it never counts a commit whose ack a failed
			// durability barrier later revoked.
			return deferred, nil

		case errors.Is(err, testbed.ErrAbort):
			ex.rt.stats.aborted.Add(1)
			return false, err

		case errors.Is(err, nvm.ErrInjectedCrash):
			// The emulated device lost power mid-operation (fault
			// injection): only the engine's crash-recovery protocol can
			// bring the partition back.
			ex.heal(err)
			ex.rt.stats.failed.Add(1)
			return false, ErrRecovering

		case isPanicErr(err):
			ex.rt.stats.panics.Add(1)
			ex.rt.event(ex.part, EventPanic, err)
			if ex.panicStorm() {
				ex.heal(err)
			}
			ex.rt.stats.failed.Add(1)
			return false, err

		case core.IsCorrupt(err):
			ex.heal(err)
			ex.rt.stats.failed.Add(1)
			return false, ErrRecovering

		case core.IsRetryable(err):
			if n >= cfg.MaxRetries {
				ex.rt.stats.failed.Add(1)
				return false, err
			}
			ex.rt.stats.retries.Add(1)
			ex.rt.event(ex.part, EventRetry, err)
			ex.backoff(n)
			continue

		default:
			// A plain error from the transaction body (e.g.
			// core.ErrKeyExists) is the client's to handle; the abort in
			// the attempt already restored the partition.
			ex.rt.stats.failed.Add(1)
			return false, err
		}
	}
}

// runOnce executes the transaction once at the engine boundary. Panics are
// recovered here and converted to core.TxnError; the transaction is
// aborted on every failure path so the engine is clean for the next
// request. An abort failure is escalated as a corrupt error.
func (ex *executor) runOnce(txn testbed.Txn) (err error) {
	eng := ex.rt.db.Engine(ex.part)
	op := "begin"
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("%v", r)
			}
			err = &core.TxnError{Engine: eng.Name(), Op: op, Panicked: true, Err: perr}
			if errors.Is(perr, nvm.ErrInjectedCrash) {
				// The device is post-crash; aborting would touch lost
				// state. Leave it for heal.
				return
			}
			if aerr := ex.abortQuiet(eng); aerr != nil {
				err = core.Corrupt(errors.Join(err, aerr))
			}
		}
	}()
	if err := eng.Begin(); err != nil {
		return err
	}
	op = "txn"
	if terr := txn(eng); terr != nil {
		op = "abort"
		if aerr := eng.Abort(); aerr != nil {
			return core.Corrupt(errors.Join(terr, aerr))
		}
		return terr
	}
	op = "commit"
	if cerr := eng.Commit(); cerr != nil {
		// Engines unwind their own transaction state on every Commit error
		// path (rollback or EndTx), so the engine is ready for Begin; an
		// extra Abort here would just trip ErrNoTxn. Corrupt errors
		// escalate to heal in the caller.
		return cerr
	}
	if ex.rt.cfg.DurableAck {
		op = "flush"
		if ferr := eng.Flush(); ferr != nil {
			// The commit is applied but not provably durable; the ack
			// contract is broken, so treat it like a commit failure.
			return ferr
		}
	}
	return nil
}

// abortQuiet aborts the current transaction, absorbing a nested panic
// (e.g. the abort replaying undo over a post-crash device).
func (ex *executor) abortQuiet(eng core.Engine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("abort panicked: %v", r)
		}
	}()
	return eng.Abort()
}

// panicStorm records a panic and reports whether the sliding window
// crossed the storm threshold.
func (ex *executor) panicStorm() bool {
	now := time.Now()
	cutoff := now.Add(-ex.rt.cfg.PanicWindow)
	keep := ex.panicTimes[:0]
	for _, t := range ex.panicTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	ex.panicTimes = append(keep, now)
	return len(ex.panicTimes) >= ex.rt.cfg.PanicThreshold
}

// heal quarantines the partition: queued requests are failed with the
// retryable ErrRecovering (no silent drops), the emulated device is
// power-cycled, and the engine's own crash-recovery protocol is re-run.
// Repeated recovery failures open the circuit breaker and the partition
// degrades to fail-fast.
func (ex *executor) heal(cause error) {
	rt := ex.rt
	rt.event(ex.part, EventHeal, cause)

	// Fail the held acks first: those commits sat in a volatile group buffer
	// that the power cycle below wipes, so they must not be acked.
	ex.failPendingLocked()

	// Fail everything already queued behind the broken engine.
drain:
	for {
		select {
		case req, ok := <-ex.ch:
			if !ok {
				break drain // Close already ran; nothing left to fail
			}
			rt.stats.recovering.Add(1)
			req.done <- ErrRecovering
		default:
			break drain
		}
	}

	env := rt.db.Env(ex.part)
	env.Dev.DisarmFail() // a still-armed fault plan would fire again below
	for {
		rt.db.CrashPartition(ex.part)
		if err := ex.recoverQuiet(); err != nil {
			ex.healFails++
			rt.stats.healFails.Add(1)
			rt.event(ex.part, EventHealFailed, err)
			if ex.healFails >= rt.cfg.BreakerThreshold {
				ex.degraded.Store(true)
				rt.stats.degraded.Add(1)
				rt.event(ex.part, EventDegraded, err)
				return
			}
			ex.backoff(ex.healFails)
			continue
		}
		ex.healFails = 0
		ex.panicTimes = ex.panicTimes[:0]
		rt.stats.heals.Add(1)
		rt.event(ex.part, EventHealed, nil)
		return
	}
}

// recoverQuiet runs the partition's crash recovery, converting a panic in
// the recovery path itself (e.g. an unmountable device image) into an
// error so the circuit breaker — not the process — absorbs it.
func (ex *executor) recoverQuiet() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: recovery panicked: %v", r)
		}
	}()
	_, err = ex.rt.db.RecoverPartition(ex.part)
	return err
}

// failPendingLocked fails the held acks with ErrRecovering. Caller holds
// engMu.
func (ex *executor) failPendingLocked() {
	for _, req := range ex.pending {
		ex.rt.stats.recovering.Add(1)
		req.done <- ErrRecovering
	}
	ex.pending = ex.pending[:0]
}

// backoff sleeps the capped-exponential, jittered delay for the attempt,
// drawing jitter from the executor's RNG, which engMu guards.
func (ex *executor) backoff(attempt int) {
	d := ex.rt.cfg.RetryBase << uint(attempt)
	if d > ex.rt.cfg.RetryCap || d <= 0 {
		d = ex.rt.cfg.RetryCap
	}
	time.Sleep(d/2 + time.Duration(ex.rng.Int63n(int64(d/2)+1)))
}

func isPanicErr(err error) bool {
	var te *core.TxnError
	return errors.As(err, &te) && te.Panicked
}
