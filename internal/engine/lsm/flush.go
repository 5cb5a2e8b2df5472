package lsm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nstore/internal/core"
)

// ErrClosed is returned (wrapped retryable) by Submit after Close. Engines
// chaining submissions from a release stage treat it as benign: the work
// re-queues at the next trigger, or the engine is shutting down.
var ErrClosed = errors.New("lsm: flush manager closed")

// Flush pipeline stages (the NoKV-style stage machine). Prepare runs
// synchronously at the trigger point — it freezes the memtable and rotates
// the WAL segment, which must happen before the next transaction appends.
// Build, install, and release run as one pipeline task, inline or on the
// background worker.
type FlushStage int

const (
	StagePrepare FlushStage = iota
	StageBuild
	StageInstall
	StageRelease
	NumFlushStages
)

// String spells the stage for metrics and errors.
func (s FlushStage) String() string {
	switch s {
	case StagePrepare:
		return "prepare"
	case StageBuild:
		return "build"
	case StageInstall:
		return "install"
	case StageRelease:
		return "release"
	}
	return "unknown"
}

// FlushTask is one unit of pipeline work: building an SSTable from a frozen
// memtable, merging runs, or a value-log GC pass. The closures run in
// order; a build or install failure skips the remaining stages and leaves
// the prepared state (frozen memtable, retained WAL segment) intact for
// retry — acked commits stay durable via the WAL segment that release
// would have deleted.
type FlushTask struct {
	ID      uint64
	Kind    string // "flush", "compact", "gc"
	Build   func() error
	Install func() error
	Release func() error
}

// MergeSet is the size-ratio merge rule: given the key counts of the
// immutable runs, newest first, it returns how many of the newest runs to merge
// into one. The set starts at the newest run and takes in the next older run
// while that run holds at most k times the keys gathered so far. A result below
// two means "merge nothing". The run that stops a set holds more than k times
// the set's keys, and so more than k times the merged run's, so a merge never
// makes the rule want another.
func MergeSet(keys []int, k int) int {
	if len(keys) == 0 {
		return 0
	}
	n, gathered := 1, keys[0]
	for n < len(keys) && keys[n] <= k*gathered {
		gathered += keys[n]
		n++
	}
	return n
}

// FlushManager runs flush tasks either inline (deterministic, the default)
// or on one background worker goroutine. In background mode the engine's
// monitor lock is taken around each task via the lock/unlock hooks, because
// the device data path underneath is single-owner. Task failures go sticky:
// the engine surfaces them on the next Commit or Flush (TakeErr).
type FlushManager struct {
	mu   sync.Mutex
	cond *sync.Cond

	background   bool
	lock, unlock func()
	observe      func(kind string, stage FlushStage, d time.Duration)

	queue    []*FlushTask
	inFlight bool
	sticky   error
	closed   bool
	done     chan struct{} // worker exit, background mode only

	nextID uint64
}

// NewFlushManager builds a manager. lock/unlock guard the engine state in
// background mode (they may be nil when background is false); observe (may
// be nil) receives per-stage wall times.
func NewFlushManager(background bool, lock, unlock func(), observe func(kind string, stage FlushStage, d time.Duration)) *FlushManager {
	m := &FlushManager{background: background, lock: lock, unlock: unlock, observe: observe}
	m.cond = sync.NewCond(&m.mu)
	if background {
		m.done = make(chan struct{})
		go m.run()
	}
	return m
}

// StageTimes is the observer both engines hand NewFlushManager: it adds each
// stage's wall time to st. The manager calls it with the engine monitor held
// in every mode (inline: by the trigger under the caller's lock; background:
// inside execLocked), so st needs no lock of its own.
func StageTimes(st *core.FlushStats) func(kind string, stage FlushStage, d time.Duration) {
	return func(_ string, stage FlushStage, d time.Duration) {
		switch stage {
		case StagePrepare:
			st.PrepareNs += d.Nanoseconds()
		case StageBuild:
			st.BuildNs += d.Nanoseconds()
		case StageInstall:
			st.InstallNs += d.Nanoseconds()
		case StageRelease:
			st.ReleaseNs += d.Nanoseconds()
		}
	}
}

// Observe records a stage duration the engine measured itself (prepare runs
// outside the manager).
func (m *FlushManager) Observe(kind string, stage FlushStage, d time.Duration) {
	if m.observe != nil {
		m.observe(kind, stage, d)
	}
}

// Submit enqueues a task. Inline mode runs it immediately — the caller
// already holds the engine lock — and returns its error. Background mode
// returns nil; failures surface later through TakeErr.
func (m *FlushManager) Submit(t *FlushTask) error {
	m.mu.Lock()
	m.nextID++
	t.ID = m.nextID
	if m.closed {
		m.mu.Unlock()
		return core.Retryable(ErrClosed)
	}
	if !m.background {
		m.mu.Unlock()
		return m.exec(t)
	}
	m.queue = append(m.queue, t)
	m.cond.Broadcast()
	m.mu.Unlock()
	return nil
}

// exec runs one task's stages, timing each.
func (m *FlushManager) exec(t *FlushTask) error {
	for _, st := range []struct {
		stage FlushStage
		fn    func() error
	}{{StageBuild, t.Build}, {StageInstall, t.Install}, {StageRelease, t.Release}} {
		if st.fn == nil {
			continue
		}
		start := time.Now()
		err := st.fn()
		m.Observe(t.Kind, st.stage, time.Since(start))
		if err != nil {
			return fmt.Errorf("lsm: %s %s: %w", t.Kind, st.stage, err)
		}
	}
	return nil
}

// run is the background worker: it drains the queue, taking the engine
// lock around each task, until Close. A panic inside a task (the fault
// injector's simulated crash, or a real bug) is converted to a sticky
// corrupt error instead of killing the process — the engine is no longer
// trustworthy, but the caller gets a typed error, matching the serving
// runtime's panic-to-error supervision.
func (m *FlushManager) run() {
	defer close(m.done)
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.inFlight = true
		m.mu.Unlock()

		err := m.execLocked(t)

		m.mu.Lock()
		m.inFlight = false
		if err != nil && m.sticky == nil {
			m.sticky = err
		}
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// execLocked wraps exec with the engine monitor lock and panic recovery.
func (m *FlushManager) execLocked(t *FlushTask) (err error) {
	if m.lock != nil {
		m.lock()
		defer m.unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			err = core.Corrupt(fmt.Errorf("lsm: %s task panicked: %v", t.Kind, r))
		}
	}()
	return m.exec(t)
}

// TakeErr returns and clears the sticky background failure, if any. The
// engine surfaces it on the next Commit/Flush; clearing lets a retried
// flush succeed afterwards.
func (m *FlushManager) TakeErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.sticky
	m.sticky = nil
	return err
}

// Drain blocks until the queue is empty and no task is in flight. The
// caller must NOT hold the engine lock (the worker needs it to finish).
func (m *FlushManager) Drain() {
	m.mu.Lock()
	for len(m.queue) > 0 || m.inFlight {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// Pending reports queued plus in-flight tasks.
func (m *FlushManager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.queue)
	if m.inFlight {
		n++
	}
	return n
}

// Close drains outstanding work and stops the worker. Safe to call twice.
// The caller must not hold the engine lock.
func (m *FlushManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		if m.background {
			<-m.done
		}
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.background {
		<-m.done
	}
}
