package serve

// Snapshot read path: one reader goroutine per partition serving Get/Scan
// against MVCC read views, alongside — never through — the executor's queue.
// A read pins a view at the partition's durable timestamp frontier and reads
// the engine under its exclusion, rolling back what was written after the
// view (internal/mvcc), all under one acquisition. So a read waits for at
// most the one transaction in flight, never for the transactions queued
// behind it nor for a group-commit barrier. The visibility contract is
// ack-aligned: the timestamp oracle only advances when a commit crosses the
// durability barrier, so a view can never observe a write whose ack a failed
// barrier would later revoke.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nstore/internal/core"
)

// readReq is one snapshot read waiting for the partition's reader.
type readReq struct {
	ctx  context.Context
	op   func(core.ReadView) error
	done chan error // buffered(1): the reader never blocks on the reply
}

// Read routes a snapshot read to key's home partition and runs op against a
// read view pinned at the partition's durable frontier. It mirrors Submit's
// admission contract: ErrOverloaded when the read queue is full,
// ErrRecovering while a heal owns the partition, ErrDegraded past the
// circuit breaker, and ctx cancellation while queued.
func (rt *Runtime) Read(ctx context.Context, key uint64, op func(core.ReadView) error) error {
	return rt.ReadPart(ctx, rt.db.Route(key), op)
}

// ReadPart is Read for an explicit partition.
func (rt *Runtime) ReadPart(ctx context.Context, part int, op func(core.ReadView) error) error {
	if rt.closed.Load() {
		return ErrClosed
	}
	if part < 0 || part >= len(rt.execs) {
		return fmt.Errorf("serve: no partition %d", part)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ex := rt.execs[part]
	if ex.degraded.Load() {
		return ErrDegraded
	}
	if ex.recovering.Load() {
		rt.stats.recovering.Add(1)
		return ErrRecovering
	}
	start := time.Now()
	req := &readReq{ctx: ctx, op: op, done: make(chan error, 1)}
	rt.mu.RLock()
	if rt.closed.Load() {
		rt.mu.RUnlock()
		return ErrClosed
	}
	select {
	case rt.readQs[part] <- req:
		rt.mu.RUnlock()
	default:
		rt.mu.RUnlock()
		rt.stats.overloaded.Add(1)
		return ErrOverloaded
	}
	select {
	case err := <-req.done:
		rt.readHist[part].Record(time.Since(start))
		if err == nil {
			rt.stats.reads.Add(1)
		} else {
			rt.stats.readFails.Add(1)
		}
		return err
	case <-ctx.Done():
		// The request stays queued; the reader observes the dead context
		// and skips it without pinning a view.
		return ctx.Err()
	}
}

// GetRow is a convenience snapshot point read.
func (rt *Runtime) GetRow(ctx context.Context, table string, key uint64) (row []core.Value, found bool, err error) {
	err = rt.Read(ctx, key, func(v core.ReadView) error {
		r, ok, gerr := v.Get(table, key)
		if gerr != nil {
			return gerr
		}
		row, found = core.CloneRow(r), ok
		return nil
	})
	return row, found, err
}

// readLoop is the partition's reader goroutine: it drains the read queue,
// re-checks admission (the partition may have started healing while the
// request sat queued), and serves the read against a fresh view.
func (rt *Runtime) readLoop(part int) {
	defer rt.wg.Done()
	ex := rt.execs[part]
	for req := range rt.readQs[part] {
		if err := req.ctx.Err(); err != nil {
			req.done <- err
			continue
		}
		if ex.degraded.Load() {
			req.done <- ErrDegraded
			continue
		}
		if ex.recovering.Load() {
			rt.stats.recovering.Add(1)
			req.done <- ErrRecovering
			continue
		}
		req.done <- rt.serveRead(part, req.op)
	}
}

// serveRead pins a view on the partition's current engine and runs op,
// converting a panic into a typed TxnError like the write path does. The
// engine pointer is fetched per read (RecoverPartition swaps it); an engine
// power-cycled under the read turns it away with core.ErrRetired, which the
// client sees as ErrRecovering.
func (rt *Runtime) serveRead(part int, op func(core.ReadView) error) (err error) {
	eng := rt.db.Engine(part)
	sr, ok := eng.(core.SnapshotReader)
	if !ok {
		return fmt.Errorf("serve: engine %s does not support snapshot reads", eng.Name())
	}
	defer func() {
		if r := recover(); r != nil {
			perr, isErr := r.(error)
			if !isErr {
				perr = fmt.Errorf("%v", r)
			}
			err = &core.TxnError{Engine: eng.Name(), Op: "read", Panicked: true, Err: perr}
		}
	}()
	if err = sr.ReadSnapshot(op); errors.Is(err, core.ErrRetired) {
		rt.stats.recovering.Add(1)
		return ErrRecovering
	}
	return err
}
