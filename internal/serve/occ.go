package serve

// This file holds the optimistic write executors (Config.Writers > 1). Each
// partition runs N writer goroutines off the same bounded queue. A
// transaction executes against a core.OccTxn — reads from a pinned MVCC
// snapshot, writes buffered into a write set — without holding the partition
// lock; only the commit point (validate + apply + group-commit bookkeeping)
// serializes under engMu. First committer wins: a loser aborts with the
// retryable core.ErrConflict, having never touched the engine, and is
// retried against a fresh snapshot with jittered backoff. Acks still release
// strictly after the durability barrier, exactly like the serial path. The
// executor loop, the supervisor policy and the barrier are the serial path's
// own (run, serve, flushPending in serve.go); Writers: 1 does not enter this
// file at all.

import (
	"errors"
	"fmt"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
)

// runOnceOCC executes the transaction once: optimistic phase off-lock,
// then validate + apply + ack bookkeeping under engMu. deferred reports
// that the commit joined a group and its ack belongs to the durability
// barrier.
func (ex *executor) runOnceOCC(req *request, w int) (deferred bool, err error) {
	rt := ex.rt
	eng := rt.db.Engine(ex.part)
	sr, okSR := eng.(core.SnapshotReader)
	vp, okVP := eng.(core.OccValidatorProvider)
	if !okSR || !okVP {
		// All six engines serve snapshots and conflict queries; this is a
		// foreign engine without the substrate the optimistic path needs.
		return false, fmt.Errorf("serve: engine %s lost its MVCC substrate mid-run", eng.Name())
	}

	// Optimistic phase: the body runs against the wrapper, never the
	// engine. Panics here are the body's (or the view's), contained to a
	// typed TxnError like the serial path's runOnce.
	ot := core.NewOccTxn(sr.SnapshotView(), eng.Name(), rt.schemas)
	if terr := ex.occBody(eng.Name(), ot, req.txn); terr != nil {
		ot.Close()
		return false, terr
	}

	// Commit point. The snapshot stays pinned through validation: the pin
	// keeps the validator's conflict entries above the GC watermark from
	// being pruned out from under the read set.
	ex.engMu.Lock()
	defer ex.engMu.Unlock()
	defer ot.Close()
	if ex.recovering.Load() {
		rt.stats.recovering.Add(1)
		return false, ErrRecovering
	}
	if cur := rt.db.Engine(ex.part); cur != eng {
		// The partition healed between snapshot and commit; the snapshot
		// belongs to the discarded engine instance. Retryable — the next
		// attempt pins a fresh snapshot on the recovered engine.
		return false, ErrRecovering
	}
	if verr := ot.Validate(vp.OccValidator()); verr != nil {
		rt.stats.conflicts.Add(1)
		return false, verr
	}
	// Validated under engMu, so nothing the pin protects is needed any more;
	// held through Apply it would make nvm-inp / nvm-log read every
	// pre-image of the write set for a view nobody reads.
	ot.Close()
	if ot.ReadOnly() {
		// A read-only transaction serializes at its snapshot; nothing to
		// apply, nothing to make durable.
		return false, nil
	}
	if aerr := ex.applyOCC(eng, ot); aerr != nil {
		return false, aerr
	}
	return ex.holdAck(req, w), nil
}

// occBody runs the transaction body against the wrapper with the serial
// path's panic containment.
func (ex *executor) occBody(engine string, ot *core.OccTxn, txn testbed.Txn) (err error) {
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("%v", r)
			}
			err = &core.TxnError{Engine: engine, Op: "occ-txn", Panicked: true, Err: perr}
		}
	}()
	return txn(ot)
}

// applyOCC replays the validated write set through the real engine with
// runOnce's panic containment and DurableAck semantics. Caller holds engMu.
func (ex *executor) applyOCC(eng core.Engine, ot *core.OccTxn) (err error) {
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("%v", r)
			}
			err = &core.TxnError{Engine: eng.Name(), Op: "occ-apply", Panicked: true, Err: perr}
			if errors.Is(perr, nvm.ErrInjectedCrash) {
				// Post-crash device: leave the state for heal.
				return
			}
			if aerr := ex.abortQuiet(eng); aerr != nil {
				err = core.Corrupt(errors.Join(err, aerr))
			}
		}
	}()
	if err := ot.Apply(eng); err != nil {
		return err
	}
	if ex.rt.cfg.DurableAck {
		if ferr := eng.Flush(); ferr != nil {
			// Applied but not provably durable; the ack contract is broken,
			// so treat it like a commit failure.
			return ferr
		}
	}
	return nil
}

// recordWriterAck feeds the per-(partition, writer) submit→ack histogram
// (registered only in OCC mode).
func (rt *Runtime) recordWriterAck(part, w int, d time.Duration) {
	if rt.writerHist != nil {
		rt.writerHist[part][w].Record(d)
	}
}
