package netclient

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nstore/internal/wire"
)

// ErrTxnUnknown means a cross-shard commit's outcome could not be learned:
// the primary-shard commit request failed in transit after prewrites
// succeeded. The transaction is decided — the primary either has the commit
// record or will be rolled back by the next reader — but this client cannot
// say which way. Callers that must know re-ask with OpTxnResolve.
var ErrTxnUnknown = errors.New("netclient: cross-shard commit outcome unknown")

// txnSeq disambiguates transaction ids minted within one nanosecond tick.
var txnSeq atomic.Uint64

// nextTxnID mints a transaction id: wall-clock nanoseconds shifted up with a
// process-local sequence low, so concurrent clients collide only if two
// processes mint in the same nanosecond AND the same sequence slot. The id is
// the primary key of the transaction's status record, so it stays below the
// key rule's 2^56 (core.TableMeta.CheckKey). Never 0.
func nextTxnID() uint64 {
	id := (uint64(time.Now().UnixNano())<<10 | (txnSeq.Add(1) & 1023)) & (1<<56 - 1)
	if id == 0 {
		id = 1
	}
	return id
}

// txnGroup is one shard's slice of a cross-shard transaction.
type txnGroup struct {
	shard int32
	idx   []int // indices into the caller's op list, in order
}

// DoTxn executes ops as one atomic transaction. If every op routes to the
// same shard it degrades to a single OpTxn frame (full op set allowed, run
// as one transaction on the shard's executor). If the ops span shards it runs percolator-style 2PC:
// prewrite buffers each shard's writes as replicated lock records, the
// primary-shard commit is the single atomic commit point, and secondary
// shards roll forward afterwards — readers who hit a not-yet-settled lock
// resolve it through the primary. Cross-shard transactions are write-only
// (Put/Delete/Rmw); RMW pre-images come back in Subs.
//
// A StatusOK response means the primary commit record is durable and
// replicated: the transaction is atomically visible on every shard, by
// roll-forward at the latest. StatusAborted means no shard kept anything.
func (r *Router) DoTxn(ctx context.Context, ops []wire.Request) (*wire.Response, error) {
	if len(ops) == 0 {
		return nil, errors.New("netclient: empty transaction")
	}
	if r.Map() == nil {
		if err := r.Refresh(ctx); err != nil {
			return nil, err
		}
	}
	m := r.Map()
	groups := planGroups(m, ops)
	if len(groups) == 1 {
		req := &wire.Request{Op: wire.OpTxn, Part: groups[0].shard, Ops: ops}
		return r.DoRetry(ctx, req)
	}
	// Cross-shard: write ops only, one write per key.
	seen := make(map[string]map[uint64]bool)
	for i := range ops {
		switch ops[i].Op {
		case wire.OpPut, wire.OpDelete, wire.OpRmw:
		default:
			return nil, fmt.Errorf("netclient: op %d (%v) cannot cross shards; cross-shard transactions are write-only", i, ops[i].Op)
		}
		keys := seen[ops[i].Table]
		if keys == nil {
			keys = make(map[uint64]bool)
			seen[ops[i].Table] = keys
		}
		if keys[ops[i].Key] {
			return nil, fmt.Errorf("netclient: duplicate write to %s/%d in one transaction", ops[i].Table, ops[i].Key)
		}
		keys[ops[i].Key] = true
	}

	txn := nextTxnID()
	primary := groups[0] // ops[0]'s shard: its lock is the commit point
	subs := make([]wire.Response, len(ops))
	for _, g := range groups {
		gops := make([]wire.Request, len(g.idx))
		for i, j := range g.idx {
			gops[i] = ops[j]
			gops[i].Part = -1
		}
		preq := &wire.Request{
			Op: wire.OpTxnPrewrite, Part: g.shard,
			Table: ops[0].Table, Key: ops[0].Key,
			Txn: txn, PriShard: primary.shard, Ops: gops,
		}
		resp, err := r.DoRetry(ctx, preq)
		if err != nil || resp.Status != wire.StatusOK {
			// Nothing is committed: fence the primary so no late commit can
			// land, then sweep whatever locks this attempt left behind.
			r.settleAll(ctx, wire.OpTxnAbort, txn, ops, groups, true)
			if err != nil {
				return nil, fmt.Errorf("netclient: prewrite shard %d: %w", g.shard, err)
			}
			return &wire.Response{
				Status: resp.Status, Msg: resp.Msg,
				Txn: txn, TxnState: wire.TxnAborted,
			}, nil
		}
		for i, j := range g.idx {
			if i < len(resp.Subs) {
				subs[j] = resp.Subs[i]
			}
		}
	}

	// Commit point: the primary shard's commit transaction writes the
	// durable committed record, applies the primary's buffered writes, and
	// releases its locks — atomically. Its ack is the transaction's ack.
	creq := &wire.Request{
		Op: wire.OpTxnCommit, Part: primary.shard,
		Txn: txn, Phase: 1, Locks: lockRefs(ops, primary),
	}
	cresp, err := r.DoRetry(ctx, creq)
	switch {
	case err != nil:
		// The decision exists server-side but was lost in transit. Do NOT
		// abort — the commit may have landed. Resolution settles it.
		return nil, fmt.Errorf("%w: txn %d: %v", ErrTxnUnknown, txn, err)
	case cresp.Status == wire.StatusAborted:
		// A reader force-resolved us to abort before the commit arrived. The
		// fence is already on the primary, but the resolver broke only the
		// primary lock itself — our sibling locks on the primary's shard and
		// every secondary's are still held. Sweep all groups (Phase 0: the
		// fence stands, aborting already-released locks is a no-op).
		r.settleAll(ctx, wire.OpTxnAbort, txn, ops, groups, false)
		return &wire.Response{
			Status: wire.StatusAborted, Msg: cresp.Msg,
			Txn: txn, TxnState: wire.TxnAborted,
		}, nil
	case cresp.Status != wire.StatusOK:
		r.settleAll(ctx, wire.OpTxnAbort, txn, ops, groups, true)
		return &wire.Response{
			Status: cresp.Status, Msg: cresp.Msg,
			Txn: txn, TxnState: wire.TxnAborted,
		}, nil
	}
	// Roll the secondary shards forward. Best-effort: a failure here leaves
	// locks that the next reader resolves through the (committed) primary.
	r.settleAll(ctx, wire.OpTxnCommit, txn, ops, groups[1:], false)
	return &wire.Response{
		Status: wire.StatusOK,
		Txn:    txn, TxnState: wire.TxnCommitted,
		Subs: subs,
	}, nil
}

// planGroups buckets ops by shard in order of first appearance. Explicit
// Part pins win; otherwise the shard is wire.ShardOf under the current map.
func planGroups(m *wire.ShardMap, ops []wire.Request) []txnGroup {
	var groups []txnGroup
	at := make(map[int32]int)
	for i := range ops {
		shard := ops[i].Part
		if shard < 0 {
			shard = int32(m.ShardOf(ops[i].Key))
		}
		g, ok := at[shard]
		if !ok {
			g = len(groups)
			at[shard] = g
			groups = append(groups, txnGroup{shard: shard})
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	return groups
}

func lockRefs(ops []wire.Request, g txnGroup) []wire.LockRef {
	refs := make([]wire.LockRef, len(g.idx))
	for i, j := range g.idx {
		refs[i] = wire.LockRef{Table: ops[j].Table, Key: ops[j].Key}
	}
	return refs
}

// settleAll drives commit roll-forward or abort cleanup on every listed
// shard. fencePrimary marks the first group as the primary: its abort runs
// Phase 1, writing the abort fence that blocks any late commit. Best-effort
// by design: an unreachable shard keeps its locks until a reader resolves
// them, which reaches the same decision through the primary record.
func (r *Router) settleAll(ctx context.Context, op wire.Op, txn uint64, ops []wire.Request, groups []txnGroup, fencePrimary bool) {
	for gi, g := range groups {
		var phase byte
		if fencePrimary && gi == 0 {
			phase = 1
		}
		req := &wire.Request{Op: op, Part: g.shard, Txn: txn, Phase: phase, Locks: lockRefs(ops, g)}
		r.DoRetry(ctx, req)
	}
}
