package enginetest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nstore/internal/core"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
)

// crossSchema is the battery's user table; AugmentSchemas adds the hidden
// lock and status tables the protocol needs.
func crossSchema() []*core.Schema {
	return []*core.Schema{{
		Name: "acct",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "bal", Type: core.TInt},
			{Name: "note", Type: core.TString, Size: 64},
		},
	}}
}

func acctRow(key uint64, bal int64) []core.Value {
	return []core.Value{core.IntVal(int64(key)), core.IntVal(bal),
		core.StrVal(fmt.Sprintf("acct-%d", key))}
}

// crash phases, named after the boundary the client dies on.
const (
	xsPhaseNone = iota // runs to completion
	xsPhasePrePrewrite
	xsPhaseMidPrewrite      // some shards prewritten, some not
	xsPhasePreCommit        // all prewritten, commit point never reached
	xsPhasePostPrimary      // primary committed: ACKED, secondaries orphaned
	xsPhaseMidSecondary     // acked, some secondaries settled, some orphaned
	xsPhaseCount            // number of phases above
	xsTxnsPerSchedule   = 8 // transactions per seeded schedule
)

// RunCrossShardConformance is the cross-shard atomicity battery: each schedule
// builds 2-3 independent engine instances ("shards"), drives percolator-style
// 2PC transactions across them through txn2pc directly, and crashes the CLIENT
// at every 2PC phase boundary. Then every shard takes a power cut and reopens,
// a recovery sweep resolves the orphaned locks the way a reader would —
// through the primary shard's status record — and a transaction must be
// visible on ALL of its shards or NONE of them, an acked commit on all.
func RunCrossShardConformance(t *testing.T, f Factory) {
	t.Helper()
	runSchedules(t, func(seed int64) error { return crossShardSchedule(f, seed) })
}

// xsTxnRecord tracks one transaction's fate for the post-recovery audit.
type xsTxnRecord struct {
	txn      uint64
	acked    bool // primary commit landed before the client died
	touched  bool // at least one prewrite was issued
	priShard int
}

func crossShardSchedule(f Factory, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	nshards := 2 + int(uint64(seed)%2)
	schemas := txn2pc.AugmentSchemas(crossSchema())

	envs := make([]*core.Env, nshards)
	engines := make([]core.Engine, nshards)
	committed := make([]model, nshards)
	nextKey := make([]uint64, nshards)
	for s := 0; s < nshards; s++ {
		envs[s] = scheduleEnv()
		e, err := f.New(envs[s], schemas, scheduleOpts)
		if err != nil {
			return fmt.Errorf("shard %d: New: %w", s, err)
		}
		engines[s] = e
		committed[s] = model{"acct": {}}
		nextKey[s] = uint64(s) + 1
	}

	var records []xsTxnRecord
	for t := 0; t < xsTxnsPerSchedule; t++ {
		txn := uint64(1000 + t)
		phase := xsPhaseNone
		if r := rng.Intn(2 * xsPhaseCount); r < xsPhaseCount {
			phase = r // half the txns crash, uniformly over the boundaries
		}
		rec, err := runCrossShardTxn(rng, engines, committed, nextKey, nshards, txn, phase)
		if err != nil {
			return fmt.Errorf("txn %d (phase %d): %w", txn, phase, err)
		}
		records = append(records, rec)
	}

	// Power cut on every shard, then recovery.
	for s := 0; s < nshards; s++ {
		var err error
		if engines[s], err = crashOpen(f, envs[s], schemas, scheduleOpts); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}

	// Recovery sweep: resolve every orphaned lock through its primary.
	for s := 0; s < nshards; s++ {
		orphans, err := txn2pc.OrphanLocks(engines[s], schemas)
		if err != nil {
			return fmt.Errorf("shard %d: orphan scan: %w", s, err)
		}
		for _, locks := range orphans {
			for _, le := range locks {
				if err := resolveCrossShard(engines, s, le); err != nil {
					return fmt.Errorf("shard %d: resolving %v: %w", s, le, err)
				}
			}
		}
	}

	// All-or-nothing: every shard's visible state equals the model built from
	// acked transactions only; nothing from an unacked transaction leaked,
	// nothing from an acked one is missing. The sweep left no locks behind,
	// and the shard stays usable.
	for s := 0; s < nshards; s++ {
		if err := checkModel(engines[s], crossSchema(), committed[s]); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		left, err := txn2pc.OrphanLocks(engines[s], schemas)
		if err != nil {
			return err
		}
		if len(left) != 0 {
			return fmt.Errorf("shard %d: %d transactions still hold locks after resolution", s, len(left))
		}
		if err := probe(engines[s], "acct", acctRow(probeKey, 1)); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}

	// The primary record is the ground truth the resolution followed: acked
	// transactions read committed, crashed-before-commit ones read aborted.
	for _, rec := range records {
		if !rec.touched {
			continue
		}
		st, err := txn2pc.State(engines[rec.priShard], rec.txn)
		if err != nil {
			return err
		}
		if rec.acked && st != wire.TxnCommitted {
			return fmt.Errorf("acked txn %d: primary state %d, want committed", rec.txn, st)
		}
		if !rec.acked && st == wire.TxnCommitted {
			return fmt.Errorf("unacked txn %d surfaced as committed", rec.txn)
		}
	}

	return nil
}

// runCrossShardTxn drives one 2PC transaction up to its crash phase,
// resolving any orphan lock it trips over exactly the way a live reader
// would. The committed model is updated the moment the transaction is acked
// (primary commit durable) — even when secondaries are still orphaned,
// because resolution MUST roll them forward.
func runCrossShardTxn(rng *rand.Rand, engines []core.Engine, committed []model, nextKey []uint64,
	nshards int, txn uint64, phase int) (xsTxnRecord, error) {
	rec := xsTxnRecord{txn: txn}
	if phase == xsPhasePrePrewrite {
		return rec, nil // the client died before doing anything
	}

	// Span 2..nshards shards in random order; the first is the primary.
	span := rng.Perm(nshards)
	width := 2
	if nshards > 2 && rng.Intn(2) == 0 {
		width = 3
	}
	span = span[:width]

	type group struct {
		shard int
		subs  []wire.Request
		apply []func()
		refs  []wire.LockRef
	}
	groups := make([]group, 0, width)
	for _, s := range span {
		g := group{shard: s}
		for o := 0; o < 1+rng.Intn(2); o++ {
			// Sorted: map order would make a -seed replay diverge.
			acct := committed[s]["acct"]
			keys := make([]uint64, 0, len(acct))
			for k := range acct {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			switch {
			case len(keys) > 0 && rng.Intn(3) == 0: // RMW an acked row
				k := keys[rng.Intn(len(keys))]
				if inRefs(g.refs, k) {
					continue
				}
				delta := int64(rng.Intn(100))
				g.subs = append(g.subs, wire.Request{Op: wire.OpRmw, Table: "acct", Key: k,
					Cols: []wire.RmwCol{{Col: 1, Add: true, Val: core.IntVal(delta)}}})
				g.apply = append(g.apply, func() { acct[k][1].I += delta })
			case len(keys) > 0 && rng.Intn(4) == 0: // delete an acked row
				k := keys[rng.Intn(len(keys))]
				if inRefs(g.refs, k) {
					continue
				}
				g.subs = append(g.subs, wire.Request{Op: wire.OpDelete, Table: "acct", Key: k})
				g.apply = append(g.apply, func() { delete(acct, k) })
			default: // insert a fresh row
				k := nextKey[s]
				nextKey[s] += uint64(nshards)
				row := acctRow(k, int64(rng.Intn(1000)))
				g.subs = append(g.subs, wire.Request{Op: wire.OpPut, Table: "acct", Key: k, Row: core.CloneRow(row)})
				g.apply = append(g.apply, func() { acct[k] = core.CloneRow(row) })
			}
			g.refs = append(g.refs, wire.LockRef{Table: "acct", Key: g.subs[len(g.subs)-1].Key})
		}
		groups = append(groups, g)
	}
	primary := groups[0]
	rec.priShard = primary.shard

	prewrite := func(g group) error {
		req := &wire.Request{Op: wire.OpTxnPrewrite, Txn: txn,
			PriShard: int32(primary.shard), Table: "acct", Key: primary.subs[0].Key,
			Ops: g.subs}
		for attempt := 0; ; attempt++ {
			err := txn2pc.Run(engines[g.shard], func() error {
				return txn2pc.Prewrite(engines[g.shard], req)
			})
			le := txn2pc.AsLocked(err)
			if le == nil || attempt >= 4 {
				return err
			}
			// Orphan from an earlier crashed client: resolve and retry,
			// exactly the serving path's reader behavior.
			if err := resolveCrossShard(engines, g.shard, le); err != nil {
				return err
			}
		}
	}

	// Phase 1: prewrites, possibly dying between them.
	limit := len(groups)
	if phase == xsPhaseMidPrewrite {
		limit = 1 + rng.Intn(len(groups)) // at least the primary, maybe all
	}
	for i := 0; i < limit; i++ {
		if err := prewrite(groups[i]); err != nil {
			return rec, fmt.Errorf("prewrite shard %d: %w", groups[i].shard, err)
		}
		rec.touched = true
	}
	if phase == xsPhaseMidPrewrite || phase == xsPhasePreCommit {
		return rec, nil
	}

	// Phase 2: the primary commit IS the ack.
	pe := engines[primary.shard]
	if err := txn2pc.Run(pe, func() error {
		return txn2pc.Commit(pe, txn, true, primary.refs)
	}); err != nil {
		return rec, fmt.Errorf("primary commit: %w", err)
	}
	rec.acked = true
	for _, g := range groups {
		for _, fn := range g.apply {
			fn()
		}
	}
	if phase == xsPhasePostPrimary {
		return rec, nil
	}
	limit = len(groups)
	if phase == xsPhaseMidSecondary {
		limit = 1 + rng.Intn(len(groups)-1) // settle some secondaries, not all
	}
	for i := 1; i < limit; i++ {
		g := groups[i]
		e := engines[g.shard]
		if err := txn2pc.Run(e, func() error {
			return txn2pc.Commit(e, txn, false, g.refs)
		}); err != nil {
			return rec, fmt.Errorf("secondary commit shard %d: %w", g.shard, err)
		}
	}
	return rec, nil
}

// resolveCrossShard settles one orphaned lock held on engines[shard]: ask the
// primary shard for the transaction's fate (forcing a rollback if it is still
// undecided — the owning client is gone), then roll this lock the SAME
// direction. The direction-agreement is the property satellite tests shrink
// against: a resolver that guesses differently from the primary record
// manufactures a partial commit.
func resolveCrossShard(engines []core.Engine, shard int, le *txn2pc.LockedError) error {
	if int(le.PriShard) < 0 || int(le.PriShard) >= len(engines) {
		return fmt.Errorf("lock names out-of-range primary shard %d", le.PriShard)
	}
	pri := engines[le.PriShard]
	var verdict byte
	if err := txn2pc.Run(pri, func() error {
		v, err := txn2pc.Resolve(pri, le.Txn, le.PriTable, le.PriKey, true)
		verdict = v
		return err
	}); err != nil {
		return fmt.Errorf("resolve txn %d on primary shard %d: %w", le.Txn, le.PriShard, err)
	}
	e := engines[shard]
	refs := []wire.LockRef{{Table: le.Table, Key: le.Key}}
	if verdict == wire.TxnCommitted {
		return txn2pc.Run(e, func() error { return txn2pc.Commit(e, le.Txn, false, refs) })
	}
	return txn2pc.Run(e, func() error { return txn2pc.Abort(e, le.Txn, false, refs) })
}

// inRefs reports whether key is already targeted by this group.
func inRefs(refs []wire.LockRef, key uint64) bool {
	return slices.ContainsFunc(refs, func(r wire.LockRef) bool { return r.Key == key })
}
