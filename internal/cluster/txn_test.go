package cluster

import (
	"context"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
)

// txnSchemas is the test schema plus the hidden 2PC bookkeeping tables —
// what a cluster must carry to accept cross-shard transactions.
func txnSchemas() []*core.Schema { return txn2pc.AugmentSchemas(schemas()) }

func rmwAdd(key uint64, delta int64) wire.Request {
	return wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: key,
		Cols: []wire.RmwCol{{Col: 1, Add: true, Val: core.IntVal(delta)}}}
}

func getVia(t *testing.T, r *netclient.Router, key uint64) (found bool, row []core.Value) {
	t.Helper()
	resp, err := r.DoRetry(context.Background(), &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: key})
	if err != nil {
		t.Fatalf("get %d: %v", key, err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("get %d: %v (%s)", key, resp.Status, resp.Msg)
	}
	return resp.Found, resp.Row
}

// TestClusterCrossShardTxn drives committed and aborted cross-shard
// transactions end to end through the router: puts, RMWs and deletes
// spanning three shards land atomically; a prewrite validation failure on
// any shard aborts the whole frame with nothing applied anywhere; and every
// shard pair stays digest-identical (locks and status records are protocol
// state, excluded from digests).
func TestClusterCrossShardTxn(t *testing.T) {
	c := startCluster(t, testbed.CoW, Config{Shards: 3, Nodes: 4, Seed: 11, Schemas: txnSchemas()})
	r := c.Router(netclient.Config{Seed: 11, RetryMax: 8})
	defer r.Close()
	ctx := context.Background()

	ka := keysForShard(0, 3, 2, 0)
	kb := keysForShard(1, 3, 2, 0)
	kc := keysForShard(2, 3, 2, 0)

	// Three puts, three shards, one transaction.
	resp, err := r.DoTxn(ctx, []wire.Request{*putReq(ka[0]), *putReq(kb[0]), *putReq(kc[0])})
	if err != nil {
		t.Fatalf("cross-shard txn: %v", err)
	}
	if resp.Status != wire.StatusOK || resp.TxnState != wire.TxnCommitted {
		t.Fatalf("cross-shard txn: %v state=%d (%s)", resp.Status, resp.TxnState, resp.Msg)
	}
	for _, k := range []uint64{ka[0], kb[0], kc[0]} {
		if found, _ := getVia(t, r, k); !found {
			t.Fatalf("key %d missing after committed cross-shard txn", k)
		}
	}

	// RMW + delete + put in one frame; the RMW pre-image comes back in Subs.
	resp, err = r.DoTxn(ctx, []wire.Request{
		rmwAdd(ka[0], 5),
		{Part: -1, Op: wire.OpDelete, Table: "t", Key: kb[0]},
		*putReq(kc[1]),
	})
	if err != nil {
		t.Fatalf("mixed txn: %v", err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("mixed txn: %v (%s)", resp.Status, resp.Msg)
	}
	if len(resp.Subs) != 3 || !resp.Subs[0].Found {
		t.Fatalf("mixed txn: want RMW pre-image in Subs[0], got %+v", resp.Subs)
	}
	wantN := int64(ka[0])*3 + 1 + 5
	if found, row := getVia(t, r, ka[0]); !found || row[1].I != wantN {
		t.Fatalf("rmw result: found=%v n=%d want %d", found, row[1].I, wantN)
	}
	if found, _ := getVia(t, r, kb[0]); found {
		t.Fatalf("key %d survived a committed cross-shard delete", kb[0])
	}
	if found, _ := getVia(t, r, kc[1]); !found {
		t.Fatalf("key %d missing after committed cross-shard txn", kc[1])
	}

	// Atomic abort: ka[0] exists, so the put's prewrite fails KeyExists on
	// shard 0 — the fresh key on shard 1 must not appear.
	resp, err = r.DoTxn(ctx, []wire.Request{*putReq(ka[0]), *putReq(kb[1])})
	if err != nil {
		t.Fatalf("conflicting txn: %v", err)
	}
	if resp.Status != wire.StatusKeyExists || resp.TxnState != wire.TxnAborted {
		t.Fatalf("conflicting txn: %v state=%d, want KeyExists/aborted", resp.Status, resp.TxnState)
	}
	if found, _ := getVia(t, r, kb[1]); found {
		t.Fatalf("key %d leaked from an aborted cross-shard txn", kb[1])
	}

	// Replication saw every 2PC op in order: primary and backup digests
	// match per shard.
	m := c.Coord.Map()
	for s, route := range m.Shards {
		wantShardDigestEqual(t, s, c.nodeByAddr(route.Primary), c.nodeByAddr(route.Backup))
	}
}

// TestClusterLockResolution simulates a client that crashed mid-2PC and
// asserts readers resolve its locks the same direction the primary record
// decided: pending-undecided rolls BACK (abort fence), committed-primary
// rolls FORWARD (the secondary applies the buffered write).
func TestClusterLockResolution(t *testing.T) {
	c := startCluster(t, testbed.NVMInP, Config{Shards: 2, Nodes: 3, Seed: 12, Schemas: txnSchemas()})
	r := c.Router(netclient.Config{Seed: 12, RetryMax: 10})
	defer r.Close()
	ctx := context.Background()

	ka := keysForShard(0, 2, 2, 100)
	kb := keysForShard(1, 2, 2, 100)

	// Crash before commit: prewrite both shards, then vanish. The first
	// reader hits the lock, forces resolution through the primary (no
	// decision record -> abort fence), and sees clean state.
	prewrite := func(txn uint64, priKey uint64, priShard int32, shard int32, keys ...uint64) {
		t.Helper()
		ops := make([]wire.Request, len(keys))
		for i, k := range keys {
			ops[i] = *putReq(k)
			ops[i].Part = -1
		}
		resp, err := r.DoRetry(ctx, &wire.Request{
			Op: wire.OpTxnPrewrite, Part: shard, Table: "t", Key: priKey,
			Txn: txn, PriShard: priShard, Ops: ops,
		})
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("prewrite txn %d shard %d: %v %v", txn, shard, err, resp)
		}
	}
	prewrite(501, ka[0], 0, 0, ka[0])
	prewrite(501, ka[0], 0, 1, kb[0])
	if found, _ := getVia(t, r, kb[0]); found {
		t.Fatalf("key %d visible while only prewritten", kb[0])
	}
	// The get above already forced resolution; the abandoned txn must now
	// be fenced aborted — a late commit attempt has to fail.
	resp, err := r.DoRetry(ctx, &wire.Request{
		Op: wire.OpTxnCommit, Part: 0, Txn: 501, Phase: 1,
		Locks: []wire.LockRef{{Table: "t", Key: ka[0]}},
	})
	if err != nil {
		t.Fatalf("late commit: %v", err)
	}
	if resp.Status != wire.StatusAborted {
		t.Fatalf("late commit after forced rollback: %v (%s), want StatusAborted", resp.Status, resp.Msg)
	}
	if found, _ := getVia(t, r, ka[0]); found {
		t.Fatalf("key %d leaked from rolled-back txn", ka[0])
	}

	// Crash after the commit point: prewrite both shards, commit ONLY the
	// primary, then vanish. The reader on the secondary must roll the lock
	// forward and see the committed value.
	prewrite(502, ka[1], 0, 0, ka[1])
	prewrite(502, ka[1], 0, 1, kb[1])
	resp, err = r.DoRetry(ctx, &wire.Request{
		Op: wire.OpTxnCommit, Part: 0, Txn: 502, Phase: 1,
		Locks: []wire.LockRef{{Table: "t", Key: ka[1]}},
	})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("primary commit: %v %v", err, resp)
	}
	if found, _ := getVia(t, r, kb[1]); !found {
		t.Fatalf("key %d not rolled forward after primary commit", kb[1])
	}
	if found, _ := getVia(t, r, ka[1]); !found {
		t.Fatalf("key %d missing on primary shard after commit", ka[1])
	}
}

// TestClusterTxnLockSurvivesFailover is the reason locks ride REPL_APPEND:
// prewrite two shards, commit the primary, kill the secondary shard's
// primary node before roll-forward. The promoted backup must hold the
// replicated lock AND the buffered write, so the next reader still resolves
// the transaction forward — zero acked-commit loss across failover. Leases
// run on the test's clock: only the killed node's can expire.
func TestClusterTxnLockSurvivesFailover(t *testing.T) {
	c := startClockedCluster(t, testbed.NVMCoW, Config{
		Shards: 2, Nodes: 3, Seed: 13, Schemas: txnSchemas(),
		HeartbeatEvery: 10 * time.Millisecond, Lease: 80 * time.Millisecond,
	})
	r := c.Router(netclient.Config{Seed: 13, RetryMax: 30, RetryCap: 100 * time.Millisecond})
	defer r.Close()
	ctx := context.Background()

	ka := keysForShard(0, 2, 1, 300)
	kb := keysForShard(1, 2, 1, 300)

	pw := func(shard int32, key uint64) {
		t.Helper()
		op := *putReq(key)
		resp, err := r.DoRetry(ctx, &wire.Request{
			Op: wire.OpTxnPrewrite, Part: shard, Table: "t", Key: ka[0],
			Txn: 601, PriShard: 0, Ops: []wire.Request{op},
		})
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("prewrite shard %d: %v %v", shard, err, resp)
		}
	}
	pw(0, ka[0])
	pw(1, kb[0])
	resp, err := r.DoRetry(ctx, &wire.Request{
		Op: wire.OpTxnCommit, Part: 0, Txn: 601, Phase: 1,
		Locks: []wire.LockRef{{Table: "t", Key: ka[0]}},
	})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("primary commit: %v %v", err, resp)
	}

	// Kill shard 1's primary before anyone rolls the secondary forward.
	m0 := c.Coord.Map()
	victim := c.nodeByAddr(m0.Shards[1].Primary)
	victim.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := c.Coord.Map()
		if m.Shards[1].Primary != victim.addr && m.Shards[1].Primary != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no failover for shard 1 within deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The promoted backup holds the replicated lock; the read resolves it
	// forward through the (committed) primary record on shard 0.
	if found, row := getVia(t, r, kb[0]); !found || row[0].I != int64(kb[0]) {
		t.Fatalf("acked cross-shard commit lost key %d across failover (found=%v)", kb[0], found)
	}
}
