package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/netclient"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

func schemas() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "n", Type: core.TInt},
			{Name: "s", Type: core.TString, Size: 64},
		},
	}}
}

func testRow(key uint64) []core.Value {
	return []core.Value{
		core.IntVal(int64(key)),
		core.IntVal(int64(key)*3 + 1),
		core.StrVal(fmt.Sprintf("s%d", key)),
	}
}

func putReq(key uint64) *wire.Request {
	return &wire.Request{Part: -1, Op: wire.OpPut, Table: "t", Key: key, Row: testRow(key)}
}

func startCluster(t testing.TB, kind testbed.EngineKind, cfg Config) *Cluster {
	t.Helper()
	cfg.Engine = kind
	if cfg.Env.DeviceSize == 0 {
		cfg.Env = core.EnvConfig{DeviceSize: 32 << 20}
	}
	if cfg.Schemas == nil {
		cfg.Schemas = schemas()
	}
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// keysForShard returns n keys that hash-route to the given shard.
func keysForShard(shard, shards, n int, from uint64) []uint64 {
	var out []uint64
	for k := from; len(out) < n; k++ {
		if wire.ShardOf(k, shards) == shard {
			out = append(out, k)
		}
	}
	return out
}

// shardDigests asserts the shard's state is identical on both nodes.
func wantShardDigestEqual(t *testing.T, shard int, a, b *Node) {
	t.Helper()
	da, err := a.DB().PartitionDigest(shard)
	if err != nil {
		t.Fatalf("digest %s shard %d: %v", a.name, shard, err)
	}
	db, err := b.DB().PartitionDigest(shard)
	if err != nil {
		t.Fatalf("digest %s shard %d: %v", b.name, shard, err)
	}
	if da != db {
		t.Fatalf("shard %d digest mismatch: %s=%x %s=%x", shard, a.name, da[:8], b.name, db[:8])
	}
}

// TestClusterBasic drives writes and reads through the router on a healthy
// cluster and asserts replication kept primary and backup digest-identical
// on every shard (Commit is synchronous, so a returned ack means the backup
// already applied).
func TestClusterBasic(t *testing.T) {
	c := startCluster(t, testbed.NVMInP, Config{Shards: 2, Nodes: 3, Seed: 1})
	r := c.Router(netclient.Config{Seed: 1})
	defer r.Close()
	ctx := context.Background()

	const keys = 60
	for k := uint64(0); k < keys; k++ {
		resp, err := r.DoRetry(ctx, putReq(k))
		if err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %v (%s)", k, resp.Status, resp.Msg)
		}
	}
	for k := uint64(0); k < keys; k++ {
		resp, err := r.DoRetry(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: k})
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if resp.Status != wire.StatusOK || !resp.Found {
			t.Fatalf("get %d: %v found=%v", k, resp.Status, resp.Found)
		}
	}
	m := c.Coord.Map()
	for s, route := range m.Shards {
		p, b := c.nodeByAddr(route.Primary), c.nodeByAddr(route.Backup)
		if p == nil || b == nil {
			t.Fatalf("shard %d incomplete route %+v", s, route)
		}
		wantShardDigestEqual(t, s, p, b)
	}
}

// TestBackupRefusesClients pins the Admit discipline: reads and writes
// addressed to a node that is not the shard's primary answer NotPrimary,
// and the router recovers by refreshing its map.
func TestBackupRefusesClients(t *testing.T) {
	c := startCluster(t, testbed.InP, Config{Shards: 1, Nodes: 2, Seed: 2})
	ctx := context.Background()
	backupAddr := c.Coord.Map().Shards[0].Backup
	cl := netclient.New(backupAddr, netclient.Config{Seed: 2})
	defer cl.Close()

	key := keysForShard(0, 1, 1, 0)[0]
	req := putReq(key)
	req.Part = 0
	resp, err := cl.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusNotPrimary {
		t.Fatalf("write to backup: %v, want NotPrimary", resp.Status)
	}
	resp, err = cl.Do(ctx, &wire.Request{Part: 0, Op: wire.OpGet, Table: "t", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusNotPrimary {
		t.Fatalf("read from backup: %v, want NotPrimary", resp.Status)
	}
	// Unpinned requests must be rejected outright: testbed key%parts
	// routing is not cluster placement.
	resp, err = cl.Do(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("unpinned request: %v, want BadRequest", resp.Status)
	}
}

// TestStaleEpochRejection is the fencing regression test: a fenced
// ex-primary's REPL frames are rejected with StatusStaleEpoch, and on
// seeing the rejection the ex-primary stops serving (clients get
// NotPrimary, never an ack).
func TestStaleEpochRejection(t *testing.T) {
	c := startCluster(t, testbed.Log, Config{
		Shards: 1, Nodes: 2, Seed: 3,
		// Leases long enough that the coordinator never interferes; the
		// test drives the failover by hand to keep it deterministic.
		HeartbeatEvery: time.Hour, Lease: 24 * time.Hour,
	})
	ctx := context.Background()
	m := c.Coord.Map()
	oldPrimary := c.nodeByAddr(m.Shards[0].Primary)
	backup := c.nodeByAddr(m.Shards[0].Backup)

	keys := keysForShard(0, 1, 3, 0)
	pcl := netclient.New(oldPrimary.addr, netclient.Config{Seed: 3})
	defer pcl.Close()
	put := func(key uint64) *wire.Response {
		t.Helper()
		req := putReq(key)
		req.Part = 0
		resp, err := pcl.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := put(keys[0]); resp.Status != wire.StatusOK {
		t.Fatalf("pre-fence put: %v (%s)", resp.Status, resp.Msg)
	}

	// Fence: promote the backup at a higher epoch, as the coordinator
	// would after the primary's lease expired. The old primary does not
	// know yet.
	backup.Promote(0, 2)

	// A direct stale REPL frame is rejected.
	bcl := netclient.New(backup.addr, netclient.Config{Seed: 3})
	defer bcl.Close()
	stale := &wire.Request{Op: wire.OpReplAppend, Part: 0, Epoch: 1, Seq: 99,
		Ops: []wire.Request{{Op: wire.OpPut, Table: "t", Key: keys[1], Row: testRow(keys[1])}}}
	resp, err := bcl.Do(ctx, stale)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusStaleEpoch {
		t.Fatalf("stale REPL frame: %v, want StaleEpoch", resp.Status)
	}

	// The ex-primary's next replicated write hits the fence: its ship is
	// rejected, it demotes itself, and the client sees NotPrimary — the
	// write is NEVER acked by the old primary.
	if resp := put(keys[2]); resp.Status != wire.StatusNotPrimary {
		t.Fatalf("write through fenced primary: %v (%s), want NotPrimary", resp.Status, resp.Msg)
	}
	// And it stays demoted for later requests too.
	if resp := put(keys[2]); resp.Status != wire.StatusNotPrimary {
		t.Fatalf("second write after fencing: %v, want NotPrimary", resp.Status)
	}
}

// TestReplayIdempotence ships the same batch twice (the re-send a primary
// issues after an ambiguous drop) and asserts the second ship acks without
// re-applying: digests before and after the replay are identical.
func TestReplayIdempotence(t *testing.T) {
	c := startCluster(t, testbed.NVMLog, Config{
		Shards: 1, Nodes: 2, Seed: 4,
		HeartbeatEvery: time.Hour, Lease: 24 * time.Hour,
	})
	ctx := context.Background()
	m := c.Coord.Map()
	backup := c.nodeByAddr(m.Shards[0].Backup)
	bcl := netclient.New(backup.addr, netclient.Config{Seed: 4})
	defer bcl.Close()

	keys := keysForShard(0, 1, 4, 100)
	batch := &wire.Request{Op: wire.OpReplAppend, Part: 0, Epoch: 1, Seq: 1,
		Ops: []wire.Request{
			{Op: wire.OpPut, Table: "t", Key: keys[0], Row: testRow(keys[0])},
			{Op: wire.OpPut, Table: "t", Key: keys[1], Row: testRow(keys[1])},
			{Op: wire.OpRmw, Table: "t", Key: keys[0], Cols: []wire.RmwCol{
				{Col: 1, Add: true, Val: core.IntVal(5)},
			}},
		}}
	resp, err := bcl.Do(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.Seq != 1 {
		t.Fatalf("first ship: %v seq=%d (%s)", resp.Status, resp.Seq, resp.Msg)
	}
	d1, err := backup.DB().PartitionDigest(0)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the identical batch: must ack OK at the same position and
	// change nothing (an Insert replay would KeyExists, an RMW replay
	// would double the add — idempotence means neither runs).
	resp, err = bcl.Do(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.Seq != 1 {
		t.Fatalf("replayed ship: %v seq=%d (%s)", resp.Status, resp.Seq, resp.Msg)
	}
	d2, err := backup.DB().PartitionDigest(0)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("replay changed state: %x → %x", d1[:8], d2[:8])
	}
	// A gapped batch (seq 3 when the backup sits at 1) is refused.
	gap := *batch
	gap.Seq = 3
	resp, err = bcl.Do(ctx, &gap)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusRetryable {
		t.Fatalf("gapped ship: %v, want Retryable", resp.Status)
	}
}

// TestBackupDropNoAck is the ack-after-replication acceptance test: with
// the backup link dead and the coordinator held off, a write to the shard
// must NEVER be acked — not with OK, and not indirectly with KeyExists
// (which the unique-key idiom reads as an ack). Once the coordinator
// declares the backup dead and clears it from the route, the exact same
// writes succeed, unreplicated but admitted.
func TestBackupDropNoAck(t *testing.T) {
	c := startCluster(t, testbed.CoW, Config{
		Shards: 2, Nodes: 2, Seed: 5,
		HeartbeatEvery: time.Hour, Lease: 24 * time.Hour,
	})
	ctx := context.Background()
	m := c.Coord.Map()

	// Shard 0: primary node0, backup node1. Kill node1 abruptly.
	primary := c.nodeByAddr(m.Shards[0].Primary)
	backup := c.nodeByAddr(m.Shards[0].Backup)
	backup.Kill()

	pcl := netclient.New(primary.addr, netclient.Config{Seed: 5, RetryMax: 4})
	defer pcl.Close()
	keys := keysForShard(0, 2, 5, 0)
	for _, k := range keys {
		req := putReq(k)
		req.Part = 0
		for attempt := 0; attempt < 3; attempt++ {
			resp, err := pcl.Do(ctx, req)
			if err != nil {
				continue // transport-level failure: fine, not an ack
			}
			if resp.Status == wire.StatusOK || resp.Status == wire.StatusKeyExists {
				t.Fatalf("key %d acked (%v) with the backup link dead", k, resp.Status)
			}
			if !resp.Status.Retryable() {
				t.Fatalf("key %d: %v (%s), want a retryable mask", k, resp.Status, resp.Msg)
			}
		}
	}

	// Failover: the coordinator declares the backup dead and clears it;
	// the shard serves unreplicated and the same writes now succeed.
	c.Coord.MarkDead(backup.addr)
	for _, k := range keys {
		req := putReq(k)
		req.Part = 0
		resp, err := pcl.DoRetry(ctx, req)
		if err != nil {
			t.Fatalf("post-failover put %d: %v", k, err)
		}
		// OK or KeyExists both fine now: the earlier attempts committed
		// locally and were masked; with replication formally off, the
		// mask lifts and the state is simply visible.
		if resp.Status != wire.StatusOK && resp.Status != wire.StatusKeyExists {
			t.Fatalf("post-failover put %d: %v (%s)", k, resp.Status, resp.Msg)
		}
	}
}

// TestFailoverPromotesBackup kills a primary under a short lease and waits
// for the coordinator to promote the backup, fence the epoch, re-seed a
// replacement backup on the spare, and leave the cluster serving — with the
// promoted replica and the fresh backup digest-identical. Leases run on the
// test's clock: only the killed node's can expire.
func TestFailoverPromotesBackup(t *testing.T) {
	c := startClockedCluster(t, testbed.NVMCoW, Config{
		Shards: 2, Nodes: 3, Seed: 6,
		HeartbeatEvery: 10 * time.Millisecond, Lease: 80 * time.Millisecond,
	})
	r := c.Router(netclient.Config{Seed: 6, RetryMax: 30, RetryCap: 100 * time.Millisecond})
	defer r.Close()
	ctx := context.Background()

	for k := uint64(0); k < 40; k++ {
		if resp, err := r.DoRetry(ctx, putReq(k)); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("warm put %d: %v %v", k, err, resp)
		}
	}

	m0 := c.Coord.Map()
	victim := c.nodeByAddr(m0.Shards[0].Primary)
	victim.Kill()

	// The router must fail over by itself: keep writing through the kill.
	for k := uint64(1000); k < 1040; k++ {
		resp, err := r.DoRetry(ctx, putReq(k))
		if err != nil {
			t.Fatalf("put %d through failover: %v", k, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("put %d through failover: %v (%s)", k, resp.Status, resp.Msg)
		}
	}

	// Wait for the re-seed to complete: every shard has a primary and a
	// backup again, and none of them is the victim.
	deadline := time.Now().Add(10 * time.Second)
	var m *wire.ShardMap
	for {
		m = c.Coord.Map()
		healed := true
		for _, route := range m.Shards {
			if route.Primary == "" || route.Backup == "" ||
				route.Primary == victim.addr || route.Backup == victim.addr {
				healed = false
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not heal: %+v", m.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m.Shards[0].Epoch <= m0.Shards[0].Epoch {
		t.Fatalf("epoch did not advance on failover: %d -> %d", m0.Shards[0].Epoch, m.Shards[0].Epoch)
	}

	// Every key ever acked is readable.
	check := func(k uint64) {
		t.Helper()
		resp, err := r.DoRetry(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: k})
		if err != nil || resp.Status != wire.StatusOK || !resp.Found {
			t.Fatalf("get %d after failover: err=%v resp=%+v", k, err, resp)
		}
	}
	for k := uint64(0); k < 40; k++ {
		check(k)
	}
	for k := uint64(1000); k < 1040; k++ {
		check(k)
	}

	// Quiesce, then primary and re-seeded backup must agree per shard.
	for s, route := range m.Shards {
		wantShardDigestEqual(t, s, c.nodeByAddr(route.Primary), c.nodeByAddr(route.Backup))
	}
}

// TestClusterHealthz exercises the /healthz satellite: role/epoch/lag lines
// per shard on a healthy node, and a 503 once a shard is fenced.
func TestClusterHealthz(t *testing.T) {
	c := startCluster(t, testbed.InP, Config{
		Shards: 1, Nodes: 2, Seed: 7,
		HeartbeatEvery: time.Hour, Lease: 24 * time.Hour,
	})
	m := c.Coord.Map()
	primary := c.nodeByAddr(m.Shards[0].Primary)
	ms, err := primary.Runtime().StartMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + ms.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get()
	if code != http.StatusOK {
		t.Fatalf("healthy node /healthz = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "shard 0: role=primary epoch=1 lag=0") {
		t.Fatalf("missing shard line:\n%s", body)
	}

	// Fence the shard (map that names this node for nothing) → 503.
	primary.SetMap(&wire.ShardMap{Version: 99, Shards: []wire.ShardRoute{
		{Epoch: 5, Primary: "elsewhere:1", Backup: ""},
	}})
	code, body = get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fenced node /healthz = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "fenced") {
		t.Fatalf("fenced line missing:\n%s", body)
	}
}

// TestRouterRefreshOnNotPrimary checks the router follows a map change it
// was not told about: after a manual failover it re-learns the topology
// from StatusNotPrimary and lands on the new primary.
func TestRouterRefreshOnNotPrimary(t *testing.T) {
	c := startCluster(t, testbed.InP, Config{
		Shards: 1, Nodes: 2, Seed: 8,
		HeartbeatEvery: time.Hour, Lease: 24 * time.Hour,
	})
	r := c.Router(netclient.Config{Seed: 8, RetryMax: 10})
	defer r.Close()
	ctx := context.Background()

	key := keysForShard(0, 1, 1, 0)[0]
	if resp, err := r.DoRetry(ctx, putReq(key)); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("warm put: %v %v", err, resp)
	}

	// Manual failover, bypassing the router entirely.
	c.Coord.MarkDead(c.Coord.Map().Shards[0].Primary)

	key2 := keysForShard(0, 1, 2, 10)[1]
	resp, err := r.DoRetry(ctx, putReq(key2))
	if err != nil {
		t.Fatalf("put after manual failover: %v", err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("put after manual failover: %v (%s)", resp.Status, resp.Msg)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Start(Config{Engine: testbed.InP, Nodes: 1, Shards: 1, Schemas: schemas(),
		Env: core.EnvConfig{DeviceSize: 32 << 20}}); err == nil {
		t.Fatal("single-node cluster must be rejected")
	}
}

// TestClusterBackupKillUnderTraffic: concurrent clients write through the
// router while shard 0's backup dies and a replacement is re-seeded. An ack
// means local durability barrier AND backup REPL_ACK, so at the end every
// acked key must be readable and primary/backup digest equality must hold per
// shard: zero acked-commit loss is the pass condition.
func TestClusterBackupKillUnderTraffic(t *testing.T) {
	seed := enginetest.BaseSeed() + 13
	c := startCluster(t, testbed.NVMInP, Config{
		Shards: 2, Nodes: 3, Seed: seed,
		Serve: serve.Config{Seed: seed},
	})
	r := c.Router(netclient.Config{Seed: seed, RetryMax: 30, RetryCap: 100 * time.Millisecond})
	defer r.Close()
	ctx := context.Background()

	const clients = 4
	nKeys := 60
	if testing.Short() {
		nKeys = 25
	}
	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < nKeys; i++ {
				k := uint64(cl*nKeys + i)
				resp, err := r.DoRetry(ctx, putReq(k))
				if err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
				if resp.Status == wire.StatusOK || resp.Status == wire.StatusKeyExists {
					mu.Lock()
					acked[k] = true
					mu.Unlock()
				}
			}
		}(cl)
	}

	// Mid-traffic: kill shard 0's backup; the coordinator drops it and
	// re-seeds a replacement while the clients keep writing.
	time.Sleep(20 * time.Millisecond)
	m0 := c.Coord.Map()
	victim := c.nodeByAddr(m0.Shards[0].Backup)
	victim.Kill()
	c.Coord.MarkDead(victim.addr)

	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("nothing acked across the whole run")
	}

	// Wait for the replacement backup so digest comparison has a target.
	deadline := time.Now().Add(10 * time.Second)
	var m *wire.ShardMap
	for {
		m = c.Coord.Map()
		healed := true
		for _, route := range m.Shards {
			if route.Primary == "" || route.Backup == "" || route.Backup == victim.addr {
				healed = false
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not heal: %+v", m.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for k := range acked {
		resp, err := r.DoRetry(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: k})
		if err != nil || resp.Status != wire.StatusOK || !resp.Found {
			t.Fatalf("acked key %d unreadable after failover: err=%v resp=%+v", k, err, resp)
		}
	}
	for s, route := range m.Shards {
		wantShardDigestEqual(t, s, c.nodeByAddr(route.Primary), c.nodeByAddr(route.Backup))
	}
}
