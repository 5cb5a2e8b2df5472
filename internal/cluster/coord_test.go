package cluster

import (
	"context"
	"testing"
	"time"

	"nstore/internal/netclient"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

// TestReseedRetriesAfterSpareDeath is the regression for the stuck re-seed:
// when the spare chosen for a replacement backup dies mid-seed, the attempt
// fails — and nothing ever retried, because scheduleReseed only fires from
// MarkDead. The shard then ran without a backup indefinitely, one failure
// away from data loss. The coordinator now drops the reseeding flag on every
// exit path and re-seeds backup-less shards from its lease tick, so a later
// tick must pick the remaining spare and seed it to digest equality.
func TestReseedRetriesAfterSpareDeath(t *testing.T) {
	// Heartbeats effectively off: the test drives each coordinator phase by
	// hand so the failure interleaving is deterministic.
	c := startCluster(t, testbed.InP, Config{
		Shards: 1, Nodes: 4, Seed: 9,
		HeartbeatEvery: time.Hour, Lease: 24 * time.Hour,
		ReseedTimeout: 500 * time.Millisecond,
	})
	ctx := context.Background()
	r := c.Router(netclient.Config{Seed: 9, RetryMax: 10})
	defer r.Close()

	for k := uint64(0); k < 30; k++ {
		if resp, err := r.DoRetry(ctx, putReq(k)); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("warm put %d: %v %v", k, err, resp)
		}
	}

	m0 := c.Coord.Map()
	primary := m0.Shards[0].Primary
	backup := c.nodeByAddr(m0.Shards[0].Backup)

	// The spare the coordinator will pick first: the first live non-primary
	// node in cluster order (spareLocked's tie-break with zero backup load).
	var firstSpare *Node
	for _, n := range c.Nodes {
		if n.addr != primary && n.addr != backup.addr {
			firstSpare = n
			break
		}
	}

	// The chosen spare dies "mid-seed": its sockets are already cut when the
	// snapshot stream opens, but the coordinator does not know yet, so the
	// first re-seed attempt targets the corpse and fails.
	firstSpare.Kill()
	backup.Kill()
	c.Coord.MarkDead(backup.addr)

	// Now the coordinator learns the spare is dead too. The shard still has
	// no backup; only the lease-tick repair scan can fix it.
	c.Coord.MarkDead(firstSpare.addr)
	var lastSpare string
	for _, n := range c.Nodes {
		if n.addr != primary && n.addr != backup.addr && n.addr != firstSpare.addr {
			lastSpare = n.addr
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		c.Coord.checkLeases() // one lease tick, driven by hand
		if m := c.Coord.Map(); m.Shards[0].Backup == lastSpare {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-seed never retried after the spare died mid-seed: %+v",
				c.Coord.Map().Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The retried re-seed must have produced a faithful backup, and the
	// shard must be writable throughout.
	for k := uint64(1000); k < 1010; k++ {
		if resp, err := r.DoRetry(ctx, putReq(k)); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("post-repair put %d: %v %v", k, err, resp)
		}
	}
	wantShardDigestEqual(t, 0, c.nodeByAddr(primary), c.nodeByAddr(lastSpare))
}

// TestReseedOfDemotedReplicaTakesSnapshot is the regression for the re-seed
// that could never succeed. A coordinator killed between a re-seed's SnapDone
// and its closing install leaves a spare enrolled on the node side that no
// chosen map lists; its successor's first install (Backup "") demotes the
// spare, which keeps its epoch and seq. The probe reported them, the primary
// — same epoch, tail covering — chose log catch-up, and the demoted spare
// refused every REPL_APPEND: the repair scan retried the same refusal at
// every tick and the shard stayed without a backup (the coordinator-kill
// soak's "did not heal"). A replica that is not enrolled reports no position.
func TestReseedOfDemotedReplicaTakesSnapshot(t *testing.T) {
	c := startCluster(t, testbed.InP, Config{
		Shards: 1, Nodes: 2, Seed: 11,
		HeartbeatEvery: time.Hour, Lease: 24 * time.Hour,
	})
	ctx := context.Background()
	r := c.Router(netclient.Config{Seed: 11, RetryMax: 10})
	defer r.Close()
	for k := uint64(0); k < 20; k++ {
		if resp, err := r.DoRetry(ctx, putReq(k)); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("warm put %d: %v %v", k, err, resp)
		}
	}
	m := c.Coord.Map()
	primary, backup := c.nodeByAddr(m.Shards[0].Primary), c.nodeByAddr(m.Shards[0].Backup)

	// The successor's first install: the shard has no backup.
	m.Version++
	m.Shards[0].Backup = ""
	primary.SetMap(m)
	backup.SetMap(m)
	for k := uint64(20); k < 25; k++ { // served unreplicated; the tail covers
		if resp, err := r.DoRetry(ctx, putReq(k)); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("unreplicated put %d: %v %v", k, err, resp)
		}
	}

	if err := primary.Reseed(ctx, 0, backup.addr); err != nil {
		t.Fatalf("re-seed of a demoted replica: %v", err)
	}
	wantShardDigestEqual(t, 0, primary, backup)
}
