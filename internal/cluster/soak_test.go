package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/netclient"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

// TestClusterNodeKillSoak is the replicated acked-commit contract, end to
// end and replayable from -seed: six engines, three nodes, two shards,
// concurrent unique-key inserts through the shard router, and a SIGKILL of
// shard 0's primary (listener and every connection cut mid-frame, nothing
// flushed) once a third of the schedule has acked. The cluster must fail
// over by itself — promote the backup, fence the old epoch, re-seed a
// replacement — while the workers keep writing through the blackout.
//
// The acceptance bar is zero acked-commit loss and zero divergence: every
// key the schedule acked is readable afterwards, every shard's primary and
// backup are digest-identical, and both match an in-process oracle that
// applied the same schedule to a plain testbed DB. Then the promoted node
// is power-cycled (Crash + Recover) and its shards must still match the
// oracle — what replication acked, local durability also kept.
//
// The schedule is unique-key inserts with key-derived rows, so the one
// ambiguity a kill leaves (did my insert commit before the cut?) resolves
// exactly: a retry answered KeyExists IS the earlier ack.
func TestClusterNodeKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("node-kill soak is a nightly test")
	}
	for _, kind := range testbed.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			clusterSoakOne(t, kind, enginetest.BaseSeed())
		})
	}
}

const (
	clusterSoakShards  = 2
	clusterSoakNodes   = 3
	clusterSoakKeys    = 180
	clusterSoakWorkers = 6
)

// soakClock is the coordinator's clock, owned by the soak. It stands still
// until the latest heartbeat of every live node carries its current reading,
// then moves on by 0.6 of a lease. A killed node stops stamping, is two steps
// — 1.2 leases — stale after two rounds of heartbeats, and expires; a live
// node is never more than one step stale, however long a loaded box starves
// its heartbeat goroutine, so no lease expires by accident — which an 80 ms
// lease on wall time can, under -race on two cores.
type soakClock struct {
	mu sync.Mutex
	t  time.Time
}

func (k *soakClock) now() time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.t
}

// drive steps the clock until stop closes. It reads the heartbeats of
// whichever coordinator is current: a killed one still records them, so time
// does not stop between a coordinator's death and its standby's takeover.
func (k *soakClock) drive(c *Cluster, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
		now, current := k.now(), true
		co := c.Coordinator()
		co.mu.Lock()
		for _, n := range c.Nodes {
			if !n.dead.Load() && co.lastHB[n.addr].Before(now) {
				current = false
			}
		}
		co.mu.Unlock()
		if current {
			k.mu.Lock()
			k.t = k.t.Add(c.cfg.Lease * 6 / 10)
			k.mu.Unlock()
		}
	}
}

// startClockedCluster starts a cluster whose leases are judged by a
// soakClock the test owns, not by wall time.
func startClockedCluster(t *testing.T, kind testbed.EngineKind, cfg Config) *Cluster {
	clock := &soakClock{t: time.Unix(0, 0)}
	cfg.now = clock.now
	c := startCluster(t, kind, cfg)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		clock.drive(c, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	return c
}

// startSoakCluster starts the cluster both kill soaks run on.
func startSoakCluster(t *testing.T, kind testbed.EngineKind, seed int64) *Cluster {
	return startClockedCluster(t, kind, Config{
		Shards: clusterSoakShards, Nodes: clusterSoakNodes, Seed: seed,
		HeartbeatEvery: 10 * time.Millisecond,
		Lease:          80 * time.Millisecond,
		Options:        core.Options{GroupCommitSize: 4},
	})
}

func clusterSoakOne(t *testing.T, kind testbed.EngineKind, seed int64) {
	c := startSoakCluster(t, kind, seed)
	r := c.Router(netclient.Config{
		Conns:     2,
		Seed:      seed,
		RetryMax:  30,
		RetryBase: time.Millisecond,
		RetryCap:  50 * time.Millisecond,
	})
	defer r.Close()
	ctx := context.Background()

	// The kill fires once a third of the schedule has acked: whoever is
	// shard 0's primary at that moment dies abruptly.
	var acked atomic.Int64
	var killOnce sync.Once
	killTrigger := make(chan struct{})
	victimCh := make(chan *Node, 1)
	go func() {
		<-killTrigger
		victim := c.nodeByAddr(c.Coord.Map().Shards[0].Primary)
		victim.Kill()
		victimCh <- victim
	}()

	var wg sync.WaitGroup
	workerErr := make(chan error, clusterSoakWorkers)
	for w := 0; w < clusterSoakWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for key := uint64(w); key < clusterSoakKeys; key += clusterSoakWorkers {
				if err := clusterSoakPut(ctx, r, key); err != nil {
					workerErr <- fmt.Errorf("key %d: %w", key, err)
					return
				}
				if n := acked.Add(1); n == clusterSoakKeys/3 {
					killOnce.Do(func() { close(killTrigger) })
				}
			}
		}(w)
	}
	wg.Wait()
	close(workerErr)
	for err := range workerErr {
		t.Fatal(err)
	}
	killOnce.Do(func() { close(killTrigger) }) // tiny schedules: kill anyway
	victim := <-victimCh

	// Wait for the heal: every shard routed to a live primary AND a live
	// re-seeded backup, none of them the victim.
	deadline := time.Now().Add(30 * time.Second)
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
			t.Fatalf("cluster did not heal after the kill: %+v", m.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zero acked-commit loss over the wire: every key of the schedule is
	// readable through the router with its exact row.
	for key := uint64(0); key < clusterSoakKeys; key++ {
		resp, err := r.DoRetry(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: key})
		if err != nil {
			t.Fatalf("get %d after heal: %v", key, err)
		}
		if resp.Status != wire.StatusOK || !resp.Found {
			t.Fatalf("acked key %d missing after failover: %v found=%v (%s)", key, resp.Status, resp.Found, resp.Msg)
		}
		if resp.Row[1].I != int64(key)*3+1 {
			t.Fatalf("acked key %d corrupted: %+v", key, resp.Row)
		}
	}

	// In-process oracle: the same schedule applied to a plain testbed DB,
	// keys placed by the same shard hash. Replication, the kill, the
	// failover and the re-seed must all be invisible in the final state.
	ref, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: clusterSoakShards,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: 1},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	perPart := make([][]testbed.Txn, clusterSoakShards)
	for key := uint64(0); key < clusterSoakKeys; key++ {
		key := key
		s := wire.ShardOf(key, clusterSoakShards)
		perPart[s] = append(perPart[s], func(e core.Engine) error {
			return e.Insert("t", key, testRow(key))
		})
	}
	if _, err := ref.ExecuteSequential(perPart); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	oracle := make([][32]byte, clusterSoakShards)
	for s := 0; s < clusterSoakShards; s++ {
		if oracle[s], err = ref.PartitionDigest(s); err != nil {
			t.Fatal(err)
		}
	}

	// Per-shard digest equality: primary == backup == oracle.
	for s, route := range m.Shards {
		p, b := c.nodeByAddr(route.Primary), c.nodeByAddr(route.Backup)
		wantShardDigestEqual(t, s, p, b)
		dp, err := p.DB().PartitionDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		if dp != oracle[s] {
			t.Fatalf("shard %d diverged from the in-process oracle:\n  cluster %x\n  oracle  %x", s, dp[:8], oracle[s][:8])
		}
	}

	// Power-cycle drill on the promoted node: shut the cluster down
	// gracefully (the t.Cleanup close is idempotent), cut power to the node
	// that took over shard 0, recover it, and its shards must still match
	// the oracle — the replicated acks were also locally durable.
	promoted := c.nodeByAddr(m.Shards[0].Primary)
	c.Close()
	promoted.DB().Crash()
	if _, err := promoted.DB().Recover(); err != nil {
		t.Fatalf("promoted node recovery: %v", err)
	}
	for s, route := range m.Shards {
		if route.Primary != promoted.addr && route.Backup != promoted.addr {
			continue
		}
		d, err := promoted.DB().PartitionDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		if d != oracle[s] {
			t.Fatalf("shard %d on the promoted node lost state across a power cycle:\n  recovered %x\n  oracle    %x", s, d[:8], oracle[s][:8])
		}
	}
	t.Logf("%s: %d keys acked through a node kill; victim=%s promoted=%s epoch=%d",
		kind, clusterSoakKeys, victim.name, promoted.name, m.Shards[0].Epoch)
}

// clusterSoakPut lands one unique-key insert definitively through the
// router: it loops until the insert is acked, treating KeyExists on a retry
// as the ack a killed primary swallowed. Transport errors (including a whole
// failover blackout) are retried; any other terminal status fails the soak.
func clusterSoakPut(ctx context.Context, r *netclient.Router, key uint64) error {
	var last error
	for round := 0; round < 60; round++ {
		resp, err := r.DoRetry(ctx, putReq(key))
		if err != nil {
			last = err // blackout mid-failover: back off and go again
			time.Sleep(10 * time.Millisecond)
			continue
		}
		switch resp.Status {
		case wire.StatusOK, wire.StatusKeyExists:
			return nil
		default:
			return &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
		}
	}
	return fmt.Errorf("never acked: %w", last)
}

// TestClusterCoordKillSoak is the consensus register's reason to exist: the
// coordinator itself dies at the worst moments. Per engine: concurrent
// unique-key inserts, then shard 0's primary is SIGKILLed and the
// coordinator is killed right behind it — BEFORE the lease expires, so the
// failover hasn't started. A standby coordinator must win the register at a
// higher ballot, adopt the last chosen map, detect the dead node and run the
// whole failover itself. If the standby's re-seed window is observed open
// (Reseeding=true in the map), the standby is killed too — mid-re-seed —
// and a third coordinator takes over, reopening the window it now owns.
//
// Acceptance: the final map is healed (live primary AND backup per shard,
// no Reseeding flags), every live node learned the same map version (the
// quorum converged), zero acked-commit loss through the whole circus, and
// per-shard digests equal primary == backup == in-process oracle.
func TestClusterCoordKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("coordinator-kill soak is a nightly test")
	}
	for _, kind := range testbed.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			coordKillSoakOne(t, kind, enginetest.BaseSeed())
		})
	}
}

func coordKillSoakOne(t *testing.T, kind testbed.EngineKind, seed int64) {
	c := startSoakCluster(t, kind, seed)
	r := c.Router(netclient.Config{
		Conns:     2,
		Seed:      seed,
		RetryMax:  40,
		RetryBase: time.Millisecond,
		RetryCap:  50 * time.Millisecond,
	})
	defer r.Close()
	ctx := context.Background()

	var acked atomic.Int64
	var killOnce sync.Once
	killTrigger := make(chan struct{})
	victimCh := make(chan *Node, 1)
	chaosErr := make(chan error, 1)
	go func() {
		<-killTrigger
		victim := c.nodeByAddr(c.Coordinator().Map().Shards[0].Primary)
		victim.Kill()
		// Mid-failover: the lease has not expired (that takes two rounds of
		// heartbeats on the soak's clock); the coordinator dies knowing
		// nothing. The standby must discover the dead node.
		c.KillCoordinator()
		time.Sleep(20 * time.Millisecond)
		if _, err := c.StartStandbyCoordinator(); err != nil {
			chaosErr <- fmt.Errorf("standby takeover: %w", err)
			victimCh <- victim
			return
		}
		// Mid-re-seed: the moment a re-seed window is open in the map, kill
		// the standby too and hand over to a third coordinator. If the heal
		// outruns the poll, the takeover is exercised on a quiet map — still
		// a valid (if easier) handover.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			m := c.Coordinator().Map()
			reseeding := false
			for _, route := range m.Shards {
				if route.Reseeding {
					reseeding = true
				}
			}
			if reseeding {
				break
			}
			time.Sleep(time.Millisecond)
		}
		c.KillCoordinator()
		if _, err := c.StartStandbyCoordinator(); err != nil {
			chaosErr <- fmt.Errorf("second standby takeover: %w", err)
		}
		victimCh <- victim
	}()

	var wg sync.WaitGroup
	workerErr := make(chan error, clusterSoakWorkers)
	for w := 0; w < clusterSoakWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for key := uint64(w); key < clusterSoakKeys; key += clusterSoakWorkers {
				if err := clusterSoakPut(ctx, r, key); err != nil {
					workerErr <- fmt.Errorf("key %d: %w", key, err)
					return
				}
				if n := acked.Add(1); n == clusterSoakKeys/3 {
					killOnce.Do(func() { close(killTrigger) })
				}
			}
		}(w)
	}
	wg.Wait()
	close(workerErr)
	for err := range workerErr {
		t.Fatal(err)
	}
	killOnce.Do(func() { close(killTrigger) })
	victim := <-victimCh
	select {
	case err := <-chaosErr:
		t.Fatal(err)
	default:
	}

	// Heal: live primary and re-seeded backup per shard, all windows closed.
	deadline := time.Now().Add(30 * time.Second)
	var m *wire.ShardMap
	for {
		m = c.Coordinator().Map()
		healed := true
		for _, route := range m.Shards {
			if route.Primary == "" || route.Backup == "" || route.Reseeding ||
				route.Primary == victim.addr || route.Backup == victim.addr {
				healed = false
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not heal after coordinator kills: %+v", m.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Quorum convergence: every live node learned the final map version.
	for _, n := range c.Nodes {
		if n.dead.Load() {
			continue
		}
		nm := n.smap.Load()
		if nm == nil || nm.Version < m.Version {
			t.Fatalf("node %s stuck at map version %v, coordinator at %d",
				n.name, nm, m.Version)
		}
	}

	// Zero acked-commit loss across two coordinator deaths.
	for key := uint64(0); key < clusterSoakKeys; key++ {
		resp, err := r.DoRetry(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: key})
		if err != nil {
			t.Fatalf("get %d after heal: %v", key, err)
		}
		if resp.Status != wire.StatusOK || !resp.Found {
			t.Fatalf("acked key %d missing: %v found=%v (%s)", key, resp.Status, resp.Found, resp.Msg)
		}
	}

	// Oracle comparison, same as the node-kill soak.
	ref, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: clusterSoakShards,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: 1},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	perPart := make([][]testbed.Txn, clusterSoakShards)
	for key := uint64(0); key < clusterSoakKeys; key++ {
		key := key
		s := wire.ShardOf(key, clusterSoakShards)
		perPart[s] = append(perPart[s], func(e core.Engine) error {
			return e.Insert("t", key, testRow(key))
		})
	}
	if _, err := ref.ExecuteSequential(perPart); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	for s, route := range m.Shards {
		p, b := c.nodeByAddr(route.Primary), c.nodeByAddr(route.Backup)
		wantShardDigestEqual(t, s, p, b)
		oracle, err := ref.PartitionDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := p.DB().PartitionDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		if dp != oracle {
			t.Fatalf("shard %d diverged from the oracle after coordinator kills:\n  cluster %x\n  oracle  %x",
				s, dp[:8], oracle[:8])
		}
	}
	t.Logf("%s: %d keys acked through a node kill + two coordinator kills; final map v%d epoch=%d",
		kind, clusterSoakKeys, m.Version, m.Shards[0].Epoch)
}
