package cluster

import (
	"context"
	"sync"
	"time"

	"nstore/internal/wire"
)

// Coordinator is the in-process placement service: it owns the shard map,
// tracks node leases from heartbeats, promotes backups when a primary's
// lease expires, and re-seeds replacement backups. One goroutine checks
// leases; re-seeds run in their own goroutines because a snapshot can take
// a while and must not block failure detection.
//
// The coordinator process itself is disposable: every map install goes
// through the consensus register spread across the nodes (see consensus.go),
// so a standby coordinator can win the register at a higher ballot, adopt
// the last accepted map, and finish an interrupted failover or re-seed. The
// replication protocol still never trusts the coordinator blindly: epochs
// fence deposed primaries even if a coordinator misbehaves (DESIGN.md §11).
type Coordinator struct {
	c *Cluster

	mu     sync.Mutex
	m      *wire.ShardMap
	lastHB map[string]time.Time
	dead   map[string]bool
	// reseeding guards one in-flight re-seed per shard.
	reseeding map[int]bool
	// ballot is this coordinator's prepared proposer ballot; deposed is set
	// the moment any acceptor reveals a newer proposer, after which this
	// coordinator must never decide anything again.
	ballot  uint64
	deposed bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newCoordinator(c *Cluster) *Coordinator {
	return &Coordinator{
		c:         c,
		lastHB:    make(map[string]time.Time),
		dead:      make(map[string]bool),
		reseeding: make(map[int]bool),
		stop:      make(chan struct{}),
	}
}

// Heartbeat records a node's liveness report (called in-process by the
// node's heartbeat loop).
func (co *Coordinator) Heartbeat(addr string) {
	co.mu.Lock()
	if !co.dead[addr] {
		co.lastHB[addr] = co.c.cfg.now()
	}
	co.mu.Unlock()
}

// Map returns the coordinator's current shard map.
func (co *Coordinator) Map() *wire.ShardMap {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.m.Clone()
}

// currentBallot reads the coordinator's proposer ballot (a standby starts
// its bidding from here).
func (co *Coordinator) currentBallot() uint64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ballot
}

// install publishes a new map version through the consensus register: the
// version is chosen only once a majority of acceptors stored it, then every
// live node learns it. A deposed coordinator's install silently does
// nothing — the newer proposer owns placement now. Caller holds co.mu.
func (co *Coordinator) installLocked() {
	co.m.Version++
	co.proposeLocked(co.m.Clone())
}

// run is the lease checker.
func (co *Coordinator) run() {
	defer co.wg.Done()
	t := time.NewTicker(co.c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
			co.checkLeases()
		}
	}
}

func (co *Coordinator) checkLeases() {
	co.mu.Lock()
	if co.deposed {
		co.mu.Unlock()
		return
	}
	now := co.c.cfg.now()
	var expired []string
	for addr, last := range co.lastHB {
		if !co.dead[addr] && now.Sub(last) > co.c.cfg.Lease {
			expired = append(expired, addr)
		}
	}
	co.mu.Unlock()
	for _, addr := range expired {
		co.MarkDead(addr)
	}

	// Repair scan: a shard can be left running without a backup when a
	// re-seed failed (snapshot stream error, spare died mid-seed) or no
	// spare was available at failover time. Nothing else would ever retry —
	// scheduleReseed only fires from MarkDead — so the shard would stay
	// one failure away from data loss forever. Re-seeds are guarded by the
	// reseeding flag and pick a fresh spare each attempt, so retrying every
	// lease tick is safe and gives failed re-seeds built-in pacing.
	co.mu.Lock()
	var repair []int
	for i := range co.m.Shards {
		r := &co.m.Shards[i]
		if r.Primary != "" && r.Backup == "" && !co.reseeding[i] {
			repair = append(repair, i)
		}
	}
	co.mu.Unlock()
	for _, shard := range repair {
		co.scheduleReseed(shard)
	}
}

// MarkDead declares a node failed and runs failover for every shard it
// touched: a primary's backup is promoted at a bumped epoch (fencing the
// old primary), a dead backup is simply dropped; either way a replacement
// backup is re-seeded on a spare node.
func (co *Coordinator) MarkDead(addr string) {
	co.mu.Lock()
	if co.dead[addr] || co.deposed {
		co.mu.Unlock()
		return
	}
	co.dead[addr] = true
	var reseed []int
	changed := false
	for i := range co.m.Shards {
		r := &co.m.Shards[i]
		switch addr {
		case r.Primary:
			changed = true
			r.Epoch++
			r.Primary, r.Backup = r.Backup, ""
			if r.Primary != "" {
				if n := co.c.nodeByAddr(r.Primary); n != nil {
					n.Promote(i, r.Epoch)
				}
				reseed = append(reseed, i)
			}
		case r.Backup:
			changed = true
			r.Backup = ""
			reseed = append(reseed, i)
		}
	}
	if changed {
		co.installLocked()
	}
	co.mu.Unlock()
	for _, shard := range reseed {
		co.scheduleReseed(shard)
	}
}

// scheduleReseed starts (at most one per shard) a background re-seed of a
// replacement backup.
func (co *Coordinator) scheduleReseed(shard int) {
	co.mu.Lock()
	if co.reseeding[shard] || co.deposed {
		co.mu.Unlock()
		return
	}
	primary := co.m.Shards[shard].Primary
	spare := co.spareLocked(shard)
	if primary == "" || spare == "" {
		co.mu.Unlock()
		return // nowhere to seed from, or to
	}
	co.reseeding[shard] = true
	// Open the enrollment window in the map itself before the re-seed RPC
	// is dispatched. SnapDone enrolls the spare as backup on the node side
	// before this goroutine can record it in the map, and OTHER shards'
	// failover installs run concurrently — without the flag, any map built
	// in that window lists Backup="" for this shard and SetMap would demote
	// the just-enrolled backup (and strip s.backup off the primary),
	// leaving the shard serving unreplicated behind a map that claims a
	// live backup. The flag tells every node to leave this shard's
	// replication state alone until the closing install.
	co.m.Shards[shard].Reseeding = true
	co.installLocked()
	co.mu.Unlock()

	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		// The flag must drop on EVERY exit path — a failed snapshot stream,
		// a spare that died mid-seed, even a panicking Reseed. A stuck flag
		// makes scheduleReseed a no-op for this shard forever: the shard
		// would run without a backup until the next full restart. The
		// checkLeases repair scan retries once the flag is down. The same
		// applies to the map-side Reseeding flag: the closing install must
		// happen even on failure, or SetMap would skip this shard's fencing
		// forever.
		defer func() {
			co.mu.Lock()
			co.reseeding[shard] = false
			if co.m.Shards[shard].Reseeding {
				co.m.Shards[shard].Reseeding = false
				co.installLocked()
			}
			co.mu.Unlock()
		}()
		pn := co.c.nodeByAddr(primary)
		err := error(nil)
		if pn != nil {
			ctx, cancel := context.WithTimeout(context.Background(), co.c.cfg.ReseedTimeout)
			err = pn.Reseed(ctx, shard, spare)
			cancel()
		}
		co.mu.Lock()
		if err == nil && pn != nil && co.m.Shards[shard].Primary == primary && !co.dead[spare] {
			co.m.Shards[shard].Backup = spare
		}
		// The closing install (deferred above) publishes Backup and clears
		// Reseeding atomically in one map version: no node ever sees the
		// window closed without also seeing the enrollment outcome.
		co.mu.Unlock()
	}()
}

// spareLocked picks a live node that is not the shard's primary — preferring
// one that backs the fewest shards so replacements spread out.
func (co *Coordinator) spareLocked(shard int) string {
	load := make(map[string]int)
	for _, r := range co.m.Shards {
		if r.Backup != "" {
			load[r.Backup]++
		}
	}
	best := ""
	for _, n := range co.c.Nodes {
		a := n.addr
		if co.dead[a] || a == co.m.Shards[shard].Primary {
			continue
		}
		if best == "" || load[a] < load[best] {
			best = a
		}
	}
	return best
}

// close stops the lease loop and waits for in-flight re-seeds. Idempotent:
// tests close the cluster explicitly before a power-cycle drill and the
// cleanup hook closes it again.
func (co *Coordinator) close() {
	co.stopOnce.Do(func() { close(co.stop) })
	co.wg.Wait()
}
