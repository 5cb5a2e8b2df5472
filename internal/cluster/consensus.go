package cluster

import (
	"errors"
	"fmt"
	"sync"

	"nstore/internal/wire"
)

// The shard map is replicated through a single-decree consensus register
// spread across every node: a coordinator is just the current proposer, and
// a map version is installed only after a majority of acceptors stored it.
// That moves placement truth out of the coordinator process — when it dies
// mid-failover, a standby wins the register at a higher ballot, adopts the
// highest accepted map, and finishes the job. The register is ballot-ordered
// in the classic way (prepare promises fence lower ballots; accept stores
// the pair; learn installs) with one simplification: successive installs
// reuse the leader's prepared ballot and rely on epoch-monotonic map
// versions, so a full prepare round happens only at leadership changes.
//
// The replication protocol never trusts this blindly: shard epochs still
// fence deposed primaries even if two coordinators were to both believe
// they lead (DESIGN.md §11). Consensus here protects placement decisions,
// not data.

// acceptor is one node's slice of the map consensus register.
type acceptor struct {
	mu        sync.Mutex
	promised  uint64         // highest ballot promised to a proposer
	accBallot uint64         // ballot of the highest accepted proposal
	accMap    *wire.ShardMap // value of the highest accepted proposal
}

// prepareMap is the acceptor's phase-1 handler. A ballot at or below the
// current promise is rejected (the promised ballot comes back so the
// proposer can outbid it); otherwise the node promises to ignore lower
// ballots and reports its highest accepted (ballot, map) pair, which the
// new leader must adopt.
func (n *Node) prepareMap(ballot uint64) (accBallot uint64, accMap *wire.ShardMap, promised uint64, ok bool) {
	if n.dead.Load() {
		return 0, nil, 0, false
	}
	a := &n.acc
	a.mu.Lock()
	defer a.mu.Unlock()
	if ballot <= a.promised {
		return 0, nil, a.promised, false
	}
	a.promised = ballot
	if a.accMap != nil {
		return a.accBallot, a.accMap.Clone(), ballot, true
	}
	return 0, nil, ballot, true
}

// acceptMap is the acceptor's phase-2 handler: store the pair unless a newer
// proposer holds the promise.
func (n *Node) acceptMap(ballot uint64, m *wire.ShardMap) (promised uint64, ok bool) {
	if n.dead.Load() {
		return 0, false
	}
	a := &n.acc
	a.mu.Lock()
	defer a.mu.Unlock()
	if ballot < a.promised {
		return a.promised, false
	}
	a.promised = ballot
	a.accBallot = ballot
	a.accMap = m.Clone()
	return ballot, true
}

// learnMap installs a chosen map, version-monotonically: a replayed or
// reordered learn can never roll routing back.
func (n *Node) learnMap(m *wire.ShardMap) {
	if n.dead.Load() {
		return
	}
	if cur := n.smap.Load(); cur != nil && m.Version <= cur.Version {
		return
	}
	n.SetMap(m)
}

// handleConsensus serves the wire-protocol face of the acceptor, so external
// proposers (and the drills) speak the same protocol the in-process
// coordinator does, and a router can learn the map from any acceptor.
func (n *Node) handleConsensus(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpMapPrepare:
		ab, am, promised, ok := n.prepareMap(req.Epoch)
		if !ok {
			resp.Status = wire.StatusStaleEpoch
			resp.Epoch = promised
			resp.Msg = fmt.Sprintf("ballot %d <= promised %d", req.Epoch, promised)
			return
		}
		// A promise with an accepted pair encodes as respCons; a virgin
		// promise is a bare OK.
		resp.Epoch, resp.Map = ab, am
	case wire.OpMapAccept:
		promised, ok := n.acceptMap(req.Epoch, req.Map)
		if !ok {
			resp.Status = wire.StatusStaleEpoch
			resp.Epoch = promised
			resp.Msg = fmt.Sprintf("ballot %d < promised %d", req.Epoch, promised)
		}
	case wire.OpMapLearn:
		n.learnMap(req.Map)
	}
}

// lead runs the prepare phase until a majority of acceptors promise this
// coordinator's ballot, outbidding whatever ballot rejections report.
// Returns the highest accepted map among the promises (nil if the register
// is virgin) — the value a correct leader MUST adopt before proposing
// anything of its own. Fails only if no majority of acceptors is alive.
func (co *Coordinator) lead() (*wire.ShardMap, error) {
	ballot := co.ballot + 1
	for attempt := 0; attempt < 64; attempt++ {
		promises := 0
		var bestBallot, maxPromised uint64
		var best *wire.ShardMap
		for _, n := range co.c.Nodes {
			ab, am, promised, ok := n.prepareMap(ballot)
			if !ok {
				if promised > maxPromised {
					maxPromised = promised
				}
				continue
			}
			promises++
			if am != nil && ab >= bestBallot {
				bestBallot, best = ab, am
			}
		}
		if promises*2 > len(co.c.Nodes) {
			co.ballot = ballot
			return best, nil
		}
		if maxPromised < ballot {
			// Not a ballot race: a majority of acceptors is simply gone.
			return nil, errors.New("cluster: no acceptor quorum for map consensus")
		}
		ballot = maxPromised + 1
	}
	return nil, errors.New("cluster: map consensus prepare livelock")
}

// proposeLocked replicates m as the register's value at this coordinator's
// ballot: majority accept, then learn everywhere. Returns false without
// installing anything if the quorum is gone or — the fencing case — a newer
// proposer owns the register, which marks this coordinator deposed for good.
//
// The quorum is a majority of the coordinator's current membership view
// (nodes its lease checker still holds live), not of the configured node
// count: a 2-node cluster must still install the map that drops its dead
// backup. A production system would instead run membership changes through
// the register itself; the lease view is the repro-scale stand-in. Leader
// election (lead) still demands a majority of ALL nodes, so two standbys
// cannot both win with disjoint views. Caller holds co.mu.
func (co *Coordinator) proposeLocked(m *wire.ShardMap) bool {
	if co.deposed {
		return false
	}
	acks, alive := 0, 0
	for _, n := range co.c.Nodes {
		if !co.dead[n.addr] {
			alive++
		}
		promised, ok := n.acceptMap(co.ballot, m)
		if !ok && promised > co.ballot {
			co.deposed = true
			return false
		}
		if ok {
			acks++
		}
	}
	if acks*2 <= alive {
		return false
	}
	for _, n := range co.c.Nodes {
		n.learnMap(m)
	}
	return true
}

// KillCoordinator abandons the current coordinator abruptly — the process
// crash stand-in. Its lease loop stops, every later action it would take
// no-ops (deposed), and in-flight re-seed goroutines it started may still
// run to completion but can no longer install map versions. Placement
// decisions stall until StartStandbyCoordinator.
func (c *Cluster) KillCoordinator() {
	co := c.Coordinator()
	co.stopOnce.Do(func() { close(co.stop) })
	co.mu.Lock()
	co.deposed = true
	co.mu.Unlock()
}

// StartStandbyCoordinator brings up a replacement coordinator, the recovery
// path the consensus register exists for: it wins the register at a higher
// ballot (fencing every install the dead coordinator might still attempt),
// adopts the highest accepted map, reopens any re-seed window left hanging,
// re-installs, and re-runs failover for every node that is dead right now —
// completing whatever the old coordinator died in the middle of.
func (c *Cluster) StartStandbyCoordinator() (*Coordinator, error) {
	old := c.Coordinator()
	co := newCoordinator(c)
	co.ballot = old.currentBallot() // start the bidding where the old leader left it
	adopted, err := co.lead()
	if err != nil {
		return nil, err
	}
	if adopted == nil {
		// Virgin register (nothing ever accepted — possible only if the old
		// coordinator died before its first install): fall back to the
		// highest learned map on any live node.
		for _, n := range c.Nodes {
			if n.dead.Load() {
				continue
			}
			if m := n.smap.Load(); m != nil && (adopted == nil || m.Version > adopted.Version) {
				adopted = m
			}
		}
	}
	if adopted == nil {
		return nil, errors.New("cluster: standby coordinator found no map to adopt")
	}
	co.mu.Lock()
	co.m = adopted.Clone()
	// A Reseeding window belongs to a re-seed goroutine of the coordinator
	// that opened it. If that coordinator is dead, nothing will ever publish
	// the closing install, and SetMap skips the shard's fencing forever.
	// Clear the flags: the repair scan re-seeds any shard still missing a
	// backup, opening a fresh window it actually owns.
	for i := range co.m.Shards {
		co.m.Shards[i].Reseeding = false
	}
	co.installLocked()
	now := c.cfg.now()
	for _, n := range c.Nodes {
		if !n.dead.Load() {
			co.lastHB[n.addr] = now
		}
	}
	co.mu.Unlock()
	c.setCoordinator(co)
	co.wg.Add(1)
	go co.run()
	// Finish what the dead coordinator may have been mid-way through: any
	// node that is down right now gets the full failover treatment under
	// the new map (idempotent if the old coordinator already handled it).
	// Liveness here is the in-process stand-in for a probe RPC.
	for _, n := range c.Nodes {
		if n.dead.Load() {
			co.MarkDead(n.addr)
		}
	}
	return co, nil
}
