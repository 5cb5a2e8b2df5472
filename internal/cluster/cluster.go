// Package cluster replicates shards across nodes over the wire protocol:
// hash-placed shards with a primary and a backup, primary→backup log
// shipping stitched into the ack path (a client ack requires local
// group-commit durability AND the backup's REPL_ACK), epoch fencing so a
// deposed primary can never ack again, coordinator-driven failover, and
// snapshot + log-catch-up re-seeding of replacement backups.
//
// Topology: every node runs a full testbed DB with one partition per shard;
// the shard id IS the partition index on every node that hosts it. A shard's
// primary serves clients (reads included) and ships committed batches; its
// backup applies them in sequence order and serves nobody. The coordinator
// is in-process (see Coordinator); clients route via netclient.Router.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/netserve"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// Engine is the storage engine every node runs.
	Engine testbed.EngineKind
	// Shards is the shard count (== partitions per node). Default 2.
	Shards int
	// Nodes is the node count (default Shards+1, so a spare exists for
	// re-seeding after one failure).
	Nodes int

	// HeartbeatEvery is the node heartbeat / coordinator check interval
	// (default 25ms). Lease is how stale a heartbeat may be before the
	// node is declared dead (default 1s: a loaded box starves a healthy
	// node's heartbeat for longer than a few intervals, and a lease that
	// expires by accident fails a shard over for nothing).
	HeartbeatEvery time.Duration
	Lease          time.Duration
	// now is the clock heartbeats are stamped and leases are judged by;
	// time.Now unless a test in this package owns it.
	now func() time.Time
	// ReplTimeout bounds one ship→ack round trip (default 5s).
	ReplTimeout time.Duration
	// ReseedTimeout bounds a whole snapshot re-seed (default 60s).
	ReseedTimeout time.Duration
	// TailLen bounds the per-shard unacked tail ring; beyond it the oldest
	// batches drop and a returning backup needs a snapshot (default 1024).
	TailLen int

	// Seed drives every seeded component (backoff jitter, serve retries).
	Seed int64

	// Env, Options, Schemas configure each node's testbed DB.
	Env     core.EnvConfig
	Options core.Options
	Schemas []*core.Schema
	// Serve configures each node's runtime.
	Serve serve.Config
	// Net configures each node's wire server (Repl is set by Start).
	Net netserve.Config
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Nodes <= 0 {
		c.Nodes = c.Shards + 1
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 25 * time.Millisecond
	}
	if c.Lease <= 0 {
		c.Lease = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.ReplTimeout <= 0 {
		c.ReplTimeout = 5 * time.Second
	}
	if c.ReseedTimeout <= 0 {
		c.ReseedTimeout = 60 * time.Second
	}
	if c.TailLen <= 0 {
		c.TailLen = 1024
	}
	return c
}

// peerClientConfig is the netclient config nodes use to ship to each other.
func (c Config) peerClientConfig() netclient.Config {
	return netclient.Config{
		Conns:   1,
		Timeout: c.ReplTimeout,
		Seed:    c.Seed + 7,
		// A dead peer should fail fast; the tail keeps the data safe.
		DialTimeout: c.ReplTimeout,
		MaxRedials:  3,
	}
}

// Cluster is a running set of nodes plus the coordinator.
type Cluster struct {
	cfg   Config
	Nodes []*Node
	// Coord is the current coordinator. Read it through Coordinator() in
	// any code that can run concurrently with StartStandbyCoordinator;
	// direct access is fine in tests that never replace the coordinator.
	Coord *Coordinator

	cdmu sync.RWMutex
}

// Coordinator returns the current coordinator, safely across standby
// takeover.
func (c *Cluster) Coordinator() *Coordinator {
	c.cdmu.RLock()
	defer c.cdmu.RUnlock()
	return c.Coord
}

func (c *Cluster) setCoordinator(co *Coordinator) {
	c.cdmu.Lock()
	c.Coord = co
	c.cdmu.Unlock()
}

// Start builds and starts the cluster: nodes listening on ephemeral ports,
// initial placement shard i → primary node[i%N] / backup node[(i+1)%N] at
// epoch 1, map pushed everywhere, heartbeats and the lease checker running.
func Start(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("cluster: %d nodes cannot replicate", cfg.Nodes)
	}
	c := &Cluster{cfg: cfg}
	c.Coord = newCoordinator(c)
	for i := 0; i < cfg.Nodes; i++ {
		n, err := c.startNode(fmt.Sprintf("node%d", i))
		if err != nil {
			for _, prev := range c.Nodes {
				prev.Shutdown()
			}
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	// Initial placement.
	m := &wire.ShardMap{Version: 1, Shards: make([]wire.ShardRoute, cfg.Shards)}
	for s := 0; s < cfg.Shards; s++ {
		p := c.Nodes[s%cfg.Nodes]
		b := c.Nodes[(s+1)%cfg.Nodes]
		m.Shards[s] = wire.ShardRoute{Epoch: 1, Primary: p.addr, Backup: b.addr}
		ps, bs := p.shards[s], b.shards[s]
		ps.mu.Lock()
		ps.role, ps.epoch, ps.backup = rolePrimary, 1, b.addr
		ps.mu.Unlock()
		bs.mu.Lock()
		bs.role, bs.epoch = roleBackup, 1
		bs.mu.Unlock()
	}
	// The initial map is installed through the consensus register like any
	// other: the founding coordinator wins the (virgin) register at ballot 1,
	// a majority of acceptors store the map, and every node learns it.
	if _, err := c.Coord.lead(); err != nil {
		for _, prev := range c.Nodes {
			prev.Shutdown()
		}
		return nil, err
	}
	c.Coord.mu.Lock()
	c.Coord.m = m
	c.Coord.proposeLocked(m.Clone())
	now := cfg.now()
	for _, n := range c.Nodes {
		c.Coord.lastHB[n.addr] = now
	}
	c.Coord.mu.Unlock()
	for _, n := range c.Nodes {
		n.hbWG.Add(1)
		go n.heartbeatLoop()
	}
	c.Coord.wg.Add(1)
	go c.Coord.run()
	return c, nil
}

func (c *Cluster) startNode(name string) (*Node, error) {
	db, err := testbed.New(testbed.Config{
		Engine:     c.cfg.Engine,
		Partitions: c.cfg.Shards,
		Env:        c.cfg.Env,
		Options:    c.cfg.Options,
		Schemas:    c.cfg.Schemas,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", name, err)
	}
	rt := serve.New(db, c.cfg.Serve)
	n := &Node{
		name:    name,
		cl:      c,
		db:      db,
		rt:      rt,
		stopHB:  make(chan struct{}),
		clients: make(map[string]*netclient.Client),
	}
	n.shards = make([]*shardState, c.cfg.Shards)
	for i := range n.shards {
		n.shards[i] = &shardState{}
	}
	ncfg := c.cfg.Net
	ncfg.Repl = n
	srv, err := netserve.New(rt, "127.0.0.1:0", ncfg)
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("cluster: %s: %w", name, err)
	}
	n.srv = srv
	n.addr = srv.Addr()
	n.buildMetrics()
	rt.AddHealth(n)
	return n, nil
}

// nodeByAddr resolves a node handle (nil if unknown).
func (c *Cluster) nodeByAddr(addr string) *Node {
	for _, n := range c.Nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}

// Addrs lists every node's wire address (router seeds).
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.addr
	}
	return out
}

// Router builds a shard-routing client over the cluster.
func (c *Cluster) Router(ccfg netclient.Config) *netclient.Router {
	return netclient.NewRouter(c.Addrs(), ccfg)
}

// Close shuts the coordinator and every node down gracefully (killed nodes
// are skipped past their dead flag; their runtimes still close so files
// release).
func (c *Cluster) Close() {
	c.Coordinator().close()
	for _, n := range c.Nodes {
		n.Shutdown()
	}
}
