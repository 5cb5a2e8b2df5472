package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/netserve"
	"nstore/internal/obs"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

// Shard replica roles.
const (
	roleNone    int32 = 0 // fenced or never assigned: serves nothing
	roleBackup  int32 = 1 // applies shipped batches, refuses client traffic
	rolePrimary int32 = 2 // serves clients, ships to the backup before acking
)

func roleName(r int32) string {
	switch r {
	case rolePrimary:
		return "primary"
	case roleBackup:
		return "backup"
	}
	return "none"
}

// errFenced is drainTail's signal that the backup rejected our epoch: a
// newer primary exists and this node must stop acting as one.
var errFenced = errors.New("cluster: fenced by a newer epoch")

// replEntry is one committed-but-possibly-unacked batch in a shard's tail.
type replEntry struct {
	seq   uint64
	bytes int64
	ops   []wire.Request
}

// shardState is one shard's replication state on one node. The mutex is the
// shard's replication serializer: Commit holds it across local submit AND
// backup ship, so batches leave in sequence order and an ack can never
// outrun replication. Backup-side apply holds it too, so apply order matches
// ship order and re-seeding cannot interleave with appends.
type shardState struct {
	mu sync.Mutex

	role  int32
	epoch uint64
	// seq is the shard's position: last locally committed batch on a
	// primary, last applied batch on a backup. It advances on EVERY local
	// commit, even one whose ship failed — reusing a sequence number for
	// different contents would diverge the replicas. A failed ship leaves
	// the entry in the tail, drained on the next commit or re-seed.
	seq    uint64
	ackSeq uint64 // highest seq the backup has acked
	backup string // backup address; "" = unreplicated (dead or re-seeding)
	tail   []replEntry
	// catchingUp marks a replica mid-snapshot (SnapBegin seen, SnapDone
	// not): /healthz reports 503 and the shard serves nobody.
	catchingUp bool

	lagBytes atomic.Int64 // tail payload bytes, scraped lock-free
}

// Node is one cluster member: a full testbed DB + serve runtime + netserve
// front door, plus per-shard replication state. A node hosts every partition
// but serves only the shards the map assigns it.
type Node struct {
	name string
	cl   *Cluster
	db   *testbed.DB
	rt   *serve.Runtime
	srv  *netserve.Server
	addr string

	shards []*shardState
	dead   atomic.Bool

	acc  acceptor                      // this node's slice of the map consensus register
	smap atomic.Pointer[wire.ShardMap] // latest learned (consensus-chosen) map

	stopHB chan struct{}
	hbWG   sync.WaitGroup

	// cmu guards the outbound clients this node uses to ship to peers.
	cmu     sync.Mutex
	clients map[string]*netclient.Client

	mFailovers *obs.Counter
	mShipAck   []*obs.Histogram
}

// Addr returns the node's wire listen address.
func (n *Node) Addr() string { return n.addr }

// Runtime returns the node's serve runtime (tests drain and digest it).
func (n *Node) Runtime() *serve.Runtime { return n.rt }

// DB returns the node's testbed database.
func (n *Node) DB() *testbed.DB { return n.db }

// buildMetrics registers the cluster metric surface on the node's runtime
// registry: replication lag, failovers, per-shard ship→ack latency, and
// role/epoch gauges for dashboards.
func (n *Node) buildMetrics() {
	reg := n.rt.Metrics()
	n.mFailovers = reg.Counter("cluster_failovers_total")
	// The learned shard-map version: after a failover or re-seed every live
	// node's gauge must converge on the coordinator's — a node stuck behind
	// is routing clients on stale epochs.
	reg.GaugeFunc("cluster_map_version", func() float64 {
		if m := n.smap.Load(); m != nil {
			return float64(m.Version)
		}
		return 0
	})
	reg.GaugeFunc("cluster_repl_lag_bytes", func() float64 {
		var sum int64
		for _, s := range n.shards {
			sum += s.lagBytes.Load()
		}
		return float64(sum)
	})
	n.mShipAck = make([]*obs.Histogram, len(n.shards))
	for i, s := range n.shards {
		i, s := i, s
		n.mShipAck[i] = reg.Histogram(fmt.Sprintf("cluster_shard%02d_ship_ack_ns", i))
		reg.GaugeFunc(fmt.Sprintf("cluster_shard%02d_role", i), func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.role)
		})
		reg.GaugeFunc(fmt.Sprintf("cluster_shard%02d_epoch", i), func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.epoch)
		})
	}
}

// client returns (dialing lazily) the outbound client for a peer address.
func (n *Node) client(addr string) *netclient.Client {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	cl, ok := n.clients[addr]
	if !ok {
		cl = netclient.New(addr, n.cl.cfg.peerClientConfig())
		n.clients[addr] = cl
	}
	return cl
}

// SetMap installs a coordinator-pushed shard map and fences roles it
// contradicts: a node the map names for neither side of a shard (at an epoch
// at least as new as the node's) must stop serving it. Promotion and backup
// enrollment go through explicit Promote/Reseed, never through SetMap — a
// map cannot conjure data onto a node.
func (n *Node) SetMap(m *wire.ShardMap) {
	n.smap.Store(m.Clone())
	for i, route := range m.Shards {
		if i >= len(n.shards) {
			break
		}
		s := n.shards[i]
		s.mu.Lock()
		switch {
		case route.Reseeding:
			// Enrollment in flight: this map is authoritative about
			// placement but stale about the shard's replication pair — the
			// re-seed's SnapDone may already have enrolled a backup the map
			// does not list. Deriving state from it here would demote that
			// backup (or strip it off its primary) and leave the shard
			// serving unreplicated behind a map that claims otherwise.
			// Fencing of genuinely stale replicas happens on the install
			// that closes the window.
		case route.Primary != n.addr && route.Backup != n.addr &&
			route.Epoch >= s.epoch && s.role != roleNone:
			s.role = roleNone
			s.backup = ""
			s.dropTailLocked()
		case route.Primary == n.addr && route.Epoch >= s.epoch &&
			s.role == rolePrimary && s.backup != "" && route.Backup != s.backup:
			// The backup this node was shipping to is gone from the map
			// (declared dead). Serve unreplicated; the tail stays so a
			// re-seeded replacement can log-catch-up if it covers.
			s.backup = ""
		}
		s.mu.Unlock()
	}
}

func (s *shardState) dropTailLocked() {
	s.tail = nil
	s.lagBytes.Store(0)
}

// Promote makes this node the shard's primary at epoch. Called by the
// coordinator when the previous primary's lease expires; the promoted
// backup starts unreplicated (backup="") until a re-seed enrolls a new one.
func (n *Node) Promote(shard int, epoch uint64) {
	s := n.shards[shard]
	s.mu.Lock()
	s.role = rolePrimary
	s.epoch = epoch
	s.ackSeq = s.seq
	s.backup = ""
	s.dropTailLocked()
	s.catchingUp = false
	s.mu.Unlock()
	n.mFailovers.Inc()
}

// Admit implements netserve.Replicator: only a primary serves client
// traffic, and every request must arrive pinned to its shard (the Router
// pins Part = ShardOf(key); the testbed's key%parts routing would scatter
// keys across the wrong shards).
func (n *Node) Admit(part int, req *wire.Request) error {
	if req.Part < 0 {
		return &wire.StatusError{Status: wire.StatusBadRequest,
			Msg: "cluster mode requires shard-pinned requests (Part = ShardOf(key))"}
	}
	s := n.shards[part]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != rolePrimary {
		return &wire.StatusError{Status: wire.StatusNotPrimary,
			Msg: fmt.Sprintf("shard %d is %s here", part, roleName(s.role))}
	}
	return nil
}

// shipOps lowers a client write into the batch shipped to the backup: a
// transaction ships its sub-ops, a single op ships itself. RMW ships the
// original column deltas — the backup recomputes adds from its own
// pre-image, which matches the primary's because batches apply in sequence
// order from identical state.
func shipOps(req *wire.Request) []wire.Request {
	if req.Op == wire.OpTxn {
		return req.Ops
	}
	sub := *req
	sub.ID = 0
	sub.Part = -1
	return []wire.Request{sub}
}

func opsBytes(ops []wire.Request) int64 {
	var b int64
	for i := range ops {
		b += 16 + int64(len(ops[i].Table))
		for _, v := range ops[i].Row {
			b += 9 + int64(len(v.S))
		}
		b += int64(len(ops[i].Cols)) * 12
	}
	return b
}

// Commit implements netserve.Replicator: the replicated write path.
//
// Invariants (DESIGN.md §11):
//  1. submit() runs under the shard mutex, so batches are sequenced in
//     commit order and shipped in that same order.
//  2. seq advances on every local commit, shipped or not; a failed ship
//     parks the entry in the tail.
//  3. No response other than a retryable error leaves a replicated shard
//     while unacked tail remains — even a would-be KeyExists is masked,
//     because letting it out would let a client's retry loop treat an
//     unreplicated commit as acked (the unique-key-insert idiom reads
//     KeyExists as "my earlier write committed").
//  4. A StaleEpoch from the backup fences this node: role drops to none
//     and the client sees NotPrimary, never an ack.
func (n *Node) Commit(ctx context.Context, part int, req *wire.Request, submit func() error) error {
	s := n.shards[part]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != rolePrimary {
		return &wire.StatusError{Status: wire.StatusNotPrimary,
			Msg: fmt.Sprintf("shard %d is %s here", part, roleName(s.role))}
	}
	subErr := submit()
	if subErr == nil {
		s.seq++
		ops := shipOps(req)
		e := replEntry{seq: s.seq, bytes: opsBytes(ops), ops: ops}
		s.tail = append(s.tail, e)
		s.lagBytes.Add(e.bytes)
		// Bound the tail: beyond TailLen the oldest entries are dropped and
		// log catch-up is off the table — a returning backup needs a full
		// snapshot re-seed instead.
		if max := n.cl.cfg.TailLen; len(s.tail) > max {
			drop := len(s.tail) - max
			for _, d := range s.tail[:drop] {
				s.lagBytes.Add(-d.bytes)
			}
			s.tail = append([]replEntry(nil), s.tail[drop:]...)
		}
	}
	if s.backup == "" {
		// Unreplicated (backup dead, or mid-failover before re-seed): serve
		// locally. Lag stays in the tail for the re-seed to drain.
		return subErr
	}
	if err := n.drainTailLocked(ctx, part, s); err != nil {
		if errors.Is(err, errFenced) {
			s.role = roleNone
			s.backup = ""
			s.dropTailLocked()
			return &wire.StatusError{Status: wire.StatusNotPrimary,
				Msg: fmt.Sprintf("shard %d fenced at epoch %d", part, s.epoch)}
		}
		// Replication stalled with unacked tail: mask EVERY outcome —
		// including a non-retryable submit error — behind a retryable
		// failure (invariant 3 above).
		return core.Retryable(fmt.Errorf("cluster: shard %d replication unavailable: %v", part, err))
	}
	return subErr
}

// drainTailLocked ships every unacked tail entry to the backup, in order,
// waiting for each REPL_ACK. Caller holds s.mu.
func (n *Node) drainTailLocked(ctx context.Context, part int, s *shardState) error {
	// Drop entries the backup already acked (possible after a re-probe).
	for len(s.tail) > 0 && s.tail[0].seq <= s.ackSeq {
		s.lagBytes.Add(-s.tail[0].bytes)
		s.tail = s.tail[1:]
	}
	if len(s.tail) > 0 && s.tail[0].seq != s.ackSeq+1 {
		return fmt.Errorf("tail gap: backup at %d, oldest retained batch %d (needs re-seed)",
			s.ackSeq, s.tail[0].seq)
	}
	cl := n.client(s.backup)
	for len(s.tail) > 0 {
		e := s.tail[0]
		start := time.Now()
		resp, err := cl.Do(ctx, &wire.Request{
			Op: wire.OpReplAppend, Part: int32(part),
			Epoch: s.epoch, Seq: e.seq, Ops: e.ops,
		})
		if err != nil {
			return err
		}
		switch resp.Status {
		case wire.StatusOK:
			n.mShipAck[part].Record(time.Since(start))
			s.ackSeq = e.seq
			if resp.Seq > s.ackSeq && resp.Seq <= s.seq {
				s.ackSeq = resp.Seq // idempotent ack may cover later batches
			}
			for len(s.tail) > 0 && s.tail[0].seq <= s.ackSeq {
				s.lagBytes.Add(-s.tail[0].bytes)
				s.tail = s.tail[1:]
			}
		case wire.StatusStaleEpoch:
			return errFenced
		default:
			return &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
		}
	}
	return nil
}

// Handle implements netserve.Replicator: the replication-plane ops.
func (n *Node) Handle(ctx context.Context, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if req.Op == wire.OpShardMap {
		if m := n.smap.Load(); m != nil {
			resp.Map = m.Clone()
		} else {
			resp.Status, resp.Msg = wire.StatusRetryable, "no shard map yet"
		}
		return resp
	}
	switch req.Op {
	case wire.OpMapPrepare, wire.OpMapAccept, wire.OpMapLearn:
		n.handleConsensus(req, resp)
		return resp
	}
	if req.Part < 0 || int(req.Part) >= len(n.shards) {
		resp.Status, resp.Msg = wire.StatusBadRequest, fmt.Sprintf("no shard %d", req.Part)
		return resp
	}
	s := n.shards[req.Part]
	switch req.Op {
	case wire.OpReplAck:
		// Only an enrolled backup has a position to catch up from. A
		// replica a map demoted keeps its (epoch, seq) but refuses
		// REPL_APPEND: were it to report them, the primary would choose log
		// catch-up and be refused at every retry. It reports nothing and is
		// re-seeded from a snapshot. A zero (epoch, seq) encodes as
		// respNone, which the probe reads back as (0, 0) — same meaning, no
		// special case needed.
		s.mu.Lock()
		if s.role == roleBackup {
			resp.Epoch, resp.Seq = s.epoch, s.seq
		}
		s.mu.Unlock()
	case wire.OpReplAppend:
		n.handleReplAppend(ctx, int(req.Part), s, req, resp)
	case wire.OpReplSnap:
		n.handleReplSnap(ctx, int(req.Part), s, req, resp)
	default:
		resp.Status, resp.Msg = wire.StatusBadRequest, fmt.Sprintf("unexpected repl op %v", req.Op)
	}
	return resp
}

// handleReplAppend is backup-side apply. Epoch fencing first, then
// replay-idempotent sequencing: a batch at or below the applied position
// acks without re-applying (the primary may re-ship after an ambiguous
// drop), the next batch applies through the runtime (durable before the
// ack goes back), anything further ahead is a gap the primary must re-seed.
func (n *Node) handleReplAppend(ctx context.Context, part int, s *shardState, req *wire.Request, resp *wire.Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role == rolePrimary {
		if req.Epoch <= s.epoch {
			resp.Status = wire.StatusStaleEpoch
			resp.Msg = fmt.Sprintf("shard %d: epoch %d <= primary epoch %d", part, req.Epoch, s.epoch)
		} else {
			resp.Status = wire.StatusNotPrimary
			resp.Msg = fmt.Sprintf("shard %d: node is primary below shipped epoch %d", part, req.Epoch)
		}
		return
	}
	if s.role != roleBackup {
		resp.Status = wire.StatusNotPrimary
		resp.Msg = fmt.Sprintf("shard %d is %s here (not enrolled as backup)", part, roleName(s.role))
		return
	}
	if req.Epoch < s.epoch {
		resp.Status = wire.StatusStaleEpoch
		resp.Msg = fmt.Sprintf("shard %d: epoch %d < %d", part, req.Epoch, s.epoch)
		return
	}
	s.epoch = req.Epoch // adopt a newer epoch from the legitimate primary
	switch {
	case req.Seq <= s.seq:
		// Replayed batch: already applied and durable. Ack idempotently.
		resp.Epoch, resp.Seq = s.epoch, s.seq
	case req.Seq == s.seq+1:
		if err := n.rt.SubmitPart(ctx, part, netserve.ApplyOps(req.Ops)); err != nil {
			resp.Status, resp.Msg = wire.StatusRetryable, fmt.Sprintf("apply seq %d: %v", req.Seq, err)
			return
		}
		s.seq = req.Seq
		resp.Epoch, resp.Seq = s.epoch, s.seq
	default:
		resp.Status = wire.StatusRetryable
		resp.Msg = fmt.Sprintf("shard %d: gap, backup at %d got %d", part, s.seq, req.Seq)
	}
}

// handleReplSnap is backup-side snapshot installation for re-seeding.
func (n *Node) handleReplSnap(ctx context.Context, part int, s *shardState, req *wire.Request, resp *wire.Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Epoch < s.epoch {
		resp.Status = wire.StatusStaleEpoch
		resp.Msg = fmt.Sprintf("shard %d: snapshot epoch %d < %d", part, req.Epoch, s.epoch)
		return
	}
	switch req.Phase {
	case wire.SnapBegin:
		// Drop whatever the shard held (stale backup state, or a fenced
		// ex-primary's divergent tail) and start clean.
		if err := n.clearShard(ctx, part); err != nil {
			resp.Status, resp.Msg = wire.StatusRetryable, fmt.Sprintf("clear: %v", err)
			return
		}
		s.role = roleNone
		s.epoch = req.Epoch
		s.seq = 0
		s.catchingUp = true
	case wire.SnapChunk:
		if !s.catchingUp {
			resp.Status, resp.Msg = wire.StatusBadRequest, "snapshot chunk without SnapBegin"
			return
		}
		rows := req.SnapRows
		keys := req.SnapKeys
		table := req.Table
		err := n.rt.SubmitPart(ctx, part, func(eng core.Engine) error {
			for i, k := range keys {
				if err := eng.Insert(table, k, rows[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			resp.Status, resp.Msg = wire.StatusRetryable, fmt.Sprintf("chunk: %v", err)
			return
		}
	case wire.SnapDone:
		if !s.catchingUp {
			resp.Status, resp.Msg = wire.StatusBadRequest, "snapshot done without SnapBegin"
			return
		}
		s.role = roleBackup
		s.epoch = req.Epoch
		s.seq = req.Seq
		s.catchingUp = false
		resp.Epoch, resp.Seq = s.epoch, s.seq
	}
}

// clearShard deletes every row of every table in the partition, through the
// executor so the deletion is durable and versioned like any other write.
func (n *Node) clearShard(ctx context.Context, part int) error {
	for _, sc := range n.db.Schemas() {
		table := sc.Name
		for {
			var keys []uint64
			err := n.rt.SubmitPart(ctx, part, func(eng core.Engine) error {
				keys = keys[:0]
				if err := eng.ScanRange(table, 0, ^uint64(0), func(pk uint64, _ []core.Value) bool {
					keys = append(keys, pk)
					return len(keys) < 512
				}); err != nil {
					return err
				}
				for _, k := range keys {
					if err := eng.Delete(table, k); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(keys) < 512 {
				break
			}
		}
	}
	return nil
}

// Reseed (re)establishes addr as the shard's backup, called on the primary
// by the coordinator. Fast path: if the replica's durable position is on our
// epoch and within the retained tail, ship the missing batches. Otherwise a
// full snapshot: SnapBegin, every table's rows in chunks read from the MVCC
// snapshot pool (the executor keeps running; the shard mutex blocks writes
// for the duration — the re-seed blackout the bench measures). Writes are
// blocked rather than raced because the snapshot must correspond to an
// exact (epoch, seq) position.
func (n *Node) Reseed(ctx context.Context, shard int, addr string) error {
	s := n.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != rolePrimary {
		return fmt.Errorf("cluster: reseed of shard %d on a %s", shard, roleName(s.role))
	}
	cl := n.client(addr)
	probe, err := cl.Do(ctx, &wire.Request{Op: wire.OpReplAck, Part: int32(shard), Epoch: s.epoch})
	if err != nil {
		return err
	}
	if probe.Status == wire.StatusOK && probe.Epoch == s.epoch && probe.Seq <= s.seq {
		// Same history: log catch-up if the tail still covers the distance.
		covered := probe.Seq == s.seq ||
			(len(s.tail) > 0 && s.tail[0].seq <= probe.Seq+1)
		if covered {
			s.backup = addr
			s.ackSeq = probe.Seq
			if err := n.drainTailLocked(ctx, shard, s); err != nil {
				s.backup = ""
				return err
			}
			return nil
		}
	}
	// Snapshot path. The position shipped with SnapDone is the seq at the
	// time the mutex was taken; no writes can slip in while we hold it.
	send := func(req *wire.Request) error {
		resp, err := cl.Do(ctx, req)
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
		}
		return nil
	}
	if err := send(&wire.Request{Op: wire.OpReplSnap, Part: int32(shard), Epoch: s.epoch, Phase: wire.SnapBegin}); err != nil {
		return err
	}
	for _, sc := range n.db.Schemas() {
		table := sc.Name
		var keys []uint64
		var rows [][]core.Value
		flush := func() error {
			if len(keys) == 0 {
				return nil
			}
			err := send(&wire.Request{Op: wire.OpReplSnap, Part: int32(shard), Epoch: s.epoch,
				Phase: wire.SnapChunk, Table: table, SnapKeys: keys, SnapRows: rows})
			keys, rows = nil, nil
			return err
		}
		var flushErr error
		err := n.rt.ReadPart(ctx, shard, func(v core.ReadView) error {
			return v.ScanRange(table, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
				keys = append(keys, pk)
				rows = append(rows, copyRow(row))
				if len(keys) >= 128 {
					if flushErr = flush(); flushErr != nil {
						return false
					}
				}
				return true
			})
		})
		if err == nil {
			err = flushErr
		}
		if err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
	}
	if err := send(&wire.Request{Op: wire.OpReplSnap, Part: int32(shard), Epoch: s.epoch,
		Phase: wire.SnapDone, Seq: s.seq}); err != nil {
		return err
	}
	s.backup = addr
	s.ackSeq = s.seq
	s.dropTailLocked()
	return nil
}

func copyRow(row []core.Value) []core.Value {
	out := make([]core.Value, len(row))
	for i, v := range row {
		if v.S != nil {
			v.S = append(make([]byte, 0, len(v.S)), v.S...)
		}
		out[i] = v
	}
	return out
}

// HealthCheck implements serve.HealthSource: one line per shard with role,
// epoch and replication lag; unhealthy while any shard is fenced (role none
// after holding a role — epoch > 0) or catching up on a snapshot.
func (n *Node) HealthCheck() ([]string, bool) {
	ok := true
	lines := make([]string, 0, len(n.shards))
	for i, s := range n.shards {
		s.mu.Lock()
		lag := s.seq - s.ackSeq
		if s.role != rolePrimary {
			lag = 0
		}
		line := fmt.Sprintf("shard %d: role=%s epoch=%d lag=%d", i, roleName(s.role), s.epoch, lag)
		if s.catchingUp {
			line += " catching-up"
			ok = false
		}
		if s.role == roleNone && s.epoch > 0 {
			line += " fenced"
			ok = false
		}
		s.mu.Unlock()
		lines = append(lines, line)
	}
	return lines, ok
}

// heartbeatLoop reports liveness to the coordinator until killed.
func (n *Node) heartbeatLoop() {
	defer n.hbWG.Done()
	t := time.NewTicker(n.cl.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopHB:
			return
		case <-t.C:
			if !n.dead.Load() {
				n.cl.Coordinator().Heartbeat(n.addr)
			}
		}
	}
}

// Kill is the SIGKILL stand-in: the node stops heartbeating, its listener
// and every connection (inbound and outbound) are cut mid-frame, and
// NOTHING is flushed — the runtime is simply never consulted again. Acked
// state must survive on the other replica; that is the whole point.
func (n *Node) Kill() {
	if n.dead.Swap(true) {
		return
	}
	close(n.stopHB)
	n.srv.Kill()
	n.cmu.Lock()
	for _, cl := range n.clients {
		cl.Close()
	}
	n.cmu.Unlock()
}

// Shutdown is the graceful teardown for test cleanup. Safe after Kill.
func (n *Node) Shutdown() {
	if !n.dead.Swap(true) {
		close(n.stopHB)
		n.srv.Close()
		n.cmu.Lock()
		for _, cl := range n.clients {
			cl.Close()
		}
		n.cmu.Unlock()
	}
	n.hbWG.Wait()
	n.rt.Close()
}
