package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nstore/internal/cluster"
	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/netdrill"
	"nstore/internal/netserve"
	"nstore/internal/nvm"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
	"nstore/internal/workload/ycsb"
)

const netEngine = testbed.NVMInP // the fastest engine, so the serving stack dominates

// netStack is the system under test of the wire and cluster workloads: one
// database behind serve+netserve reached through a netclient.Client, or a
// 3-node x 2-shard replicated cluster reached through a netclient.Router.
type netStack struct {
	pol     policy
	replica bool
	schemas []*core.Schema // user-visible tables

	dbs []*testbed.DB // every node's database
	rts []*serve.Runtime

	srv    *netserve.Server
	client *netclient.Client

	cl     *cluster.Cluster
	router *netclient.Router

	retries atomic.Int64 // cluster tpcc: whole-transaction re-runs after Aborted/Locked
}

var serveCfg = serve.Config{Readers: 1, Writers: 1}

// startStack builds, loads and starts the stack; the elapsed time is the
// workload's set-up.
func startStack(pol policy, replica bool) (*netStack, error) {
	s := &netStack{pol: pol, replica: replica, schemas: pol.schemas()}
	if !replica {
		db, err := testbed.New(pol.dbConfig(netEngine, s.schemas))
		if err != nil {
			return nil, err
		}
		if err := pol.load(db); err != nil {
			return nil, err
		}
		cfg := serveCfg
		cfg.Seed = pol.Seed
		rt := serve.New(db, cfg)
		srv, err := netserve.New(rt, "127.0.0.1:0", netserve.Config{})
		if err != nil {
			rt.Close()
			return nil, err
		}
		s.dbs, s.rts, s.srv = []*testbed.DB{db}, []*serve.Runtime{rt}, srv
		s.client = netclient.New(srv.Addr(), netclient.Config{Conns: pol.Partitions, Seed: pol.Seed})
		return s, nil
	}
	// The rows to replicate come from a locally loaded source database, as in
	// the repo's own cluster drills; the source is dropped after seeding.
	src, err := testbed.New(pol.dbConfig(netEngine, s.schemas))
	if err != nil {
		return nil, err
	}
	if err := pol.load(src); err != nil {
		return nil, err
	}
	cfg := serveCfg
	cfg.Seed = pol.Seed
	c, err := cluster.Start(cluster.Config{
		Engine: netEngine, Shards: pol.Partitions, Nodes: 3, Seed: pol.Seed,
		// The default lease (200 ms) is shorter than this box's stalls: in its
		// slow episodes a healthy node missed it mid-seeding and the coordinator
		// failed the shard over. One second has not been missed.
		Lease: time.Second,
		Env:   pol.Env, Options: pol.Options, Serve: cfg,
		Schemas: txn2pc.AugmentSchemas(s.schemas),
	})
	if err != nil {
		return nil, err
	}
	s.cl = c
	// One connection per node: the two shard primaries sit on two nodes, so
	// the two client goroutines use two connections in total.
	s.router = c.Router(netclient.Config{Conns: 1, Seed: pol.Seed, RetryMax: 40, RetryCap: 100 * time.Millisecond})
	for _, n := range c.Nodes {
		s.dbs = append(s.dbs, n.DB())
		s.rts = append(s.rts, n.Runtime())
	}
	if err := s.seed(src); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// seed replicates src into the cluster as partition-pinned TXN frames of 64
// rows, through the same replicated write path client traffic uses.
func (s *netStack) seed(src *testbed.DB) error {
	ctx := context.Background()
	for p := 0; p < src.Partitions(); p++ {
		for _, sc := range s.schemas {
			var ops []wire.Request
			flush := func() error {
				if len(ops) == 0 {
					return nil
				}
				resp, err := s.router.DoRetry(ctx, &wire.Request{Part: int32(p), Op: wire.OpTxn, Ops: ops})
				if err != nil {
					return err
				}
				if resp.Status != wire.StatusOK {
					return &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
				}
				ops = nil
				return nil
			}
			var ferr error
			err := src.Engine(p).ScanRange(sc.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
				ops = append(ops, wire.Request{Op: wire.OpPut, Table: sc.Name, Key: pk, Row: core.CloneRow(row)})
				if len(ops) >= 64 {
					ferr = flush()
				}
				return ferr == nil
			})
			if err = errors.Join(err, ferr, flush()); err != nil {
				return fmt.Errorf("seed partition %d table %s: %w", p, sc.Name, err)
			}
		}
	}
	return nil
}

func (s *netStack) close() {
	if s.replica {
		s.router.Close()
		s.cl.Close()
		return
	}
	s.client.Close()
	s.srv.Close()
	s.rts[0].Close()
}

// do sends one request the way the workload's clients do.
func (s *netStack) do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if s.replica {
		return s.router.DoRetry(ctx, req)
	}
	return s.client.Do(ctx, req)
}

func (s *netStack) doName() string {
	if s.replica {
		return "router.do"
	}
	return "client.do"
}

// netOp is one client operation: a single request, or (cluster tpcc) a
// transaction for Router.DoTxn.
type netOp struct {
	req *wire.Request
	txn []wire.Request
}

// doTxn runs one Router.DoTxn to a commit. An attempt that lost a lock race
// or was force-resolved by a reader comes back Aborted/Locked having applied
// nothing and is re-run whole after a jittered pause, as netdrill.DriveTxn
// does; KeyExists is the ack of an attempt whose reply was lost.
func (s *netStack) doTxn(ctx context.Context, ops []wire.Request, rng *rand.Rand) error {
	for round := 0; round < 100; round++ {
		resp, err := s.router.DoTxn(ctx, ops)
		switch {
		case errors.Is(err, netclient.ErrTxnUnknown):
			return err
		case err == nil && (resp.Status == wire.StatusOK || resp.Status == wire.StatusKeyExists):
			return nil
		case err == nil && resp.Status != wire.StatusAborted && resp.Status != wire.StatusLocked:
			return &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
		}
		s.retries.Add(1)
		time.Sleep(time.Duration(500+rng.Intn(2000*(1+round))) * time.Microsecond)
	}
	return errors.New("transaction never committed in 100 rounds")
}

func (s *netStack) devStats() (st nvm.Stats) {
	for _, db := range s.dbs {
		st = st.Add(db.Stats())
	}
	return st
}

// drive runs one leg (or, in the traced run, half of one): every stream
// driven to completion by its own closed-loop goroutine. check judges each
// reply; a transport error or a rejected reply is a failed operation.
func (s *netStack) drive(name string, streams [][]netOp, tr *Tracer, check func(*wire.Response) bool) (leg legSample, failed int) {
	for _, ops := range streams {
		leg.Txns += len(ops)
	}
	lats := make([][]int64, len(streams))
	fails := make([]int, len(streams))
	ctx := context.Background()
	runtime.GC()
	st0 := s.devStats()
	start := time.Now()
	var wg sync.WaitGroup
	for p, ops := range streams {
		wg.Add(1)
		go func(p int, ops []netOp) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.pol.Seed + int64(p)))
			lat := make([]int64, 0, len(ops))
			var ln *lane
			if tr != nil {
				ln = tr.lane(nil)
				ln.begin("leg."+name, int64(p))
				defer ln.end()
			}
			for i := range ops {
				op := &ops[i]
				t0 := time.Now()
				ok := false
				if op.txn != nil {
					if ln != nil {
						ln.begin("router.dotxn", int64(i)*int64(len(streams))+int64(p))
					}
					ok = s.doTxn(ctx, op.txn, rng) == nil
				} else {
					if ln != nil {
						ln.begin(s.doName(), int64(i)*int64(len(streams))+int64(p))
					}
					resp, err := s.do(ctx, op.req)
					ok = err == nil && check(resp)
				}
				if ln != nil {
					ln.end()
				}
				lat = append(lat, int64(time.Since(t0)))
				if !ok {
					fails[p]++
				}
			}
			lats[p] = lat
		}(p, ops)
	}
	wg.Wait()
	leg.WallNs = int64(time.Since(start))
	leg.EffNs = leg.WallNs
	leg.Dev = s.devStats().Sub(st0) // summed over every node's devices
	for p := range streams {
		leg.Lat = append(leg.Lat, lats[p]...)
		failed += fails[p]
	}
	return leg, failed
}

// netSchedule holds the generated request streams, pre-cut into rounds.
type netSchedule struct {
	read, write, tpcc [][][]netOp // [round][partition][]op
	userBytes         []int64     // per write round
}

func wrap(streams [][]*wire.Request, parts int, pin bool) [][]netOp {
	out := make([][]netOp, len(streams))
	for p, reqs := range streams {
		out[p] = make([]netOp, len(reqs))
		for i, rq := range reqs {
			if pin && rq.Part < 0 {
				rq.Part = int32(rq.Key % uint64(parts))
			}
			out[p][i] = netOp{req: rq}
		}
	}
	return out
}

func cut(streams [][]netOp, rounds int) [][][]netOp {
	out := make([][][]netOp, rounds)
	for r := range out {
		out[r] = make([][]netOp, len(streams))
		for p, ops := range streams {
			n := len(ops) / rounds
			out[r][p] = ops[r*n : (r+1)*n]
		}
	}
	return out
}

func genNetSchedule(pol policy, replica bool, rounds int) netSchedule {
	var ns netSchedule
	// In the cluster the shard id is the partition index: pin each request by
	// the workload's key%partitions rule rather than the router's key hash.
	ns.read = cut(wrap(netdrill.YCSBRequests(pol.readCfg()), pol.Partitions, replica), rounds)
	ns.write = cut(wrap(netdrill.YCSBRequests(pol.writeCfg()), pol.Partitions, replica), rounds)
	for _, round := range ns.write {
		var n int64
		for _, ops := range round {
			for _, op := range ops {
				for _, c := range op.req.Cols {
					n += int64(len(c.Val.S))
				}
			}
		}
		ns.userBytes = append(ns.userBytes, n)
	}
	// Each tpcc round is generated under its own seed, which namespaces its
	// history keys, so rounds never collide on an insert.
	for r := 0; r < rounds; r++ {
		cfg := pol.TPCC
		cfg.Txns = pol.NetTPCC / rounds
		cfg.Seed = pol.Seed*16 + int64(r)
		if !replica {
			ns.tpcc = append(ns.tpcc, wrap(netdrill.TPCCRequests(cfg), pol.Partitions, false))
			continue
		}
		single, cross := netdrill.TPCCPaymentTxns(cfg)
		streams := make([][]netOp, len(single))
		for p := range single {
			for i := range single[p] {
				// Alternate single-shard TXN frames and cross-shard 2PC.
				if i%2 == 0 {
					streams[p] = append(streams[p], netOp{txn: single[p][i]})
				} else {
					streams[p] = append(streams[p], netOp{txn: cross[p][i]})
				}
			}
		}
		ns.tpcc = append(ns.tpcc, streams)
	}
	return ns
}

// lastWrites remembers, per key and column, the value of the last acked
// set-mode RMW, so that the post-recovery re-read can prove no acked write
// was lost. Each partition's stream is driven by a single goroutine, so "last
// in stream order" is well defined.
type lastWrites map[uint64]map[int][]byte

func (lw lastWrites) note(round [][]netOp) {
	for _, ops := range round {
		for _, op := range ops {
			if op.req.Op != wire.OpRmw {
				continue
			}
			m := lw[op.req.Key]
			if m == nil {
				m = make(map[int][]byte)
				lw[op.req.Key] = m
			}
			for _, c := range op.req.Cols {
				m[c.Col] = c.Val.S
			}
		}
	}
}

func okStatus(resp *wire.Response) bool { return resp.Status == wire.StatusOK }
func okFound(resp *wire.Response) bool  { return resp.Status == wire.StatusOK && resp.Found }

// verify re-reads every written key over the wire and compares it with its
// last acked value; it returns reads attempted and mismatches.
func (s *netStack) verify(lw lastWrites) (n, bad int) {
	ctx := context.Background()
	for key, cols := range lw {
		part := int32(-1)
		if s.replica {
			part = int32(key % uint64(s.pol.Partitions))
		}
		resp, err := s.do(ctx, &wire.Request{Part: part, Op: wire.OpGet, Table: ycsb.TableName, Key: key})
		n++
		if err != nil || resp.Status != wire.StatusOK || !resp.Found {
			bad++
			continue
		}
		for col, want := range cols {
			if string(resp.Row[col].S) != string(want) {
				bad++
				break
			}
		}
	}
	return n, bad
}

func (s *netStack) digests() ([][32]byte, error) {
	out := make([][32]byte, len(s.dbs))
	for i, db := range s.dbs {
		d, err := db.StateDigest()
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// netRecoverRounds is how many crash+recover cycles one repetition times. An
// nvm-inp partition recovers in tens of milliseconds, too short a single shot
// to repeat on this box; nvm-inp does the same work in every cycle (nothing is
// in flight after the Flush), so a repetition reports the cycles' mean.
const netRecoverRounds = 3

// crashRecover crashes every partition of every node and recovers them one
// after another, netRecoverRounds times, timing each cycle from the crash to
// the first acked GET. It returns the mean cycle in ms and whether every node
// came back from every cycle in the state it had before the first crash.
func (s *netStack) crashRecover() (ms float64, same bool, err error) {
	pre, err := s.digests()
	if err != nil {
		return 0, false, err
	}
	same = true
	var total time.Duration
	for round := 0; round < netRecoverRounds; round++ {
		key := uint64(round)
		start := time.Now()
		for _, rt := range s.rts {
			if err := rt.RecoverAll(1); err != nil {
				return 0, false, fmt.Errorf("recover: %w", err)
			}
		}
		part := int32(-1)
		if s.replica {
			part = int32(key % uint64(s.pol.Partitions))
		}
		deadline := start.Add(30 * time.Second)
		for {
			resp, derr := s.do(context.Background(), &wire.Request{Part: part, Op: wire.OpGet, Table: ycsb.TableName, Key: key})
			if derr == nil && resp.Status == wire.StatusOK && resp.Found {
				break
			}
			if time.Now().After(deadline) {
				return 0, false, errors.New("no acked GET within 30s of recovery")
			}
		}
		total += time.Since(start)
		post, err := s.digests()
		if err != nil {
			return 0, false, err
		}
		for i := range pre {
			same = same && pre[i] == post[i]
		}
	}
	return float64(total) / 1e6 / netRecoverRounds, same, nil
}

// primaryDB returns the database that currently serves shard as primary.
func (s *netStack) primaryDB(shard int) *testbed.DB {
	if !s.replica {
		return s.dbs[0]
	}
	addr := s.cl.Coordinator().Map().Shards[shard].Primary
	for _, n := range s.cl.Nodes {
		if n.Addr() == addr {
			return n.DB()
		}
	}
	return s.dbs[0]
}

// liveBytes is the logical database's user payload: each shard counted once,
// on its primary.
func (s *netStack) liveBytes() (int64, error) {
	var total int64
	for p := 0; p < s.pol.Partitions; p++ {
		n, err := rowBytes(s.primaryDB(p).Engine(p), s.schemas)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// runNetRep is one repetition of a network workload: a fresh stack, the three
// legs, flush, crash and recovery, the re-read of every written key.
func (r *runner) runNetRep(replica bool, sched *netSchedule) (*repSample, error) {
	rep := &repSample{Kind: netEngine}
	runtime.GC()
	heap0 := memStats().HeapAlloc
	t0 := time.Now()
	s, err := startStack(r.pol, replica)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.SetupS = time.Since(t0).Seconds()

	lw := lastWrites{}
	for leg, l := range []struct {
		streams [][]netOp
		check   func(*wire.Response) bool
	}{legRead: {sched.read[0], okFound}, legWrite: {sched.write[0], okStatus}, legTPCC: {sched.tpcc[0], okStatus}} {
		ls, failed := s.drive(legNames[leg], l.streams, nil, l.check)
		r.failed += int64(failed)
		rep.Legs[leg] = ls
	}
	lw.note(sched.write[0])
	for _, db := range s.dbs {
		if err := db.Flush(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var devBytes int64
	for _, db := range s.dbs {
		devBytes += deviceBytes(db)
		rep.Footprint += db.Footprint().Total()
	}
	rep.HeapMB = (float64(memStats().HeapAlloc) - float64(heap0) - float64(devBytes)) / 1e6
	if rep.LiveBytes, err = s.liveBytes(); err != nil {
		return nil, err
	}

	ms, same, err := s.crashRecover()
	if err != nil {
		return nil, err
	}
	rep.RecoverMs, rep.DigestMoved = ms, !same
	n, bad := s.verify(lw)
	r.attempted += int64(n)
	if bad > 0 {
		r.failed += int64(bad)
		r.logf("FAIL %d of %d written keys lost their last acked value", bad, n)
	}
	return rep, nil
}

// netWorkload is the wire (replica=false) or cluster (replica=true) run: K
// repetitions, each on a freshly built, loaded and started stack.
func (r *runner) netWorkload(replica bool) (metricSet, error) {
	sched := genNetSchedule(r.pol, replica, 1)
	var reps []*repSample
	var setups []float64
	for i := 0; i < r.pol.Reps; i++ {
		rep, err := r.runNetRep(replica, &sched)
		if err != nil {
			return nil, err
		}
		r.count(rep)
		reps, setups = append(reps, rep), append(setups, rep.SetupS)
		r.logRep(i, rep)
	}
	m := repsE2E(reps, sched.userBytes[0])
	m.set("setup_s", lowQ(setups))
	return m, nil
}
