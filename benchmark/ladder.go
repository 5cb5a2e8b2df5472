package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"nstore/internal/core"
	"nstore/internal/netdrill"
	"nstore/internal/netserve"
	"nstore/internal/wire"
	"nstore/internal/workload/ycsb"
)

// The layer ladder times the same request at successive depths of the stack:
// the engine call the server makes, the serving runtime around it, the
// loopback client around that, the replicated cluster around that. A layer's
// self time is the difference between adjacent depths' latencies. The depths
// take turns in blocks, so that a slow moment of the box lands on all depths
// alike. (Rotating per request would time thread wake-ups instead: after an
// in-process call the runtime's other threads are parked, and the next network
// call pays ~0.4 ms to wake them on this VM; a block is long enough for the
// scheduler and the network poller to settle into the state of a real leg.)
const (
	ladderN     = 1200 // requests per depth
	ladderBlock = 300  // consecutive requests per partition of one depth
)

// ladderOut carries the ladder's metrics and the latency of the deepest rung
// of each ladder, which is by construction the sum of that ladder's self times.
type ladderOut struct {
	m                            metricSet
	readNet, writeNet, writeRepl float64 // us
}

// reconRow is one line of the reconciliation table: a sum of parts against an
// independently measured whole.
type reconRow struct {
	What  string
	Parts float64
	Whole float64
	Tol   float64 // allowed |parts-whole|/whole
	Slack float64 // or this much in absolute terms, for wholes too small for a ratio
	Unit  string
	// Soft rows compare two wall-clock samples taken at different moments
	// (the ladder's deepest rung against the same request in a network leg).
	// They are printed, but a miss does not fail the run: on this box two
	// samples of the same loopback request differ by 10-40 % often enough that
	// a hard check would make correctness a coin toss (README).
	Soft bool
}

func (r reconRow) relErr() float64 {
	if r.Whole == 0 {
		if r.Parts == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(r.Parts-r.Whole) / math.Abs(r.Whole)
}

func (r reconRow) ok() bool {
	return r.relErr() <= r.Tol || math.Abs(r.Parts-r.Whole) <= r.Slack
}

// depth is one rung: a name and a closure that performs request i of
// partition p's stream.
type depth struct {
	name   string
	do     func(p, i int) error
	blocks []float64 // median latency (us) of each block
}

// timeDepths drives every rung under the workloads' client policy: one
// closed-loop goroutine per partition, so the scheduler and the network
// poller are in the state they are in during a network leg.
func timeDepths(ds []*depth, parts, n int) error {
	for lo := 0; lo < n; lo += ladderBlock {
		for _, d := range ds {
			lats := make([][]int64, parts)
			errs := make([]error, parts)
			var wg sync.WaitGroup
			for p := 0; p < parts; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := lo; i < lo+ladderBlock && i < n; i++ {
						t0 := time.Now()
						if err := d.do(p, i); err != nil {
							errs[p] = fmt.Errorf("ladder %s partition %d request %d: %w", d.name, p, i, err)
							return
						}
						lats[p] = append(lats[p], int64(time.Since(t0)))
					}
				}(p)
			}
			wg.Wait()
			for p := 0; p < parts; p++ {
				if errs[p] != nil {
					return errs[p]
				}
				d.blocks = append(d.blocks, percentileNs(lats[p], 50))
			}
		}
	}
	return nil
}

// p50 is the rung's latency: the lower quartile of its blocks' medians. The
// box's noise only ever slows a block down, so the fast-side quartile of
// several blocks repeats far better than one median over all requests.
func (d *depth) p50() float64 { return lowQ(d.blocks) }

// blockP50 applies the rungs' estimator to the latencies of a leg, cut into
// blocks of the same length, so that a ladder is reconciled against a whole
// measured the way its parts were.
func blockP50(lat []int64) float64 {
	var blocks []float64
	for lo := 0; lo < len(lat); lo += ladderBlock {
		blocks = append(blocks, percentileNs(lat[lo:min(lo+ladderBlock, len(lat))], 50))
	}
	return lowQ(blocks)
}

func histP50us(snapP50 []int64) float64 {
	var vs []float64
	for _, v := range snapP50 {
		if v > 0 {
			vs = append(vs, float64(v)/1e3)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// runLadder builds its own fixtures (a solo server and a cluster, both with
// the ladder's reduced YCSB table) so that every workload's traced run
// reports the same ladder.
func (r *runner) runLadder() (*ladderOut, error) {
	pol := r.pol
	if pol.YCSBTuples > 4000 {
		pol.YCSBTuples = 4000
	}
	n, parts := ladderN/pol.Partitions, pol.Partitions
	if small := pol.ReadTxns / 10; small < n {
		n = max(small, 8) // scaled-down runs (tests) shorten the ladder with everything else
	}
	wcfg := pol.ycsb(ycsb.WriteHeavy, ycsb.LowSkew, 2*parts*n)
	rmws := make([][]wire.Request, parts) // per partition: set-mode RMWs on that partition's keys
	for p, ops := range ycsb.GenerateOps(wcfg) {
		for _, o := range ops {
			if !o.Read && len(rmws[p]) < n {
				rmws[p] = append(rmws[p], wire.Request{Part: int32(p), Op: wire.OpRmw, Table: ycsb.TableName, Key: o.Key,
					Cols: []wire.RmwCol{{Col: o.Field, Val: core.BytesVal(o.Val)}}})
			}
		}
		if len(rmws[p]) < n {
			return nil, fmt.Errorf("ladder: schedule too short (%d updates)", len(rmws[p]))
		}
	}
	ctx := context.Background()
	out := &ladderOut{m: metricSet{}}

	solo, err := startStack(pol, false)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer solo.close()
	db, rt := solo.dbs[0], solo.rts[0]
	srs := make([]core.SnapshotReader, parts)
	for p := range srs {
		sr, ok := db.Engine(p).(core.SnapshotReader)
		if !ok {
			return nil, fmt.Errorf("ladder: %s serves no snapshots", db.Engine(p).Name())
		}
		srs[p] = sr
	}
	viewGet := func(v core.ReadView, k uint64) error {
		row, found, err := v.Get(ycsb.TableName, k)
		if err == nil && !found {
			err = fmt.Errorf("key %d missing", k)
		}
		_ = core.CloneRow(row)
		return err
	}
	okResp := func(resp *wire.Response, err error) error {
		if err == nil && resp.Status != wire.StatusOK {
			err = &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
		}
		return err
	}
	rEng := &depth{name: "read.engine", do: func(p, i int) error {
		v := srs[p].SnapshotView()
		defer v.Close()
		return viewGet(v, rmws[p][i].Key)
	}}
	rServe := &depth{name: "read.serve", do: func(p, i int) error {
		return rt.ReadPart(ctx, p, func(v core.ReadView) error { return viewGet(v, rmws[p][i].Key) })
	}}
	rNet := &depth{name: "read.net", do: func(p, i int) error {
		return okResp(solo.client.Do(ctx, &wire.Request{Part: int32(p), Op: wire.OpGet, Table: ycsb.TableName, Key: rmws[p][i].Key}))
	}}
	// The write rungs all execute the server's own lowering of the RMW
	// (netserve.ApplyOps), so each depth does identical engine work.
	wEng := &depth{name: "write.engine", do: func(p, i int) error {
		eng := db.Engine(p)
		if err := eng.Begin(); err != nil {
			return err
		}
		if err := netserve.ApplyOps(rmws[p][i : i+1])(eng); err != nil {
			return err
		}
		if err := eng.Commit(); err != nil {
			return err
		}
		return eng.Flush() // the lone request's group-commit barrier
	}}
	wServe := &depth{name: "write.serve", do: func(p, i int) error {
		return rt.SubmitPart(ctx, p, netserve.ApplyOps(rmws[p][i:i+1]))
	}}
	wNet := &depth{name: "write.net", do: func(p, i int) error {
		rq := rmws[p][i]
		return okResp(solo.client.Do(ctx, &rq))
	}}

	// Replicated cluster: the same RMW through the router, then payments as
	// single-shard TXN frames and as cross-shard 2PC.
	cl, err := startStack(pol, true)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer cl.close()
	wRepl := &depth{name: "write.repl", do: func(p, i int) error {
		rq := rmws[p][i]
		return okResp(cl.router.DoRetry(ctx, &rq))
	}}
	tcfg := pol.TPCC
	tcfg.Txns = parts * n
	tcfg.Seed = pol.Seed*16 + 15 // a history namespace no workload round uses
	single, cross := netdrill.TPCCPaymentTxns(tcfg)
	rngs := make([]*rand.Rand, parts)
	for p := range rngs {
		rngs[p] = rand.New(rand.NewSource(pol.Seed + int64(p)))
	}
	tSingle := &depth{name: "txn.single", do: func(p, i int) error { return cl.doTxn(ctx, single[p][i], rngs[p]) }}
	tCross := &depth{name: "txn.cross", do: func(p, i int) error { return cl.doTxn(ctx, cross[p][i], rngs[p]) }}

	if err := timeDepths([]*depth{rEng, rServe, rNet, wEng, wServe, wNet, wRepl, tSingle, tCross}, parts, n); err != nil {
		return nil, err
	}
	out.readNet, out.writeNet, out.writeRepl = rNet.p50(), wNet.p50(), wRepl.p50()
	out.m.set("ladder.read.engine_us", rEng.p50())
	out.m.set("ladder.read.serve_us", rServe.p50()-rEng.p50())
	out.m.set("ladder.read.net_us", rNet.p50()-rServe.p50())
	out.m.set("ladder.write.engine_us", wEng.p50())
	out.m.set("ladder.write.serve_us", wServe.p50()-wEng.p50())
	out.m.set("ladder.write.net_us", wNet.p50()-wServe.p50())
	out.m.set("ladder.write.repl_us", wRepl.p50()-wNet.p50())
	out.m.set("ladder.txn.twopc_us", tCross.p50()-tSingle.p50())

	// Allocation cost of the serving path, counted over the whole process
	// (client, server and engine share it) while only the net rungs run.
	ms0 := memStats()
	const allocN = 400
	for i := 0; i < allocN; i++ {
		if err := rNet.do(0, i%n); err != nil {
			return nil, err
		}
		if err := wNet.do(0, i%n); err != nil {
			return nil, err
		}
	}
	out.m.set("netserve.allocs_req", float64(memStats().Mallocs-ms0.Mallocs)/float64(2*allocN))
	snap := rt.Metrics().Snapshot()
	out.m.set("serve.ack_p50_us", histP50us([]int64{snap.Histograms["serve_part00_ack_ns"].P50NS}))

	// Two concurrent clients on the cluster: how often a cross-shard payment
	// has to be re-run, and the primaries' ship->ack latency so far.
	cfg2 := pol.TPCC
	cfg2.Txns = n
	cfg2.Seed = pol.Seed*16 + 14
	_, cross2 := netdrill.TPCCPaymentTxns(cfg2)
	streams := make([][]netOp, len(cross2))
	txns := 0
	for p := range cross2 {
		for _, t := range cross2[p] {
			streams[p] = append(streams[p], netOp{txn: t})
			txns++
		}
	}
	cl.retries.Store(0)
	leg, failed := cl.drive("tpcc", streams, nil, okStatus)
	r.attempted += int64(leg.Txns)
	r.failed += int64(failed)
	out.m.set("txn2pc.retries_frac", float64(cl.retries.Load())/float64(txns))
	var ship []int64
	for _, rtN := range cl.rts {
		sn := rtN.Metrics().Snapshot()
		for s := 0; s < pol.Partitions; s++ {
			ship = append(ship, sn.Histograms[fmt.Sprintf("cluster_shard%02d_ship_ack_ns", s)].P50NS)
		}
	}
	out.m.set("cluster.repl_ack_p50_us", histP50us(ship))

	// One node kill, last: the write path of shard 0 is dark from the kill of
	// its primary until the promoted backup acks.
	victim := cl.cl.Coordinator().Map().Shards[0].Primary
	for _, node := range cl.cl.Nodes {
		if node.Addr() == victim {
			node.Kill()
		}
	}
	killed := time.Now()
	for i := 0; ; i++ {
		rq := rmws[0][i%n]
		resp, err := cl.router.DoRetry(ctx, &rq)
		if err == nil && resp.Status == wire.StatusOK {
			break
		}
		if time.Since(killed) > 30*time.Second {
			return nil, fmt.Errorf("ladder: no ack within 30s of killing shard 0's primary")
		}
		time.Sleep(time.Millisecond)
	}
	out.m.set("cluster.failover_blackout_ms", float64(time.Since(killed))/1e6)
	return out, nil
}
