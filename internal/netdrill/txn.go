package netdrill

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nstore/internal/cluster"
	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
	"nstore/internal/workload/tpcc"
)

// TPCCPaymentTxns pre-generates two payment schedules as op lists for
// Router.DoTxn: `single` keeps every transaction on its home warehouse's
// partition (DoTxn degrades it to one OpTxn frame, one server transaction), `cross`
// sends every customer to a warehouse homed on a DIFFERENT partition, so the
// warehouse/district/history writes and the customer write split across two
// shards and the router runs full percolator 2PC. Both schedules share one
// history-sequence namespace, so a drill can run them back to back against
// the same cluster without key collisions.
//
// The two schedules are the same transaction count, shape, and contention
// profile — the throughput ratio isolates what the prewrite round trips and
// the primary-commit ordering cost on top of a single TXN frame.
func TPCCPaymentTxns(cfg tpcc.Config) (single, cross [][][]wire.Request) {
	if cfg.Warehouses == 0 {
		cfg.Warehouses = 8
	}
	if cfg.Districts == 0 {
		cfg.Districts = 10
	}
	if cfg.Customers == 0 {
		cfg.Customers = 120
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 8
	}
	homes := make([][]int, cfg.Partitions)
	var away [][]int // warehouses NOT homed on partition p, per p
	for w := 1; w <= cfg.Warehouses; w++ {
		homes[cfg.PartitionOf(w)] = append(homes[cfg.PartitionOf(w)], w)
	}
	away = make([][]int, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		for w := 1; w <= cfg.Warehouses; w++ {
			if cfg.PartitionOf(w) != p {
				away[p] = append(away[p], w)
			}
		}
	}
	// Distinct namespace from TPCCRequests' (1<<31 | ...) so the modes never
	// collide on history keys within one process.
	histSeq := make([]int, cfg.Warehouses+1)
	histBase := 1<<30 | int(cfg.Seed&0xfff)<<16
	for w := range histSeq {
		histSeq[w] = histBase
	}
	perPart := cfg.Txns / cfg.Partitions
	single = make([][][]wire.Request, cfg.Partitions)
	cross = make([][][]wire.Request, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		if len(homes[p]) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p*130363+29)))
		for i := 0; i < perPart; i++ {
			w := homes[p][rng.Intn(len(homes[p]))]
			d := 1 + rng.Intn(cfg.Districts)
			c := 1 + rng.Intn(cfg.Customers)
			amount := int64(1 + rng.Intn(5000))
			histSeq[w]++
			single[p] = append(single[p], paymentOps(cfg, p, w, w, d, c, histSeq[w], amount))
			// The cross twin: same home warehouse, customer at a remote one.
			rw := w
			if len(away[p]) > 0 {
				rw = away[p][rng.Intn(len(away[p]))]
			}
			histSeq[w]++
			cross[p] = append(cross[p], paymentOps(cfg, p, w, rw, d, c, histSeq[w], amount))
		}
	}
	return single, cross
}

// paymentOps is one payment as DoTxn input: YTD rides up at the home
// warehouse and district, the customer's balance moves at the customer's
// home partition (cw's — remote in the cross schedule), and the history row
// lands at home. Every op carries an explicit Part pin: the cluster places
// warehouses by the workload's co-location rule, not the router's key hash.
func paymentOps(cfg tpcc.Config, p, w, cw, d, c, seq int, amount int64) []wire.Request {
	cp := int32(cfg.PartitionOf(cw))
	return []wire.Request{
		{Part: int32(p), Op: wire.OpRmw, Table: tpcc.TWarehouse, Key: tpcc.WarehouseKey(w),
			Cols: []wire.RmwCol{{Col: tpcc.WYtd, Add: true, Val: core.IntVal(amount)}}},
		{Part: int32(p), Op: wire.OpRmw, Table: tpcc.TDistrict, Key: tpcc.DistrictKey(w, d),
			Cols: []wire.RmwCol{{Col: tpcc.DYtd, Add: true, Val: core.IntVal(amount)}}},
		{Part: cp, Op: wire.OpRmw, Table: tpcc.TCustomer, Key: tpcc.CustomerKey(cw, d, c),
			Cols: []wire.RmwCol{
				{Col: tpcc.CBalance, Add: true, Val: core.IntVal(-amount)},
				{Col: tpcc.CYtdPayment, Add: true, Val: core.IntVal(amount)},
				{Col: tpcc.CPaymentCnt, Add: true, Val: core.IntVal(1)},
			}},
		{Part: int32(p), Op: wire.OpPut, Table: tpcc.THistory, Key: tpcc.HistoryKey(w, seq),
			Row: []core.Value{
				core.IntVal(int64(seq)),
				core.IntVal(int64(c & 0xfff)),
				core.IntVal(int64(d)),
				core.IntVal(int64(w)),
				core.IntVal(0),
				core.IntVal(amount),
				core.StrVal("payment-history-data"),
			}},
	}
}

// DriveTxn pushes per-partition transaction streams through Router.DoTxn
// with `clients` workers per stream. An aborted transaction (a reader
// force-resolved it, or its prewrite lost a lock race) retries whole — a
// fresh transaction id, nothing applied from the losing attempt. KeyExists
// counts as acked: the history insert is unique per transaction, so it is
// the ack a dropped connection swallowed. ErrTxnUnknown counts as failed —
// re-running an RMW transaction whose outcome is unknown could double-apply.
func DriveTxn(ctx context.Context, r *netclient.Router, streams [][][]wire.Request, clients int) (Result, error) {
	if clients <= 0 {
		clients = 1
	}
	var res Result
	var acked, failed atomic.Int64
	var firstErr atomic.Value
	debug := os.Getenv("NETDRILL_DEBUG") != ""
	start := time.Now()
	var wg sync.WaitGroup
	for p, txns := range streams {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(txns [][]wire.Request, p, c int) {
				defer wg.Done()
				// Jittered retry backoff: colliding workers sleeping identical
				// round-indexed delays retry in lockstep and collide forever.
				rng := rand.New(rand.NewSource(int64(c)*1e6 + int64(len(txns))))
				backoff := func(round int) {
					time.Sleep(time.Duration(500+rng.Intn(2000*(1+round))) * time.Microsecond)
				}
				for i := c; i < len(txns); i += clients {
					landed := false
					for round := 0; round < 100 && !landed; round++ {
						resp, err := r.DoTxn(ctx, txns[i])
						switch {
						case errors.Is(err, netclient.ErrTxnUnknown):
							failed.Add(1)
							firstErr.CompareAndSwap(nil, err)
							return
						case err != nil:
							// Any other DoTxn error fenced and aborted the
							// attempt before returning (a hot lock can outlast
							// a prewrite's routed retries); the whole
							// transaction is safe to re-run.
							if debug && round >= 10 {
								fmt.Fprintf(os.Stderr, "drivetxn: p%d/c%d txn %d round %d: err %v\n", p, c, i, round, err)
							}
							backoff(round)
						case resp.Status == wire.StatusOK || resp.Status == wire.StatusKeyExists:
							landed = true
							acked.Add(1)
						case resp.Status == wire.StatusAborted || resp.Status == wire.StatusLocked:
							if debug && round >= 10 {
								fmt.Fprintf(os.Stderr, "drivetxn: p%d/c%d txn %d round %d: %v %s\n", p, c, i, round, resp.Status, resp.Msg)
							}
							backoff(round)
						default:
							failed.Add(1)
							firstErr.CompareAndSwap(nil, error(&wire.StatusError{Status: resp.Status, Msg: resp.Msg}))
							return
						}
					}
					if !landed {
						failed.Add(1)
						firstErr.CompareAndSwap(nil, errors.New("netdrill: transaction never committed in 100 rounds"))
					}
				}
			}(txns, p, c)
		}
	}
	debugDone := make(chan struct{})
	if os.Getenv("NETDRILL_DEBUG") != "" {
		go func() {
			for {
				select {
				case <-debugDone:
					return
				case <-time.After(2 * time.Second):
					fmt.Fprintf(os.Stderr, "drivetxn: acked=%d failed=%d\n", acked.Load(), failed.Load())
				}
			}
		}()
	}
	wg.Wait()
	close(debugDone)
	res.Elapsed = time.Since(start)
	res.Acked = acked.Load()
	res.Failed = failed.Load()
	if res.Failed > 0 {
		err, _ := firstErr.Load().(error)
		return res, fmt.Errorf("netdrill: %d transactions failed: %w", res.Failed, err)
	}
	return res, nil
}

// RunClusterTxn is the -cluster-txn drill: stand up a replicated cluster
// with the 2PC tables attached, replicate the loaded warehouses into it,
// then drive the same payment schedule twice — single-shard TXN frames,
// then cross-shard 2PC (every customer remote) — and print the throughput
// comparison (the benchmark's ladder.txn.twopc_us is the measured figure).
func RunClusterTxn(ccfg cluster.Config, src *testbed.DB, cfg tpcc.Config, f *Flags, out io.Writer) error {
	if out == nil {
		out = os.Stdout
	}
	if ccfg.Shards != src.Partitions() {
		return fmt.Errorf("netdrill: cluster shards (%d) must match workload partitions (%d)", ccfg.Shards, src.Partitions())
	}
	ccfg.Nodes = f.Cluster
	ccfg.Schemas = txn2pc.AugmentSchemas(ccfg.Schemas)
	c, err := cluster.Start(ccfg)
	if err != nil {
		return err
	}
	defer c.Close()
	r := c.Router(netclient.Config{
		Conns:    f.Conns,
		Seed:     ccfg.Seed,
		RetryMax: 40,
		RetryCap: 100 * time.Millisecond,
	})
	defer r.Close()
	ctx := context.Background()

	start := time.Now()
	rows, err := seedCluster(ctx, r, src)
	if err != nil {
		return err
	}
	single, cross := TPCCPaymentTxns(cfg)
	total := 0
	for _, s := range single {
		total += len(s)
	}
	fmt.Fprintf(out, "cluster: %d nodes, %d shards; replicated %d rows in %v\n",
		f.Cluster, ccfg.Shards, rows, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "driving %d payments twice (%d workers/partition): single-shard TXN, then cross-shard 2PC...\n",
		total, f.Clients)

	sres, err := DriveTxn(ctx, r, single, f.Clients)
	if err != nil {
		return fmt.Errorf("netdrill: single-shard phase: %w", err)
	}
	fmt.Fprintf(out, "single-shard: %.0f txn/sec (%d committed in %v)\n",
		sres.Throughput(), sres.Acked, sres.Elapsed.Round(time.Millisecond))
	xres, err := DriveTxn(ctx, r, cross, f.Clients)
	if err != nil {
		return fmt.Errorf("netdrill: cross-shard phase: %w", err)
	}
	ret := 0.0
	if sres.Throughput() > 0 {
		ret = xres.Throughput() / sres.Throughput()
	}
	fmt.Fprintf(out, "cross-shard:  %.0f txn/sec (%d committed in %v) — %.0f%% of single-shard\n",
		xres.Throughput(), xres.Acked, xres.Elapsed.Round(time.Millisecond), 100*ret)

	m := c.Coordinator().Map()
	for s, route := range m.Shards {
		fmt.Fprintf(out, "shard %d: epoch %d primary=%s backup=%s\n", s, route.Epoch, route.Primary, route.Backup)
	}
	return nil
}
