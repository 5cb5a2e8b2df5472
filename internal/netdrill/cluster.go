package netdrill

import (
	"context"
	"fmt"
	"io"
	"time"

	"nstore/internal/cluster"
	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

// PinByKey pins every unrouted request (Part -1) to its testbed partition,
// key % partitions. Cluster mode needs this: the shard id IS the partition
// index, and a workload's co-location rule (all of a transaction's keys on
// one partition) must override the router's hash placement, which scatters
// raw keys by a different function.
func PinByKey(streams [][]*wire.Request, parts int) {
	for _, reqs := range streams {
		for _, r := range reqs {
			if r.Part < 0 {
				r.Part = int32(r.Key % uint64(parts))
			}
		}
	}
}

// seedCluster replicates a locally loaded database into the cluster: every
// partition's rows are scanned and shipped through the router as batched,
// partition-pinned TXN frames, so the load lands exactly where the workload's
// partitioning rule expects it — replicated to the backups like any other
// write. Returns the number of rows shipped.
func seedCluster(ctx context.Context, r *netclient.Router, src *testbed.DB) (int, error) {
	const batch = 64
	total := 0
	for p := 0; p < src.Partitions(); p++ {
		for _, sc := range src.Schemas() {
			var ops []wire.Request
			flush := func() error {
				if len(ops) == 0 {
					return nil
				}
				resp, err := r.DoRetry(ctx, &wire.Request{Part: int32(p), Op: wire.OpTxn, Ops: ops})
				if err != nil {
					return err
				}
				// KeyExists means a retried batch already committed before an
				// ambiguous drop: the TXN is atomic, so the whole batch is in.
				if resp.Status != wire.StatusOK && resp.Status != wire.StatusKeyExists {
					return &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
				}
				total += len(ops)
				ops = nil
				return nil
			}
			var flushErr error
			err := src.Engine(p).ScanRange(sc.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
				ops = append(ops, wire.Request{Op: wire.OpPut, Table: sc.Name, Key: pk, Row: core.CloneRow(row)})
				if len(ops) >= batch {
					if flushErr = flush(); flushErr != nil {
						return false
					}
				}
				return true
			})
			if err == nil {
				err = flushErr
			}
			if err == nil {
				err = flush()
			}
			if err != nil {
				return total, fmt.Errorf("netdrill: seed partition %d table %s: %w", p, sc.Name, err)
			}
		}
	}
	return total, nil
}

// withCluster stands up an in-process replicated cluster, replicates the
// locally loaded database into it, and runs drive through a shard router
// with conns connections a node. It reports the replicated load before the
// drive and the shard map after it.
func withCluster(ccfg cluster.Config, src *testbed.DB, conns int, out io.Writer, drive func(ctx context.Context, c *cluster.Cluster, r *netclient.Router) error) error {
	if ccfg.Shards != src.Partitions() {
		return fmt.Errorf("netdrill: cluster shards (%d) must match workload partitions (%d)", ccfg.Shards, src.Partitions())
	}
	c, err := cluster.Start(ccfg)
	if err != nil {
		return err
	}
	defer c.Close()
	r := c.Router(netclient.Config{
		Conns:    conns,
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
	fmt.Fprintf(out, "cluster: %d nodes, %d shards; replicated %d rows in %v\n",
		ccfg.Nodes, ccfg.Shards, rows, time.Since(start).Round(time.Millisecond))
	if err := drive(ctx, c, r); err != nil {
		return err
	}
	for s, route := range c.Coordinator().Map().Shards {
		fmt.Fprintf(out, "shard %d: epoch %d primary=%s backup=%s\n", s, route.Epoch, route.Primary, route.Backup)
	}
	return nil
}

// RunCluster drives the partition-pinned request streams through a cluster
// of ccfg.Nodes nodes. With f.ClusterKill the drill SIGKILLs shard 0's
// primary after the first third of each stream and drives the rest through
// the failover — the throughput split shows the blackout's cost.
func RunCluster(ccfg cluster.Config, src *testbed.DB, streams [][]*wire.Request, f *Flags, out io.Writer) error {
	return withCluster(ccfg, src, f.Conns, out, func(ctx context.Context, c *cluster.Cluster, r *netclient.Router) error {
		fmt.Fprintf(out, "driving %d requests (%d workers/partition) through the shard router...\n",
			total(streams), f.Clients)
		phase := func(name string, streams [][]*wire.Request) error {
			res, err := Drive(ctx, r, streams, f.Clients)
			if err == nil {
				fmt.Fprintf(out, "%s: %.0f req/sec (%d acked, %d failed in %v)\n",
					name, res.Throughput(), res.Acked, res.Failed, res.Elapsed.Round(time.Millisecond))
			}
			return err
		}
		if !f.ClusterKill {
			return phase("replicated", streams)
		}
		head := make([][]*wire.Request, len(streams))
		tail := make([][]*wire.Request, len(streams))
		for i, s := range streams {
			cut := len(s) / 3
			head[i], tail[i] = s[:cut], s[cut:]
		}
		if err := phase("pre-kill", head); err != nil {
			return err
		}
		victim := c.Coordinator().Map().Shards[0].Primary
		for _, n := range c.Nodes {
			if n.Addr() == victim {
				n.Kill()
			}
		}
		fmt.Fprintf(out, "killed shard 0's primary (%s); driving on through the failover...\n", victim)
		return phase("through-failover", tail)
	})
}
