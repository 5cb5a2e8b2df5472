// Command tpcc runs one TPC-C configuration and prints the throughput,
// NVM perf counters, and recovery latency — a standalone driver for the
// workload of §5.1.
//
// Usage:
//
//	tpcc -engine nvm-inp -warehouses 8 -txns 8000 -partitions 8 -latency 2x
//
// Drill modes (mutually exclusive):
//
//	-serve          in-process fault drill through the serving runtime
//	-listen ADDR    load the database, then serve it over the wire protocol
//	-connect ADDR   drive payment-shaped wire transactions against a server
//	-cluster N      drive through an in-process replicated cluster of N nodes
//	                (-cluster-kill adds a mid-drive primary kill + failover;
//	                -cluster-txn drives payments as cross-shard 2PC vs
//	                single-shard TXN frames and prints both throughputs)
package main

import (
	"flag"
	"fmt"
	"os"

	"nstore"
	"nstore/internal/cluster"
	"nstore/internal/core"
	"nstore/internal/netdrill"
	"nstore/internal/nvm"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
)

func main() {
	engine := flag.String("engine", "nvm-inp", "storage engine: inp, cow, log, nvm-inp, nvm-cow, nvm-log")
	warehouses := flag.Int("warehouses", 4, "warehouses (at most 15: from 16 an order key reaches 2^24, which the orders table's secondary index refuses, and the load fails)")
	customers := flag.Int("customers", 100, "customers per district")
	items := flag.Int("items", 500, "items")
	txns := flag.Int("txns", 4000, "transactions")
	partitions := flag.Int("partitions", 4, "partitions")
	latency := flag.String("latency", "dram", "NVM latency: dram, 2x, 8x")
	cache := flag.Int("cache", 128<<10, "simulated CPU cache per partition (bytes)")
	seed := flag.Int64("seed", 42, "workload seed")
	doRecover := flag.Bool("recover", true, "crash and measure recovery at the end")
	drill := netdrill.Register(flag.CommandLine)
	flag.Parse()
	if err := drill.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	profile := nvm.ProfileDRAM
	switch *latency {
	case "2x":
		profile = nvm.ProfileLowNVM
	case "8x":
		profile = nvm.ProfileHighNVM
	}

	cfg := tpcc.Config{
		Warehouses: *warehouses, Customers: *customers, Items: *items,
		Txns: *txns, Partitions: *partitions, Seed: *seed,
	}
	if drill.Connect != "" {
		// Client mode: the server loaded the same warehouse configuration;
		// this side generates payment-shaped wire transactions and drives
		// them over the network.
		err := netdrill.RunClient(drill.Connect, netdrill.TPCCRequests(cfg), drill.Conns, drill.Clients, os.Stdout)
		if err != nil {
			fatal(err)
		}
		return
	}
	db, err := testbed.New(testbed.Config{
		Engine:     nstore.EngineKind(*engine),
		Partitions: *partitions,
		Env: core.EnvConfig{
			DeviceSize: 2 << 30 / int64(*partitions),
			Profile:    profile,
			CacheSize:  *cache,
		},
		Options: core.Options{MemTableCap: 512},
		Schemas: tpcc.Schemas(),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loading %d warehouses on %s (%d partitions)...\n", *warehouses, *engine, *partitions)
	if err := tpcc.Load(db, cfg); err != nil {
		fatal(err)
	}
	db.ResetStats()
	if drill.Cluster > 0 {
		ccfg := cluster.Config{
			Engine: nstore.EngineKind(*engine),
			Shards: *partitions,
			Seed:   *seed,
			Env: core.EnvConfig{
				DeviceSize: 256 << 20 / int64(*partitions),
				Profile:    profile,
				CacheSize:  *cache,
			},
			Options: core.Options{MemTableCap: 512},
			Schemas: tpcc.Schemas(),
		}
		var err error
		if drill.ClusterTxn {
			// Cross-shard 2PC drill: the same payments driven twice through
			// Router.DoTxn — all-local (one TXN frame) vs remote-customer
			// (percolator 2PC) — and the two throughputs printed.
			err = netdrill.RunClusterTxn(ccfg, db, cfg, drill, os.Stdout)
		} else {
			// Replicated drill: replicate the loaded warehouses into an
			// in-process cluster and drive payment-shaped transactions through
			// the shard router. TPCCRequests already pins Part to each txn's
			// home-warehouse partition, which doubles as the shard id.
			err = netdrill.RunCluster(ccfg, db, netdrill.TPCCRequests(cfg), drill, os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if drill.Listen != "" {
		err := netdrill.RunServer(db, drill.Listen, netdrill.ServerConfig{
			Seed: *seed, Metrics: drill.Metrics, Out: os.Stdout, Errw: os.Stderr,
		})
		if err != nil {
			fatal(err)
		}
		return
	}
	if drill.Serve {
		// The -serve fault drill; TPC-C inserts rows, so the expected
		// row count is unknown (-1 checks live == recovered instead).
		err := serve.RunDrill(db, tpcc.Generate(cfg), tpcc.Schemas(), serve.DrillConfig{
			Clients: drill.Clients, Fault: drill.Fault, FaultAfter: drill.FaultAfter,
			Seed: *seed, WantRows: -1, Metrics: drill.Metrics,
			Out: os.Stdout, Errw: os.Stderr,
		})
		if err != nil {
			fatal(err)
		}
		return
	}
	res, err := db.ExecuteSequential(tpcc.Generate(cfg))
	if err != nil {
		fatal(err)
	}
	if err := db.Flush(); err != nil {
		fatal(err)
	}
	s := db.Stats()
	fmt.Printf("%s @%s: %.0f txn/sec (%d committed, %d rolled back)\n",
		*engine, profile.Name, res.Throughput(), res.Committed, res.Aborted)
	fmt.Printf("NVM: %d loads, %d stores, %.1f MB written, %d fences\n",
		s.Loads, s.Stores, float64(s.BytesWritten)/(1<<20), s.Fences)
	if n := float64(res.Txns); n > 0 {
		fmt.Printf("per txn: %.1f loads, %.1f stores, %.1f fences\n",
			float64(s.Loads)/n, float64(s.Stores)/n, float64(s.Fences)/n)
	}

	if *doRecover {
		db.Crash()
		d, err := db.Recover()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("crash + recovery: %v\n", d)
		for _, rs := range db.RecoveryStats() {
			fmt.Printf("  part %d: %v (%d records)\n", rs.Partition, rs.Wall.Round(1000), rs.Records)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpcc:", err)
	os.Exit(1)
}
