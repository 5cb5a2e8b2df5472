// Command tpcc runs one TPC-C configuration and prints the throughput,
// NVM perf counters, and recovery latency — a standalone driver for the
// workload of §5.1.
//
// Usage:
//
//	tpcc -engine nvm-inp -warehouses 8 -txns 8000 -partitions 8 -latency 2x
//
// Drill modes (mutually exclusive; see package netdrill):
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

	"nstore/internal/netdrill"
	"nstore/internal/testbed"
	"nstore/internal/wire"
	"nstore/internal/workload/tpcc"
)

func main() {
	warehouses := flag.Int("warehouses", 4, "warehouses (at most 15: from 16 an order key reaches 2^24, which the orders table's secondary index refuses, and the load fails)")
	customers := flag.Int("customers", 100, "customers per district")
	items := flag.Int("items", 500, "items")
	txns := flag.Int("txns", 4000, "transactions")
	drill := netdrill.Register(flag.CommandLine)
	flag.Parse()

	// Warehouses are partitioned by home warehouse, and every wire
	// transaction is pinned to its home warehouse's partition, which
	// doubles as its shard in a cluster. New orders insert rows, so -serve
	// cannot know the final row count.
	cfg := tpcc.Config{
		Warehouses: *warehouses, Customers: *customers, Items: *items,
		Txns: *txns, Partitions: drill.Partitions, Seed: drill.Seed,
	}
	netdrill.Main(drill, netdrill.Workload{
		Name:     "tpcc",
		Size:     fmt.Sprintf("%d warehouses", *warehouses),
		Schemas:  tpcc.Schemas(),
		Load:     func(db *testbed.DB) error { return tpcc.Load(db, cfg) },
		Txns:     func() [][]testbed.Txn { return tpcc.Generate(cfg) },
		Requests: func() [][]*wire.Request { return netdrill.TPCCRequests(cfg) },
		Payments: func() (single, cross [][][]wire.Request) { return netdrill.TPCCPaymentTxns(cfg) },
		WantRows: -1,
		Tally: func(res testbed.Result) string {
			return fmt.Sprintf("%d committed, %d rolled back", res.Committed, res.Aborted)
		},
	})
}
