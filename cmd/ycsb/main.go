// Command ycsb runs one YCSB configuration and prints the throughput and
// NVM perf counters — a standalone driver for the workload of §5.1.
//
// Usage:
//
//	ycsb -engine nvm-inp -mix balanced -skew low -latency 2x \
//	     -tuples 20000 -txns 20000 -partitions 4
//
// Drill modes (mutually exclusive; see package netdrill):
//
//	-serve          in-process fault drill through the serving runtime
//	-listen ADDR    load the database, then serve it over the wire protocol
//	-connect ADDR   drive the same pre-generated schedule against a server
//	-cluster N      drive through an in-process replicated cluster of N nodes
//	                (-cluster-kill adds a mid-drive primary kill + failover)
package main

import (
	"flag"
	"fmt"
	"os"

	"nstore/internal/netdrill"
	"nstore/internal/testbed"
	"nstore/internal/wire"
	"nstore/internal/workload/ycsb"
)

func main() {
	mixName := flag.String("mix", "balanced", "mixture: read-only, read-heavy, balanced, write-heavy")
	skewName := flag.String("skew", "low", "skew: low or high")
	tuples := flag.Int("tuples", 20000, "rows in usertable")
	txns := flag.Int("txns", 20000, "transactions")
	drill := netdrill.Register(flag.CommandLine)
	flag.Parse()

	var mix ycsb.Mix
	for _, m := range ycsb.Mixes {
		if m.Name == *mixName {
			mix = m
		}
	}
	if mix.Name == "" {
		fmt.Fprintf(os.Stderr, "unknown mix %q\n", *mixName)
		os.Exit(2)
	}
	skews := map[string]ycsb.Skew{"low": ycsb.LowSkew, "high": ycsb.HighSkew}
	skew, ok := skews[*skewName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown skew %q\n", *skewName)
		os.Exit(2)
	}
	// A read-modify-write workload over a fixed table: every key is loaded
	// once, and the run neither inserts nor deletes.
	cfg := ycsb.Config{
		Tuples: *tuples, Txns: *txns, Partitions: drill.Partitions,
		Mix: mix, Skew: skew, Seed: drill.Seed,
	}
	netdrill.Main(drill, netdrill.Workload{
		Name:            "ycsb",
		Size:            fmt.Sprintf("%d tuples", *tuples),
		Schemas:         ycsb.Schema(cfg),
		CheckpointEvery: *txns / max(drill.Partitions, 1), // Main refuses -partitions 0
		Load:            func(db *testbed.DB) error { return ycsb.Load(db, cfg) },
		Txns:            func() [][]testbed.Txn { return ycsb.Generate(cfg) },
		Requests:        func() [][]*wire.Request { return netdrill.YCSBRequests(cfg) },
		WantRows:        int64(*tuples),
		Label:           mix.Name + "/" + skew.Name,
		Tally: func(res testbed.Result) string {
			return fmt.Sprintf("%d txns in %v; wall %v + stall %v",
				res.Txns, res.Elapsed.Round(1000), res.Wall.Round(1000), res.Stall.Round(1000))
		},
	})
}
