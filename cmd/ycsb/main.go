// Command ycsb runs one YCSB configuration and prints the throughput and
// NVM perf counters — a standalone driver for the workload of §5.1.
//
// Usage:
//
//	ycsb -engine nvm-inp -mix balanced -skew low -latency 2x \
//	     -tuples 20000 -txns 20000 -partitions 4
//
// Drill modes (mutually exclusive):
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

	"nstore"
	"nstore/internal/cluster"
	"nstore/internal/core"
	"nstore/internal/netdrill"
	"nstore/internal/nvm"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/workload/ycsb"
)

func main() {
	engine := flag.String("engine", "nvm-inp", "storage engine: inp, cow, log, nvm-inp, nvm-cow, nvm-log")
	mixName := flag.String("mix", "balanced", "mixture: read-only, read-heavy, balanced, write-heavy")
	skewName := flag.String("skew", "low", "skew: low or high")
	latency := flag.String("latency", "dram", "NVM latency: dram, 2x, 8x")
	tuples := flag.Int("tuples", 20000, "rows in usertable")
	txns := flag.Int("txns", 20000, "transactions")
	partitions := flag.Int("partitions", 4, "partitions")
	cache := flag.Int("cache", 128<<10, "simulated CPU cache per partition (bytes)")
	seed := flag.Int64("seed", 42, "workload and fault-schedule seed")
	drill := netdrill.Register(flag.CommandLine)
	flag.Parse()
	if err := drill.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

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
	skew := ycsb.LowSkew
	if *skewName == "high" {
		skew = ycsb.HighSkew
	}
	profile := nvm.ProfileDRAM
	switch *latency {
	case "2x":
		profile = nvm.ProfileLowNVM
	case "8x":
		profile = nvm.ProfileHighNVM
	case "dram":
	default:
		fmt.Fprintf(os.Stderr, "unknown latency %q\n", *latency)
		os.Exit(2)
	}

	cfg := ycsb.Config{
		Tuples: *tuples, Txns: *txns, Partitions: *partitions,
		Mix: mix, Skew: skew, Seed: *seed,
	}
	if drill.Connect != "" {
		// Client mode needs no local database: the server loaded the same
		// -tuples/-partitions configuration; this side just generates and
		// drives the identical schedule over the wire.
		err := netdrill.RunClient(drill.Connect, netdrill.YCSBRequests(cfg), drill.Conns, drill.Clients, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ycsb:", err)
			os.Exit(1)
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
		Options: core.Options{MemTableCap: 512, CheckpointEvery: *txns / *partitions},
		Schemas: ycsb.Schema(cfg),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsb:", err)
		os.Exit(1)
	}
	fmt.Printf("loading %d tuples on %s (%d partitions)...\n", *tuples, *engine, *partitions)
	if err := ycsb.Load(db, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ycsb: load:", err)
		os.Exit(1)
	}
	db.ResetStats()
	if drill.Cluster > 0 {
		// Replicated drill: replicate the loaded database into an in-process
		// cluster (one shard per partition) and drive the schedule through
		// the shard router, pinned by the workload's own key%parts rule.
		streams := netdrill.YCSBRequests(cfg)
		netdrill.PinByKey(streams, *partitions)
		err := netdrill.RunCluster(cluster.Config{
			Engine: nstore.EngineKind(*engine),
			Shards: *partitions,
			Seed:   *seed,
			Env: core.EnvConfig{
				DeviceSize: 256 << 20 / int64(*partitions),
				Profile:    profile,
				CacheSize:  *cache,
			},
			Options: core.Options{MemTableCap: 512},
			Schemas: ycsb.Schema(cfg),
		}, db, streams, drill, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ycsb:", err)
			os.Exit(1)
		}
		return
	}
	if drill.Listen != "" {
		err := netdrill.RunServer(db, drill.Listen, netdrill.ServerConfig{
			Seed: *seed, Metrics: drill.Metrics, Out: os.Stdout, Errw: os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ycsb:", err)
			os.Exit(1)
		}
		return
	}
	if drill.Serve {
		// The -serve fault drill: concurrent clients drive the workload
		// through the supervised runtime while the chosen fault fires on
		// every partition mid-traffic; the drill verifies committed data
		// survives the live recoveries plus a final power cycle.
		err := serve.RunDrill(db, ycsb.Generate(cfg), ycsb.Schema(cfg), serve.DrillConfig{
			Clients: drill.Clients, Fault: drill.Fault, FaultAfter: drill.FaultAfter,
			Seed: *seed, WantRows: int64(*tuples), Metrics: drill.Metrics,
			Out: os.Stdout, Errw: os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ycsb:", err)
			os.Exit(1)
		}
		return
	}
	res, err := db.ExecuteSequential(ycsb.Generate(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsb: run:", err)
		os.Exit(1)
	}
	if err := db.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "ycsb: flush:", err)
		os.Exit(1)
	}
	s := db.Stats()
	fmt.Printf("%s %s/%s @%s: %.0f txn/sec (%d txns in %v; wall %v + stall %v)\n",
		*engine, mix.Name, skew.Name, profile.Name,
		res.Throughput(), res.Txns, res.Elapsed.Round(1000), res.Wall.Round(1000), res.Stall.Round(1000))
	fmt.Printf("NVM: %d loads, %d stores, %.1f MB written, %d fences\n",
		s.Loads, s.Stores, float64(s.BytesWritten)/(1<<20), s.Fences)
	fp := db.Footprint()
	fmt.Printf("footprint: table %.1fMB index %.1fMB log %.1fMB ckpt %.1fMB other %.1fMB\n",
		mb(fp.Table), mb(fp.Index), mb(fp.Log), mb(fp.Checkpoint), mb(fp.Other))
}

func mb(n int64) float64 { return float64(n) / (1 << 20) }
