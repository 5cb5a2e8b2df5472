// Command nvbench regenerates the paper's tables and figures on the
// emulated NVM device.
//
// Usage:
//
//	nvbench [-run all|fig1|ycsb|tpcc|recovery|breakdown|footprint|costmodel|nodesize|synclat|ablations]
//	        [-scale small|medium] [-partitions N] [-tuples N] [-txns N] [-tpcc-txns N] [-seed N]
//	        [-short] [-out DIR]
//
// The ycsb and tpcc experiments additionally write machine-readable
// BENCH_<workload>.json artifacts (the /metrics snapshot schema) into
// -out. -short runs a tiny per-engine smoke pass instead and writes
// BENCH_smoke.json. The serving layers (wire, replication, 2PC, snapshot
// reads, value separation) are measured by `bash benchmark/run.sh`, not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nstore/internal/bench"
)

func main() {
	run := flag.String("run", "all", "experiment to run (comma-separated): all, fig1, ycsb, tpcc, recovery, breakdown, footprint, costmodel, nodesize, synclat, ablations")
	scaleName := flag.String("scale", "small", "experiment scale: small or medium")
	partitions := flag.Int("partitions", 0, "override partition count")
	tuples := flag.Int("tuples", 0, "override YCSB tuple count")
	txns := flag.Int("txns", 0, "override YCSB transaction count")
	tpccTxns := flag.Int("tpcc-txns", 0, "override TPC-C transaction count")
	seed := flag.Int64("seed", 0, "override workload seed")
	short := flag.Bool("short", false, "run the tiny smoke pass only and write BENCH_smoke.json")
	out := flag.String("out", ".", "directory for BENCH_*.json artifacts")
	flag.Parse()

	var scale bench.Scale
	switch *scaleName {
	case "small":
		scale = bench.SmallScale()
	case "medium":
		scale = bench.MediumScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *partitions > 0 {
		scale.Partitions = *partitions
	}
	if *tuples > 0 {
		scale.YCSBTuples = *tuples
	}
	if *txns > 0 {
		scale.YCSBTxns = *txns
	}
	if *tpccTxns > 0 {
		scale.TPCCTxns = *tpccTxns
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	artifact := func(workload string, ms []bench.Measurement) {
		path := filepath.Join(*out, "BENCH_"+workload+".json")
		if err := bench.WriteSnapshot(path, workload, ms); err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	start := time.Now()
	if *short {
		scale = bench.SmokeScale()
		if *seed != 0 {
			scale.Seed = *seed
		}
		ms, err := bench.New(scale, os.Stdout).Smoke()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: %v\n", err)
			os.Exit(1)
		}
		artifact("smoke", ms)
		fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	r := bench.New(scale, os.Stdout)
	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		ms, err := r.Run(name)
		if errors.Is(err, bench.ErrUnknownExperiment) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: %v\n", err)
			os.Exit(1)
		}
		if ms != nil {
			artifact(name, ms)
		}
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
