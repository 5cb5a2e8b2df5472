// Command benchmark is the repository's one repeatable benchmark: four
// workloads that stress different layers, five end-to-end metrics with fixed
// regression bounds, six wall-clock metrics recorded without one, a separate
// traced run that yields the per-layer metrics, and a -compare gate. See
// README.md in this directory.
//
//	bash benchmark/run.sh -workload nvm-engines -seed 42
//	bash benchmark/run.sh -workload wire -seed 42 -trace 1
//	bash benchmark/run.sh -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// runner carries one run's policy and its correctness tally.
type runner struct {
	workload  string
	pol       policy
	log       io.Writer
	attempted int64
	failed    int64
}

// record is one line of an -out file: what -compare reads.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Elapsed  float64 `json:"elapsed_s"`
	Result   result  `json:"result"`
	// Info holds an end-to-end run's demoted wall-clock metrics: measured and
	// recorded, but not part of the result line and never gated.
	Info map[string]metricValue `json:"info,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "nvm-engines, disk-engines, wire or cluster")
	seed := fs.Int64("seed", 42, "seed of the generated schedules")
	seconds := fs.Float64("seconds", nominalSeconds, "measuring time the schedules are sized for")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "where the traced run writes its spans (default .bench_build/trace-<workload>.json)")
	out := fs.String("out", "", "append this run's result to a JSON-lines file for -compare")
	compare := fs.String("compare", "", "old.jsonl: compare it against the new.jsonl given as argument and exit non-zero on a regression")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json as the metric catalogue defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		stdout.Write(specJSON())
		return 0
	case *compare != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: -compare old.jsonl new.jsonl")
			return 2
		}
		return compareFiles(*compare, fs.Arg(0), stdout, stderr)
	}
	known := false
	for _, w := range workloadDefs {
		known = known || w.Name == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: -workload {nvm-engines|disk-engines|wire|cluster} [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}

	scale := *seconds / nominalSeconds
	r := &runner{workload: *workload, log: stderr, pol: newPolicy(*workload, *seed, scale)}
	start := time.Now()
	var ms metricSet
	var err error
	defs, infoDefs := endToEndDefs, wallClockDefs
	if *trace == 1 {
		defs, infoDefs = perLayerDefs(), nil
		path := *traceOut
		if path == "" {
			path = ".bench_build/trace-" + *workload + ".json"
		}
		ms, err = r.tracedRun(path, scale)
	} else {
		ms, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	metrics, err := ms.resolve(defs)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	info, err := ms.resolve(infoDefs)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}

	fmt.Fprintf(stdout, "workload %s seed %d: ops_total %d ops_failed %d (%.1fs)\n",
		*workload, *seed, res.Attempted, res.Failed, time.Since(start).Seconds())
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %16.4f %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	for _, d := range infoDefs {
		fmt.Fprintf(stdout, "%-34s %16.4f %s (not gated)\n", d.Name, info[d.Name].Value, d.Unit)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *workload, Seed: *seed, Seconds: *seconds,
			Trace: *trace, Elapsed: time.Since(start).Seconds(), Result: res, Info: info}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func (r *runner) endToEnd() (metricSet, error) {
	switch r.workload {
	case "wire":
		return r.netWorkload(false)
	case "cluster":
		return r.netWorkload(true)
	}
	return r.engineWorkload(engineSets[r.workload])
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
