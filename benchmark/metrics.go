package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"nstore/internal/testbed"
)

// metricDef is one row of BENCHMARK.json. The catalogue below is the single
// source: -print-spec writes BENCHMARK.json from it and a test asserts the
// committed file still matches.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"nvm-engines", "nvm-inp, nvm-cow, nvm-log in-process: nvm, pmalloc, nvbtree, NVM-pager cowbtree, lsm, arena vlog and mvcc do all the work; pmfs, FsWAL, wire, serve, cluster none"},
	{"disk-engines", "inp, cow, log in-process: pmfs, FsWAL, checkpoints, btree, file-pager cowbtree, logeng+lsm+FS vlog, bloom do the work; nvbtree, NVM pager and every serving layer none"},
	{"wire", "nvm-inp behind serve+netserve on loopback via netclient: wire, netserve, netclient, serve and mvcc reads are most of the time and the engine little"},
	{"cluster", "3 nodes x 2 shards of nvm-inp via netclient.Router: log shipping/REPL_ACK, txn2pc and the router dominate; an ack now waits for a second hop, so a wire gain that costs replication shows"},
}

// End-to-end metrics: the ones a later change is gated on. Bounds are the
// allowed worsening relative to the parent's median. Only the exact device and
// memory counts, and the mandatory set-up time, hold a bound on this box; every
// other wall-clock quantity was demoted by the issue's rule (README "Bounds,
// and what was demoted").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"dev_us_txn", "us", "lower", 0.05},
	{"write_amp", "ratio", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.02},
	{"heap_mb", "MB", "lower", 0.05},
}

// wallClockDefs are the demoted wall-clock metrics of a workload's own legs.
// An end-to-end run still measures them over its K repetitions and prints and
// records them, without a bound; the traced run reports them as the per-layer
// metrics leg.* and lat.* from its single repetition.
var wallClockDefs = []metricDef{
	{Name: "read_txn_s", Unit: "1/s", Better: "higher"},
	{Name: "write_txn_s", Unit: "1/s", Better: "higher"},
	{Name: "tpcc_txn_s", Unit: "1/s", Better: "higher"},
	{Name: "write_p95_us", Unit: "us", Better: "lower"},
	{Name: "tpcc_tail_us", Unit: "us", Better: "lower"},
	{Name: "recover_ms", Unit: "ms", Better: "lower"},
}

func perLayerDefs() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, e := range testbed.Kinds {
		p := "engine." + string(e) + "."
		add(p+"read_txn_s", "1/s", "higher")
		add(p+"write_txn_s", "1/s", "higher")
		add(p+"tpcc_txn_s", "1/s", "higher")
		add(p+"recover_ms", "ms", "lower")
		add(p+"write_p999_us", "us", "lower")
		add(p+"loads_txn", "count", "lower")
		add(p+"stores_txn", "count", "lower")
		add(p+"fences_txn", "count", "lower")
		add(p+"wall_share", "ratio", "lower")
		add(p+"storage_share", "ratio", "lower")
		add(p+"recovery_share", "ratio", "lower")
		add(p+"index_share", "ratio", "lower")
	}
	for _, m := range [][3]string{
		{"nvm.read_hit_ns", "ns", "lower"}, {"nvm.read_miss_ns", "ns", "lower"},
		{"nvm.write_flush_fence_ns", "ns", "lower"}, {"nvm.cache_hit_rate", "ratio", "higher"},
		{"pmalloc.alloc_free_ns", "ns", "lower"}, {"pmfs.write_fsync_us", "us", "lower"},
		{"core.wal_append_flush_us", "us", "lower"}, {"core.row_codec_ns", "ns", "lower"},
		{"btree.get_ns", "ns", "lower"}, {"btree.put_ns", "ns", "lower"},
		{"nvbtree.get_ns", "ns", "lower"}, {"nvbtree.put_ns", "ns", "lower"},
		{"cowbtree.get_ns", "ns", "lower"}, {"cowbtree.put_commit_us", "us", "lower"},
		{"bloom.test_ns", "ns", "lower"},
		{"lsm.flushes_ktxn", "count", "lower"}, {"lsm.compactions_ktxn", "count", "lower"},
		{"lsm.stall_ms", "ms", "lower"},
		{"vlog.append_sync_us", "us", "lower"}, {"vlog.read_ns", "ns", "lower"}, {"vlog.space_amp", "ratio", "lower"},
		{"mvcc.read_ns", "ns", "lower"}, {"mvcc.heap_mb", "MB", "lower"},
		{"ladder.read.engine_us", "us", "lower"}, {"ladder.read.serve_us", "us", "lower"}, {"ladder.read.net_us", "us", "lower"},
		{"ladder.write.engine_us", "us", "lower"}, {"ladder.write.serve_us", "us", "lower"},
		{"ladder.write.net_us", "us", "lower"}, {"ladder.write.repl_us", "us", "lower"},
		{"ladder.txn.twopc_us", "us", "lower"},
		{"wire.encode_req_ns", "ns", "lower"}, {"wire.decode_req_ns", "ns", "lower"}, {"wire.req_bytes", "count", "lower"},
		{"netserve.allocs_req", "count", "lower"}, {"serve.ack_p50_us", "us", "lower"},
		{"cluster.repl_ack_p50_us", "us", "lower"}, {"cluster.failover_blackout_ms", "ms", "lower"},
		{"txn2pc.retries_frac", "ratio", "lower"},
		{"leg.read_txn_s", "1/s", "higher"}, {"leg.write_txn_s", "1/s", "higher"}, {"leg.tpcc_txn_s", "1/s", "higher"},
		{"leg.recover_ms", "ms", "lower"},
		{"lat.read_p50_us", "us", "lower"}, {"lat.write_p50_us", "us", "lower"}, {"lat.write_p95_us", "us", "lower"},
		{"lat.write_p99_us", "us", "lower"}, {"lat.tpcc_p99_us", "us", "lower"}, {"lat.tpcc_tail_us", "us", "lower"},
		{"go.allocs_txn", "count", "lower"}, {"go.alloc_bytes_txn", "count", "lower"}, {"go.gc_pause_ms", "ms", "lower"},
		{"bench.rep_spread", "ratio", "lower"}, {"bench.counter_drift", "ratio", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
	} {
		add(m[0], m[1], m[2])
	}
	return out
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs(),
	}
}

func specJSON() []byte {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(b, '\n')
}

// metricValue and result are the last line a run prints.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects named values and resolves them against a list of
// definitions: every defined metric must be set exactly once and be finite.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if _, dup := m[name]; dup {
		panic("metric set twice: " + name)
	}
	m[name] = v
}

func (m metricSet) resolve(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics missing or not finite: %s", strings.Join(missing, ", "))
	}
	return out, nil
}
