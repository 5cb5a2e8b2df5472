package netdrill

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"nstore/internal/wire"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// The drill binaries are built once per test process, into a directory
// TestMain removes.
var bins struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// drillBin returns the path of cmd/<name>, building cmd/ycsb and cmd/tpcc on
// first use.
func drillBin(t *testing.T, name string) string {
	t.Helper()
	bins.once.Do(func() {
		if bins.dir, bins.err = os.MkdirTemp("", "netdrill-bins"); bins.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", bins.dir, "nstore/cmd/ycsb", "nstore/cmd/tpcc").CombinedOutput()
		if err != nil {
			bins.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if bins.err != nil {
		t.Fatal(bins.err)
	}
	return filepath.Join(bins.dir, name)
}

// Tiny workload sizes: every mode finishes in well under a second except
// the failover drills, which wait out one lease.
var (
	ycsbArgs = []string{"-tuples", "200", "-txns", "200", "-partitions", "2"}
	tpccArgs = []string{"-warehouses", "2", "-customers", "10", "-items", "50", "-txns", "100", "-partitions", "2"}
)

func args(base []string, extra ...string) []string {
	return append(append([]string{}, base...), extra...)
}

var (
	maskAddr = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	maskDur  = regexp.MustCompile(`\b(\d+(\.\d+)?(ns|µs|us|ms|s|m|h))+\b`)
	maskNum  = regexp.MustCompile(`\d+(\.\d+)?`)
)

// mask replaces each address with ADDR, each duration with DUR and each
// remaining number with N, line by line, so a report reads the same on
// every run.
func mask(out string) []string {
	var lines []string
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		l = maskAddr.ReplaceAllString(l, "ADDR")
		l = maskDur.ReplaceAllString(l, "DUR")
		lines = append(lines, strings.TrimRight(maskNum.ReplaceAllString(l, "N"), " "))
	}
	return lines
}

// requireLines fails unless want appears in got in order; other lines may
// come between them.
func requireLines(t *testing.T, got, want []string) {
	t.Helper()
	i := 0
	for _, l := range got {
		if i < len(want) && l == want[i] {
			i++
		}
	}
	if i < len(want) {
		t.Fatalf("report line %q missing (or out of order); masked report:\n%s", want[i], strings.Join(got, "\n"))
	}
}

// runDrill runs one command to completion and returns its stdout, failing
// the test on a non-zero exit.
func runDrill(t *testing.T, name string, argv []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(drillBin(t, name), argv...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstdout:\n%s\nstderr:\n%s", name, strings.Join(argv, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// exitCode runs one command and returns its exit status and stderr.
func exitCode(t *testing.T, name string, argv []string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(drillBin(t, name), argv...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

var (
	serveLines = []string{
		"serve: N acked, N aborted, N abandoned (clients); supervisor: N retries, N panics contained, N heals, N degraded",
		"final crash + recovery: DUR; N rows intact",
		"  part N: DUR (N records)",
		"  part N: DUR (N records)",
	}
	clusterHead = "cluster: N nodes, N shards; replicated N rows in DUR"
	shardLines  = []string{
		"shard N: epoch N primary=ADDR backup=ADDR",
		"shard N: epoch N primary=ADDR backup=ADDR",
	}
	// After shard 0's primary dies, the two-node cluster has no node left
	// to back either shard up.
	killedShardLines = []string{
		"shard N: epoch N primary=ADDR backup=",
		"shard N: epoch N primary=ADDR backup=",
	}
	killLines = []string{
		"pre-kill: N req/sec (N acked, N failed in DUR)",
		"killed shard N's primary (ADDR); driving on through the failover...",
		"through-failover: N req/sec (N acked, N failed in DUR)",
	}
)

func cat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestModeReports runs every drill mode of both commands at tiny sizes and
// checks that each report line the commands print is still printed, with
// numbers, durations and addresses masked.
func TestModeReports(t *testing.T) {
	ycsbLoad := "loading N tuples on nvm-inp (N partitions)..."
	tpccLoad := "loading N warehouses on nvm-inp (N partitions)..."
	cases := []struct {
		name, cmd string
		argv      []string
		want      []string
	}{
		{"ycsb/run", "ycsb", ycsbArgs, []string{
			ycsbLoad,
			"nvm-inp balanced/low-skew @dram: N txn/sec (N txns in DUR; wall DUR + stall DUR)",
			"NVM: N loads, N stores, N MB written, N fences",
			"footprint: table NMB index NMB log NMB ckpt NMB other NMB",
		}},
		{"tpcc/run", "tpcc", tpccArgs, []string{
			tpccLoad,
			"nvm-inp @dram: N txn/sec (N committed, N rolled back)",
			"NVM: N loads, N stores, N MB written, N fences",
			"per txn: N loads, N stores, N fences",
			"crash + recovery: DUR",
			"  part N: DUR (N records)",
			"  part N: DUR (N records)",
		}},
		{"ycsb/serve", "ycsb", args(ycsbArgs, "-serve", "-metrics", "127.0.0.1:0"),
			cat([]string{ycsbLoad, "metrics: http://ADDR/metrics"}, serveLines)},
		{"tpcc/serve", "tpcc", args(tpccArgs, "-serve"), cat([]string{tpccLoad}, serveLines)},
		{"ycsb/cluster", "ycsb", args(ycsbArgs, "-cluster", "2"), cat([]string{
			ycsbLoad, clusterHead,
			"driving N requests (N workers/partition) through the shard router...",
			"replicated: N req/sec (N acked, N failed in DUR)",
		}, shardLines)},
		{"tpcc/cluster", "tpcc", args(tpccArgs, "-cluster", "2"), cat([]string{
			tpccLoad, clusterHead,
			"driving N requests (N workers/partition) through the shard router...",
			"replicated: N req/sec (N acked, N failed in DUR)",
		}, shardLines)},
		{"ycsb/cluster-kill", "ycsb", args(ycsbArgs, "-cluster", "2", "-cluster-kill"), cat([]string{
			ycsbLoad, clusterHead,
			"driving N requests (N workers/partition) through the shard router...",
		}, killLines, killedShardLines)},
		{"tpcc/cluster-kill", "tpcc", args(tpccArgs, "-cluster", "2", "-cluster-kill"), cat([]string{
			tpccLoad, clusterHead,
			"driving N requests (N workers/partition) through the shard router...",
		}, killLines, killedShardLines)},
		{"tpcc/cluster-txn", "tpcc", args(tpccArgs, "-cluster", "2", "-cluster-txn"), cat([]string{
			tpccLoad, clusterHead,
			"driving N payments twice (N workers/partition): single-shard TXN, then cross-shard NPC...",
			"single-shard: N txn/sec (N committed in DUR)",
			"cross-shard:  N txn/sec (N committed in DUR) — N% of single-shard",
		}, shardLines)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireLines(t, mask(runDrill(t, tc.cmd, tc.argv)), tc.want)
		})
	}
	for _, tc := range []struct {
		cmd, load string
		argv      []string
	}{{"ycsb", ycsbLoad, ycsbArgs}, {"tpcc", tpccLoad, tpccArgs}} {
		t.Run(tc.cmd+"/listen-connect", func(t *testing.T) {
			server, client := listenConnect(t, tc.cmd, tc.argv)
			requireLines(t, mask(server), []string{
				tc.load,
				"metrics on http://ADDR/metrics",
				"listening on ADDR (N partitions)",
				"draining...",
				"served: {Committed:N Aborted:N Failed:N Retries:N Panics:N Heals:N HealFails:N Overloaded:N Recovering:N Degraded:N Reads:N ReadFails:N}",
			})
			requireLines(t, mask(client), []string{
				"driving N requests over N conns (N workers/partition) against ADDR...",
				"wire: N req/sec (N acked, N failed in DUR)",
			})
		})
	}
}

// listenConnect starts cmd -listen, drives it with cmd -connect, stops the
// server with an interrupt and returns both reports.
func listenConnect(t *testing.T, name string, argv []string) (server, client string) {
	out := &syncBuf{}
	srv := exec.Command(drillBin(t, name), args(argv, "-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0")...)
	srv.Stdout, srv.Stderr = out, out
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	re := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output:\n%s", out.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	client = runDrill(t, name, args(argv, "-connect", addr))
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("server: %v\noutput:\n%s", err, out.String())
	}
	return out.String(), client
}

// TestTPCCRefusesUnknownLatency: tpcc refuses a latency it has no profile
// for, as ycsb does, instead of running at DRAM latency.
func TestTPCCRefusesUnknownLatency(t *testing.T) {
	for _, name := range []string{"ycsb", "tpcc"} {
		argv := map[string][]string{"ycsb": ycsbArgs, "tpcc": tpccArgs}[name]
		code, stderr := exitCode(t, name, args(argv, "-latency", "4x"))
		if code != 2 || !strings.Contains(stderr, `unknown latency "4x"`) {
			t.Errorf("%s -latency 4x: exit %d, stderr %q; want exit 2 naming the latency", name, code, stderr)
		}
	}
}

// TestYCSBRefusesClusterTxn: YCSB has no cross-shard transaction schedule,
// so -cluster-txn is refused at validation instead of running the plain
// replicated drill.
func TestYCSBRefusesClusterTxn(t *testing.T) {
	code, stderr := exitCode(t, "ycsb", args(ycsbArgs, "-cluster", "2", "-cluster-txn"))
	if code != 2 || !strings.Contains(stderr, "-cluster-txn") {
		t.Fatalf("ycsb -cluster 2 -cluster-txn: exit %d, stderr %q; want exit 2 naming -cluster-txn", code, stderr)
	}
}

// TestYCSBRefusesUnknownSkew: ycsb refuses a -skew it has no distribution
// for, as it refuses an unknown -mix, instead of running low-skew.
func TestYCSBRefusesUnknownSkew(t *testing.T) {
	code, stderr := exitCode(t, "ycsb", args(ycsbArgs, "-skew", "bogus"))
	if code != 2 || !strings.Contains(stderr, `unknown skew "bogus"`) {
		t.Fatalf("ycsb -skew bogus: exit %d, stderr %q; want exit 2 naming the skew", code, stderr)
	}
}

// TestFaultRequiresServe: only -serve fires a fault, so a fault named in any
// other mode is refused at validation instead of ignored.
func TestFaultRequiresServe(t *testing.T) {
	code, stderr := exitCode(t, "ycsb", args(ycsbArgs, "-fault", "fsync-lost"))
	if code != 2 || !strings.Contains(stderr, "-fault") {
		t.Fatalf("ycsb -fault fsync-lost: exit %d, stderr %q; want exit 2 naming -fault", code, stderr)
	}
}

// TestServeRefusesUnknownFault: an unknown fault is refused at validation,
// exit 2, before the database is loaded.
func TestServeRefusesUnknownFault(t *testing.T) {
	code, stderr := exitCode(t, "ycsb", args(ycsbArgs, "-serve", "-fault", "bogus"))
	if code != 2 || !strings.Contains(stderr, `unknown fault "bogus"`) {
		t.Fatalf("ycsb -serve -fault bogus: exit %d, stderr %q; want exit 2 naming the fault", code, stderr)
	}
}

// digest hashes request streams as their wire encodings, each with its
// stream and position, so any change to a generated request shows.
func digest(t *testing.T, streams [][]*wire.Request) string {
	t.Helper()
	h := sha256.New()
	for s, reqs := range streams {
		for i, req := range reqs {
			payload, err := wire.EncodeRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(s)), uint64(i)), uint64(len(payload))))
			h.Write(payload)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// opStreams flattens DoTxn schedules to one request per op, so each op's
// partition pin is hashed too.
func opStreams(txns [][][]wire.Request) [][]*wire.Request {
	out := make([][]*wire.Request, len(txns))
	for s, stream := range txns {
		for _, ops := range stream {
			for i := range ops {
				out[s] = append(out[s], &ops[i])
			}
		}
	}
	return out
}

// TestScheduleDigests pins the wire schedules the drills and the benchmark
// generate, byte for byte, at two seeds.
func TestScheduleDigests(t *testing.T) {
	want := map[int64][4]string{
		42: {"51e171de9560477f", "88bcb917a71da788", "0bfe291adb66a799", "3cff0da330c5b81d"},
		7:  {"4356bd54420f380b", "bd974e84f9171797", "edf73ca0b44550d2", "6ae1b9fb9f4e8257"},
	}
	for seed, w := range want {
		ycfg := ycsb.Config{Tuples: 1000, Txns: 600, Partitions: 3, Mix: ycsb.Balanced, Skew: ycsb.HighSkew, Seed: seed}
		tcfg := tpcc.Config{Warehouses: 4, Customers: 30, Txns: 300, Partitions: 2, Seed: seed}
		single, cross := TPCCPaymentTxns(tcfg)
		got := [4]string{
			digest(t, YCSBRequests(ycfg)),
			digest(t, TPCCRequests(tcfg)),
			digest(t, opStreams(single)),
			digest(t, opStreams(cross)),
		}
		if got != w {
			t.Errorf("seed %d: schedule digests (ycsb, tpcc, payments single, cross) = %q, want %q", seed, got, w)
		}
	}
}
