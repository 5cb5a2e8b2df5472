// Package netdrill runs every drill of cmd/ycsb and cmd/tpcc. A command
// registers its workload's own flags beside the shared ones (Register),
// describes the workload (Workload) and hands both to Main, which owns the
// rest: the testbed build and load, the modes (-connect, -cluster, -listen,
// -serve or a plain in-process run) and the report. A mode, a flag or a
// report line is added here once, for both workloads.
package netdrill

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nstore/internal/cluster"
	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/netserve"
	"nstore/internal/nvm"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/wire"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// Flags is the flag set Main owns. The four modes are mutually
// exclusive: -serve runs the in-process fault drill, -listen parks the loaded
// database behind a TCP wire server, -connect drives the workload against a
// remote server instead of a local database, and -cluster drives it through
// an in-process replicated cluster. With none of them the workload runs
// in-process and the report prints its device counters.
type Flags struct {
	Engine     string
	Latency    string
	Partitions int
	Cache      int
	Seed       int64
	Recover    bool

	Serve       bool
	Clients     int
	Fault       string
	FaultAfter  int
	Metrics     string
	Listen      string
	Connect     string
	Conns       int
	Cluster     int
	ClusterKill bool
	ClusterTxn  bool
}

// Register installs Main's flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Engine, "engine", "nvm-inp", "storage engine: inp, cow, log, nvm-inp, nvm-cow, nvm-log")
	fs.StringVar(&f.Latency, "latency", "dram", "NVM latency: dram, 2x, 8x")
	fs.IntVar(&f.Partitions, "partitions", 4, "partitions")
	fs.IntVar(&f.Cache, "cache", 128<<10, "simulated CPU cache per partition (bytes)")
	fs.Int64Var(&f.Seed, "seed", 42, "workload and fault-schedule seed")
	fs.BoolVar(&f.Recover, "recover", true, "crash and measure recovery at the end")
	fs.BoolVar(&f.Serve, "serve", false, "run through the serving runtime (concurrent clients, supervised partitions)")
	fs.IntVar(&f.Clients, "clients", 2, "serve/connect mode: concurrent clients per partition")
	fs.StringVar(&f.Fault, "fault", "none", "serve mode: mid-traffic fault on every partition: none, fsync-transient, fsync-lost, fsync-torn, fence-lose, fence-reorder")
	fs.IntVar(&f.FaultAfter, "fault-after", 50, "serve mode: fsyncs/fences to let through before the fault fires")
	fs.StringVar(&f.Metrics, "metrics", "", "serve/listen mode: listen address for /metrics, /healthz and pprof (e.g. 127.0.0.1:8080, or :0 for an ephemeral port)")
	fs.StringVar(&f.Listen, "listen", "", "serve the loaded database over the wire protocol on this address (e.g. 127.0.0.1:7070)")
	fs.StringVar(&f.Connect, "connect", "", "drive the workload against a wire server at this address instead of a local database")
	fs.IntVar(&f.Conns, "conns", 4, "connect mode: client connection pool size")
	fs.IntVar(&f.Cluster, "cluster", 0, "drive the workload against an in-process replicated cluster of this many nodes (>= 2; one shard per partition, primary→backup log shipping in the ack path)")
	fs.BoolVar(&f.ClusterKill, "cluster-kill", false, "cluster mode: kill shard 0's primary a third of the way in and drive the rest through the failover")
	fs.BoolVar(&f.ClusterTxn, "cluster-txn", false, "cluster mode: drive payments as cross-shard 2PC transactions (customers at remote warehouses) vs single-shard TXN frames")
	return f
}

// profiles maps each -latency value to its device profile.
var profiles = map[string]nvm.Profile{"dram": nvm.ProfileDRAM, "2x": nvm.ProfileLowNVM, "8x": nvm.ProfileHighNVM}

// validate refuses a value no profile or mode can honour, contradictory mode
// combinations, and a mode the workload has no schedule for.
func (f *Flags) validate(w *Workload) error {
	if _, ok := profiles[f.Latency]; !ok {
		return fmt.Errorf("unknown latency %q", f.Latency)
	}
	arm, ok := faults[f.Fault]
	if !ok {
		return fmt.Errorf("unknown fault %q", f.Fault)
	}
	modes := 0
	for _, on := range []bool{f.Serve, f.Listen != "", f.Connect != "", f.Cluster != 0} {
		if on {
			modes++
		}
	}
	switch {
	case f.Partitions < 1:
		return errors.New("netdrill: -partitions must be at least 1")
	case modes > 1:
		return errors.New("netdrill: -serve, -listen, -connect and -cluster are mutually exclusive")
	case arm != nil && !f.Serve:
		return errors.New("netdrill: -fault requires -serve")
	case f.Cluster != 0 && f.Cluster < 2:
		return errors.New("netdrill: -cluster needs at least 2 nodes to replicate")
	case f.ClusterKill && f.Cluster == 0:
		return errors.New("netdrill: -cluster-kill requires -cluster")
	case f.ClusterTxn && f.Cluster == 0:
		return errors.New("netdrill: -cluster-txn requires -cluster")
	case f.ClusterTxn && f.ClusterKill:
		return errors.New("netdrill: -cluster-txn and -cluster-kill are mutually exclusive")
	case f.ClusterTxn && w.Payments == nil:
		return fmt.Errorf("netdrill: -cluster-txn needs a cross-shard transaction schedule, and %s has none", w.Name)
	}
	return nil
}

// Workload describes what a drill command runs. The schedules are built on
// demand, so a mode generates only the one it drives.
type Workload struct {
	// Name is the command's name, which prefixes its error messages.
	Name string
	// Size says what Load loads, for the report ("20000 tuples").
	Size    string
	Schemas []*core.Schema
	// CheckpointEvery sets the testbed's core.Options.CheckpointEvery.
	CheckpointEvery int
	Load            func(*testbed.DB) error
	// Txns is the in-process schedule, one list per partition: the plain
	// run's and -serve's.
	Txns func() [][]testbed.Txn
	// Requests is the schedule lowered to wire requests: -connect's and
	// -cluster's. In a cluster a request with no partition (Part -1) is
	// pinned to key % partitions, the workload's own rule, since the shard
	// id is the partition index.
	Requests func() [][]*wire.Request
	// Payments is -cluster-txn's schedule, the same transactions single-shard
	// and cross-shard (see TPCCPaymentTxns). A workload without one refuses
	// -cluster-txn.
	Payments func() (single, cross [][][]wire.Request)
	// WantRows is the row count -serve expects after its final power cycle,
	// or -1 for a workload that inserts, which checks live == recovered.
	WantRows int64
	// Label follows the engine in the run report's headline ("" for none),
	// and Tally is the headline's account of the transactions run.
	Label string
	Tally func(testbed.Result) string
}

// Main runs the drill f selects on w. It exits 2 on a flag value it refuses
// and 1 when the drill fails.
func Main(f *Flags, w Workload) {
	if err := f.validate(&w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(f, &w, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
		os.Exit(1)
	}
}

func run(f *Flags, w *Workload, out io.Writer) error {
	if f.Connect != "" {
		// The server loaded the same configuration; this side only generates
		// the identical schedule and drives it over the wire.
		return RunClient(f.Connect, w.Requests(), f.Conns, f.Clients, out)
	}
	engine := testbed.EngineKind(f.Engine)
	env := core.EnvConfig{DeviceSize: 2 << 30 / int64(f.Partitions), Profile: profiles[f.Latency], CacheSize: f.Cache}
	db, err := testbed.New(testbed.Config{
		Engine: engine, Partitions: f.Partitions, Env: env, Schemas: w.Schemas,
		Options: core.Options{MemTableCap: 512, CheckpointEvery: w.CheckpointEvery},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loading %s on %s (%d partitions)...\n", w.Size, f.Engine, f.Partitions)
	if err := w.Load(db); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	db.ResetStats()
	switch {
	case f.Cluster > 0:
		// The loaded database is replicated into the cluster, one shard per
		// partition.
		env.DeviceSize = 256 << 20 / int64(f.Partitions)
		ccfg := cluster.Config{Engine: engine, Nodes: f.Cluster, Shards: f.Partitions, Seed: f.Seed,
			Env: env, Options: core.Options{MemTableCap: 512}, Schemas: w.Schemas}
		if f.ClusterTxn {
			single, cross := w.Payments()
			return RunClusterTxn(ccfg, db, single, cross, f, out)
		}
		streams := w.Requests()
		PinByKey(streams, f.Partitions)
		return RunCluster(ccfg, db, streams, f, out)
	case f.Listen != "":
		return RunServer(db, f.Listen, ServerConfig{Seed: f.Seed, Metrics: f.Metrics, Out: out, Errw: os.Stderr})
	case f.Serve:
		return runServe(db, w, f, out, os.Stderr)
	}
	res, err := db.ExecuteSequential(w.Txns())
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	head := f.Engine
	if w.Label != "" {
		head += " " + w.Label
	}
	s, fp := db.Stats(), db.Footprint()
	fmt.Fprintf(out, "%s @%s: %.0f txn/sec (%s)\n", head, env.Profile.Name, res.Throughput(), w.Tally(res))
	fmt.Fprintf(out, "NVM: %d loads, %d stores, %.1f MB written, %d fences\n",
		s.Loads, s.Stores, mb(s.BytesWritten), s.Fences)
	if n := float64(res.Txns); n > 0 {
		fmt.Fprintf(out, "per txn: %.1f loads, %.1f stores, %.1f fences\n",
			float64(s.Loads)/n, float64(s.Stores)/n, float64(s.Fences)/n)
	}
	fmt.Fprintf(out, "footprint: table %.1fMB index %.1fMB log %.1fMB ckpt %.1fMB other %.1fMB\n",
		mb(fp.Table), mb(fp.Index), mb(fp.Log), mb(fp.Checkpoint), mb(fp.Other))
	if !f.Recover {
		return nil
	}
	db.Crash()
	d, err := db.Recover()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "crash + recovery: %v\n", d)
	for _, rs := range db.RecoveryStats() {
		fmt.Fprintf(out, "  part %d: %v (%d records)\n", rs.Partition, rs.Wall.Round(1000), rs.Records)
	}
	return nil
}

func mb[T int64 | uint64](n T) float64 { return float64(n) / (1 << 20) }

// ServerConfig parameterizes RunServer.
type ServerConfig struct {
	Seed    int64
	Metrics string // optional /metrics listen address
	// Stop, when non-nil, replaces SIGINT/SIGTERM as the shutdown signal
	// (tests drive the server loop through it).
	Stop <-chan struct{}
	Out  io.Writer
	Errw io.Writer
}

// RunServer parks db behind a wire server on listen and blocks until
// SIGINT/SIGTERM (or cfg.Stop), then drains in order: wire server first
// (in-flight requests finish and are acked), then the runtime (metrics
// servers torn down, buffered commits flushed).
func RunServer(db *testbed.DB, listen string, cfg ServerConfig) error {
	out, errw := cfg.Out, cfg.Errw
	if out == nil {
		out = os.Stdout
	}
	if errw == nil {
		errw = os.Stderr
	}
	rt := serve.New(db, serve.Config{Seed: cfg.Seed, OnEvent: func(ev serve.Event) {
		fmt.Fprintf(errw, "serve: part %d: %s (%v)\n", ev.Part, ev.Kind, ev.Err)
	}})
	if cfg.Metrics != "" {
		ms, err := rt.StartMetrics(cfg.Metrics)
		if err != nil {
			rt.Close()
			return err
		}
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", ms.Addr())
	}
	srv, err := netserve.New(rt, listen, netserve.Config{})
	if err != nil {
		rt.Close()
		return err
	}
	fmt.Fprintf(out, "listening on %s (%d partitions)\n", srv.Addr(), db.Partitions())

	stop := cfg.Stop
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		done := make(chan struct{})
		go func() { <-sig; close(done) }()
		stop = done
	}
	<-stop

	fmt.Fprintln(out, "draining...")
	if err := srv.Close(); err != nil {
		rt.Close()
		return err
	}
	if err := rt.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "served: %+v\n", rt.Stats())
	return nil
}

// Result aggregates one client drive.
type Result struct {
	Acked   int64 // requests answered StatusOK (or KeyExists on a retry — see Drive)
	Aborted int64 // transactions that rolled back cleanly (testbed.ErrAbort; -serve only)
	Failed  int64 // requests that exhausted retries or got a terminal error status
	Elapsed time.Duration
}

// Throughput is acked requests per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Acked) / r.Elapsed.Seconds()
}

// Doer abstracts the two client shapes a drill can drive: a single-server
// netclient.Client, or a netclient.Router fronting a replicated cluster.
type Doer interface {
	DoRetry(ctx context.Context, req *wire.Request) (*wire.Response, error)
}

// Drive pushes the per-partition request streams through the client with
// `clients` concurrent workers per stream, retrying retryable statuses and
// transport drops. StatusKeyExists counts as acked: drill schedules make
// every insert unique, so KeyExists on a retry is the ack an earlier dropped
// connection swallowed (the same resolution the chaos soak uses).
//
// Every key has one owning worker (see owner), so a stream's operations on a
// key reach the server in stream order and the final state equals a serial
// run of the stream whatever the interleaving of the workers.
func Drive(ctx context.Context, cl Doer, streams [][]*wire.Request, clients int) (Result, error) {
	clients = max(clients, 1)
	res, err := fanOut(len(streams), clients, func(t *tally, s, c int) {
		for i, req := range streams[s] {
			if owner(req, i, clients) != c {
				continue
			}
			resp, err := cl.DoRetry(ctx, req)
			switch {
			case err != nil:
				t.fail(err)
			case resp.Status == wire.StatusOK || resp.Status == wire.StatusKeyExists:
				t.acked.Add(1)
			default:
				t.fail(&wire.StatusError{Status: resp.Status, Msg: resp.Msg})
			}
		}
	})
	if res.Acked == 0 && res.Failed > 0 {
		return res, fmt.Errorf("netdrill: every request failed: %w", err)
	}
	return res, nil
}

// tally counts one drive's outcomes across its workers and keeps the first
// failure.
type tally struct {
	acked, aborted, failed atomic.Int64
	once                   sync.Once
	first                  error
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.once.Do(func() { t.first = err })
}

// fanOut runs worker(t, s, c) for each of clients workers c on each of n
// streams s, and returns their tally and first failure once all are done.
func fanOut(n, clients int, worker func(t *tally, s, c int)) (Result, error) {
	var t tally
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker(&t, s, c)
			}()
		}
	}
	wg.Wait()
	return Result{Acked: t.acked.Load(), Aborted: t.aborted.Load(), Failed: t.failed.Load(), Elapsed: time.Since(start)}, t.first
}

// total counts the entries of a schedule's streams.
func total[T any](streams [][]T) int {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	return n
}

// owner picks the worker that sends request i of a stream. A single-key
// request belongs to its key's worker: two set-mode RMWs of one field do not
// commute, and striping by index let two workers race them. The key is hashed
// first because a stream's keys are the ones congruent to its partition, which
// would leave workers idle whenever clients and partitions share a factor. A
// TXN frame has no one key; the drill's are additive RMWs plus a unique
// insert, which commute, so they keep index striping.
func owner(req *wire.Request, i, clients int) int {
	if req.Op == wire.OpTxn {
		return i % clients
	}
	return int(((req.Key * 0x9E3779B97F4A7C15) >> 32) % uint64(clients))
}

// RunClient connects to addr, drives the streams, and prints a throughput
// report. Failures are tolerated (a drill against a recovering server sees
// some) unless nothing at all succeeds.
func RunClient(addr string, streams [][]*wire.Request, conns, clients int, out io.Writer) error {
	cl := netclient.New(addr, netclient.Config{
		Conns:    conns,
		RetryMax: 30,
	})
	defer cl.Close()
	fmt.Fprintf(out, "driving %d requests over %d conns (%d workers/partition) against %s...\n",
		total(streams), conns, clients, addr)
	res, err := Drive(context.Background(), cl, streams, clients)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wire: %.0f req/sec (%d acked, %d failed in %v)\n",
		res.Throughput(), res.Acked, res.Failed, res.Elapsed.Round(time.Millisecond))
	return nil
}

// YCSBRequests lowers the declarative YCSB schedule to wire requests: reads
// become GETs, single-field updates become set-mode RMWs (idempotent, so
// retrying a dropped connection is safe). Routing is by key (Part -1), the
// same key%partitions rule the in-process workload uses.
func YCSBRequests(cfg ycsb.Config) [][]*wire.Request {
	opss := ycsb.GenerateOps(cfg)
	out := make([][]*wire.Request, len(opss))
	for p, ops := range opss {
		reqs := make([]*wire.Request, len(ops))
		for i, o := range ops {
			if o.Read {
				reqs[i] = &wire.Request{Part: -1, Op: wire.OpGet, Table: ycsb.TableName, Key: o.Key}
			} else {
				reqs[i] = &wire.Request{Part: -1, Op: wire.OpRmw, Table: ycsb.TableName, Key: o.Key,
					Cols: []wire.RmwCol{{Col: o.Field, Val: core.BytesVal(o.Val)}}}
			}
		}
		out[p] = reqs
	}
	return out
}

// TPCCRequests pre-generates payment-shaped wire transactions: per txn, add
// the amount to warehouse and district YTD, adjust the customer balance
// columns, and insert a history row — the paper's update-heavy multi-table
// transaction expressed as one pipelined TXN frame. The history insert is
// ordered last and its key is unique per transaction, so a retry of a txn
// that actually committed before a connection drop aborts on KeyExists
// before any RMW re-applies: exactly-once effects without server dedup.
func TPCCRequests(cfg tpcc.Config) [][]*wire.Request {
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
	for w := 1; w <= cfg.Warehouses; w++ {
		p := cfg.PartitionOf(w)
		homes[p] = append(homes[p], w)
	}
	// History sequences live in their own namespace, far above the
	// in-process generator's (seed&0xfff)<<20 base, so a wire drill against
	// a database that already ran tpcc.Generate never collides.
	histSeq := make([]int, cfg.Warehouses+1)
	histBase := 1<<31 | int(cfg.Seed&0xfff)<<20
	for w := range histSeq {
		histSeq[w] = histBase
	}
	perPart := cfg.Txns / cfg.Partitions
	out := make([][]*wire.Request, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		if len(homes[p]) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p*104729+17)))
		reqs := make([]*wire.Request, 0, perPart)
		for i := 0; i < perPart; i++ {
			w := homes[p][rng.Intn(len(homes[p]))]
			d := 1 + rng.Intn(cfg.Districts)
			c := 1 + rng.Intn(cfg.Customers)
			amount := int64(1 + rng.Intn(5000))
			histSeq[w]++
			reqs = append(reqs, paymentReq(p, w, d, tpcc.CustomerKey(w, d, c), histSeq[w], amount))
		}
		out[p] = reqs
	}
	return out
}

func paymentReq(p, w, d int, cKey uint64, seq int, amount int64) *wire.Request {
	return &wire.Request{
		Part: int32(p),
		Op:   wire.OpTxn,
		Ops: []wire.Request{
			{Op: wire.OpRmw, Table: tpcc.TWarehouse, Key: tpcc.WarehouseKey(w),
				Cols: []wire.RmwCol{{Col: tpcc.WYtd, Add: true, Val: core.IntVal(amount)}}},
			{Op: wire.OpRmw, Table: tpcc.TDistrict, Key: tpcc.DistrictKey(w, d),
				Cols: []wire.RmwCol{{Col: tpcc.DYtd, Add: true, Val: core.IntVal(amount)}}},
			{Op: wire.OpRmw, Table: tpcc.TCustomer, Key: cKey,
				Cols: []wire.RmwCol{
					{Col: tpcc.CBalance, Add: true, Val: core.IntVal(-amount)},
					{Col: tpcc.CYtdPayment, Add: true, Val: core.IntVal(amount)},
					{Col: tpcc.CPaymentCnt, Add: true, Val: core.IntVal(1)},
				}},
			{Op: wire.OpPut, Table: tpcc.THistory, Key: tpcc.HistoryKey(w, seq),
				Row: []core.Value{
					core.IntVal(int64(seq)),
					core.IntVal(int64(cKey & 0xfff)),
					core.IntVal(int64(d)),
					core.IntVal(int64(w)),
					core.IntVal(0),
					core.IntVal(amount),
					core.StrVal("payment-history-data"),
				}},
		},
	}
}
