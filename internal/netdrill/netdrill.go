// Package netdrill is the shared plumbing behind the cmd/ycsb and cmd/tpcc
// drill modes: one flag set (-serve, -listen, -connect, -metrics, ...), a
// server loop that parks a loaded database behind the wire protocol, and a
// client driver that pushes pre-generated workload schedules through a
// netclient pool and reports throughput. The two commands differ only in
// how they build their request streams (YCSBRequests / TPCCRequests).
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

	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/netserve"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/wire"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// Flags is the drill flag set shared by cmd/ycsb and cmd/tpcc. The three
// modes are mutually exclusive: -serve runs the in-process fault drill,
// -listen parks the loaded database behind a TCP wire server, and -connect
// drives the workload against a remote server instead of a local database.
type Flags struct {
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

// Register installs the drill flags on fs, preserving the historical flag
// names both commands used before the plumbing was shared.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
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

// Validate rejects contradictory mode combinations.
func (f *Flags) Validate() error {
	n := 0
	if f.Serve {
		n++
	}
	if f.Listen != "" {
		n++
	}
	if f.Connect != "" {
		n++
	}
	if f.Cluster != 0 {
		n++
	}
	if n > 1 {
		return errors.New("netdrill: -serve, -listen, -connect and -cluster are mutually exclusive")
	}
	if f.Cluster != 0 && f.Cluster < 2 {
		return errors.New("netdrill: -cluster needs at least 2 nodes to replicate")
	}
	if f.ClusterKill && f.Cluster == 0 {
		return errors.New("netdrill: -cluster-kill requires -cluster")
	}
	if f.ClusterTxn && f.Cluster == 0 {
		return errors.New("netdrill: -cluster-txn requires -cluster")
	}
	if f.ClusterTxn && f.ClusterKill {
		return errors.New("netdrill: -cluster-txn and -cluster-kill are mutually exclusive")
	}
	return nil
}

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
	if clients <= 0 {
		clients = 1
	}
	var res Result
	var acked, failed atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for _, reqs := range streams {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(reqs []*wire.Request, c int) {
				defer wg.Done()
				for i, req := range reqs {
					if owner(req, i, clients) != c {
						continue
					}
					resp, err := cl.DoRetry(ctx, req)
					switch {
					case err != nil:
						failed.Add(1)
						firstErr.CompareAndSwap(nil, err)
					case resp.Status == wire.StatusOK || resp.Status == wire.StatusKeyExists:
						acked.Add(1)
					default:
						failed.Add(1)
						firstErr.CompareAndSwap(nil, error(&wire.StatusError{Status: resp.Status, Msg: resp.Msg}))
					}
				}
			}(reqs, c)
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Acked = acked.Load()
	res.Failed = failed.Load()
	if res.Acked == 0 && res.Failed > 0 {
		err, _ := firstErr.Load().(error)
		return res, fmt.Errorf("netdrill: every request failed: %w", err)
	}
	return res, nil
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
	if out == nil {
		out = os.Stdout
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	cl := netclient.New(addr, netclient.Config{
		Conns:    conns,
		RetryMax: 30,
	})
	defer cl.Close()
	fmt.Fprintf(out, "driving %d requests over %d conns (%d workers/partition) against %s...\n",
		total, conns, clients, addr)
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
