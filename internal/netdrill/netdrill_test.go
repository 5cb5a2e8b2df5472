package netdrill

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"sync"
	"testing"
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

func newDB(t *testing.T, parts int, schemas []*core.Schema) *testbed.DB {
	t.Helper()
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.NVMLog,
		Partitions: parts,
		Env:        core.EnvConfig{DeviceSize: 128 << 20},
		Options:    core.Options{MemTableCap: 512},
		Schemas:    schemas,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestYCSBWireDrill drives the lowered YCSB schedule over loopback and
// checks the final state is digest-identical to an in-process run of the
// same schedule: the wire lowering (GET/RMW) must be semantically exact.
func TestYCSBWireDrill(t *testing.T) {
	cfg := ycsb.Config{Tuples: 400, Txns: 400, Partitions: 2, Mix: ycsb.Balanced, Skew: ycsb.LowSkew, Seed: 7}
	db := newDB(t, cfg.Partitions, ycsb.Schema(cfg))
	if err := ycsb.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	rt := serve.New(db, serve.Config{Seed: 7})
	srv, err := netserve.New(rt, "127.0.0.1:0", netserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := netclient.New(srv.Addr(), netclient.Config{Conns: 2})

	streams := YCSBRequests(cfg)
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	res, err := Drive(context.Background(), cl, streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked != int64(total) || res.Failed != 0 {
		t.Fatalf("acked %d failed %d, want %d/0", res.Acked, res.Failed, total)
	}
	cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	digest, err := db.StateDigest()
	if err != nil {
		t.Fatal(err)
	}

	ref := newDB(t, cfg.Partitions, ycsb.Schema(cfg))
	if err := ycsb.Load(ref, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ExecuteSequential(ycsb.Generate(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	refDigest, err := ref.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if digest != refDigest {
		t.Fatalf("wire drill diverged from in-process run:\n  wire %x\n  ref  %x", digest, refDigest)
	}
}

// TestTPCCWireDrill drives payment-shaped wire transactions and audits the
// money: every warehouse's YTD must grow by exactly the sum of the amounts
// the (deterministic) generator charged it.
func TestTPCCWireDrill(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Districts: 2, Customers: 30, Items: 100, InitialOrders: 30, Txns: 120, Partitions: 2, Seed: 7}
	db := newDB(t, cfg.Partitions, tpcc.Schemas())
	if err := tpcc.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	before := make(map[int]int64)
	for w := 1; w <= cfg.Warehouses; w++ {
		row, ok, err := db.Engine(cfg.PartitionOf(w)).Get(tpcc.TWarehouse, tpcc.WarehouseKey(w))
		if err != nil || !ok {
			t.Fatalf("warehouse %d: ok=%v err=%v", w, ok, err)
		}
		before[w] = row[tpcc.WYtd].I
	}

	streams := TPCCRequests(cfg)
	charged := make(map[int]int64)
	total := 0
	for _, reqs := range streams {
		for _, req := range reqs {
			w := int(req.Ops[0].Key)
			charged[w] += req.Ops[0].Cols[0].Val.I
			total++
		}
	}
	if total != cfg.Txns {
		t.Fatalf("generated %d txns, want %d", total, cfg.Txns)
	}

	rt := serve.New(db, serve.Config{Seed: 7})
	srv, err := netserve.New(rt, "127.0.0.1:0", netserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := netclient.New(srv.Addr(), netclient.Config{Conns: 2})
	res, err := Drive(context.Background(), cl, streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked != int64(total) || res.Failed != 0 {
		t.Fatalf("acked %d failed %d, want %d/0", res.Acked, res.Failed, total)
	}
	cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		row, ok, err := db.Engine(cfg.PartitionOf(w)).Get(tpcc.TWarehouse, tpcc.WarehouseKey(w))
		if err != nil || !ok {
			t.Fatalf("warehouse %d after drill: ok=%v err=%v", w, ok, err)
		}
		if got, want := row[tpcc.WYtd].I, before[w]+charged[w]; got != want {
			t.Fatalf("warehouse %d YTD = %d, want %d (+%d)", w, got, want, charged[w])
		}
	}
}

// syncBuf is a race-safe buffer for polling RunServer's output.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServerServesAndDrains boots the full -listen server loop on an
// ephemeral port, serves one request through it, and shuts it down through
// the stop channel.
func TestRunServerServesAndDrains(t *testing.T) {
	cfg := ycsb.Config{Tuples: 100, Txns: 100, Partitions: 2, Seed: 7}
	db := newDB(t, cfg.Partitions, ycsb.Schema(cfg))
	if err := ycsb.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	out := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- RunServer(db, "127.0.0.1:0", ServerConfig{Seed: 7, Stop: stop, Out: out, Errw: out})
	}()

	re := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output: %q", out.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	cl := netclient.New(addr, netclient.Config{})
	resp, err := cl.Do(context.Background(), &wire.Request{Part: -1, Op: wire.OpGet, Table: ycsb.TableName, Key: 0})
	if err != nil || resp.Status != wire.StatusOK || !resp.Found {
		t.Fatalf("get over RunServer: err=%v resp=%+v", err, resp)
	}
	cl.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	if s := out.String(); !regexp.MustCompile(`served: `).MatchString(s) {
		t.Fatalf("missing drain report in output: %q", s)
	}
}

// doerFunc answers DoRetry with a function of the request.
type doerFunc func(req *wire.Request) (*wire.Response, error)

func (f doerFunc) DoRetry(_ context.Context, req *wire.Request) (*wire.Response, error) {
	return f(req)
}

// TestDriveMixedFailures: one drive's failures may be of different error
// types (a refused status, then a dropped connection); each is counted, and
// the first is the one reported when nothing was acked.
func TestDriveMixedFailures(t *testing.T) {
	cl := doerFunc(func(req *wire.Request) (*wire.Response, error) {
		switch req.Key {
		case 0:
			return &wire.Response{Status: wire.StatusOK}, nil
		case 1:
			return &wire.Response{Status: wire.StatusAborted, Msg: "refused"}, nil
		}
		return nil, errors.New("connection reset")
	})
	get := func(key uint64) *wire.Request {
		return &wire.Request{Part: -1, Op: wire.OpGet, Table: ycsb.TableName, Key: key}
	}
	res, err := Drive(context.Background(), cl, [][]*wire.Request{{get(1), get(2), get(0)}}, 1)
	if err != nil || res.Acked != 1 || res.Failed != 2 {
		t.Fatalf("acked %d failed %d err %v, want 1/2/nil", res.Acked, res.Failed, err)
	}
	res, err = Drive(context.Background(), cl, [][]*wire.Request{{get(1), get(2)}}, 1)
	var se *wire.StatusError
	if !errors.As(err, &se) || res.Failed != 2 {
		t.Fatalf("failed %d err %v, want 2 failures reporting the refused status first", res.Failed, err)
	}
}
