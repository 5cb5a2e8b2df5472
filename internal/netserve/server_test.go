package netserve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

func schemas() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "n", Type: core.TInt},
			{Name: "s", Type: core.TString, Size: 64},
		},
	}}
}

func newDB(t testing.TB, kind testbed.EngineKind, parts int, group int) *testbed.DB {
	t.Helper()
	db, err := testbed.New(testbed.Config{
		Engine:     kind,
		Partitions: parts,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Options:    core.Options{GroupCommitSize: group},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// stack brings up runtime + server + client over loopback.
func stack(t testing.TB, kind testbed.EngineKind, parts int, scfg serve.Config, ncfg Config, ccfg netclient.Config) (*testbed.DB, *serve.Runtime, *Server, *netclient.Client) {
	t.Helper()
	db := newDB(t, kind, parts, 1)
	rt := serve.New(db, scfg)
	srv, err := New(rt, "127.0.0.1:0", ncfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := netclient.New(srv.Addr(), ccfg)
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		rt.Close()
	})
	return db, rt, srv, cl
}

func putReq(key uint64, n int64, s string) *wire.Request {
	return &wire.Request{Part: -1, Op: wire.OpPut, Table: "t", Key: key,
		Row: []core.Value{core.IntVal(int64(key)), core.IntVal(n), core.StrVal(s)}}
}

// TestLoopbackOps exercises every op and status through a real TCP
// connection on every engine family's representative.
func TestLoopbackOps(t *testing.T) {
	_, _, _, cl := stack(t, testbed.NVMLog, 2, serve.Config{}, Config{}, netclient.Config{})
	ctx := context.Background()

	must := func(req *wire.Request, want wire.Status) *wire.Response {
		t.Helper()
		resp, err := cl.Do(ctx, req)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		if resp.Status != want {
			t.Fatalf("%v: status %v (%s), want %v", req.Op, resp.Status, resp.Msg, want)
		}
		return resp
	}

	for k := uint64(0); k < 20; k++ {
		must(putReq(k, int64(k)*10, "v"), wire.StatusOK)
	}
	must(putReq(3, 0, "dup"), wire.StatusKeyExists)

	got := must(&wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 7}, wire.StatusOK)
	if !got.Found || got.Row[1].I != 70 || string(got.Row[2].S) != "v" {
		t.Fatalf("get 7 = %+v", got)
	}
	miss := must(&wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 999}, wire.StatusOK)
	if miss.Found {
		t.Fatal("get of absent key reported found")
	}

	// RMW with an additive column returns the pre-image.
	pre := must(&wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: 7, Cols: []wire.RmwCol{
		{Col: 1, Add: true, Val: core.IntVal(5)},
		{Col: 2, Val: core.StrVal("rmw")},
	}}, wire.StatusOK)
	if pre.Row[1].I != 70 {
		t.Fatalf("rmw pre-image = %+v", pre.Row)
	}
	after := must(&wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 7}, wire.StatusOK)
	if after.Row[1].I != 75 || string(after.Row[2].S) != "rmw" {
		t.Fatalf("rmw result = %+v", after.Row)
	}
	must(&wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: 999, Cols: []wire.RmwCol{{Col: 1, Val: core.IntVal(0)}}}, wire.StatusNotFound)

	// Scan one partition: keys are routed key%parts, partition 0 holds the
	// even keys in ascending order.
	scan := must(&wire.Request{Part: 0, Op: wire.OpScan, Table: "t", From: 0, To: 100, Limit: 5}, wire.StatusOK)
	if len(scan.Keys) != 5 || scan.Keys[0] != 0 || scan.Keys[4] != 8 {
		t.Fatalf("scan keys = %v", scan.Keys)
	}

	must(&wire.Request{Part: -1, Op: wire.OpDelete, Table: "t", Key: 19}, wire.StatusOK)
	must(&wire.Request{Part: -1, Op: wire.OpDelete, Table: "t", Key: 19}, wire.StatusNotFound)

	// Multi-op transaction: rmw + put + get, with per-sub responses.
	txn := must(&wire.Request{Part: -1, Op: wire.OpTxn, Ops: []wire.Request{
		{Op: wire.OpRmw, Table: "t", Key: 8, Cols: []wire.RmwCol{{Col: 1, Add: true, Val: core.IntVal(1)}}},
		{Op: wire.OpPut, Table: "t", Key: 100, Row: []core.Value{core.IntVal(100), core.IntVal(1), core.StrVal("h")}},
		{Op: wire.OpGet, Table: "t", Key: 8},
	}}, wire.StatusOK)
	if len(txn.Subs) != 3 || txn.Subs[0].Row[1].I != 80 || !txn.Subs[2].Found || txn.Subs[2].Row[1].I != 81 {
		t.Fatalf("txn subs = %+v", txn.Subs)
	}
	// A failing sub-op aborts the whole transaction: the put before it must
	// not survive.
	must(&wire.Request{Part: -1, Op: wire.OpTxn, Ops: []wire.Request{
		{Op: wire.OpPut, Table: "t", Key: 102, Row: []core.Value{core.IntVal(102), core.IntVal(1), core.StrVal("x")}},
		{Op: wire.OpDelete, Table: "t", Key: 7777},
	}}, wire.StatusNotFound)
	gone := must(&wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 102}, wire.StatusOK)
	if gone.Found {
		t.Fatal("aborted transaction leaked its put")
	}

	// BadRequest family: unknown table, short row, type mismatch, additive
	// string column, bad partition, bad rmw column, rmw column named twice.
	for _, req := range []*wire.Request{
		{Part: -1, Op: wire.OpGet, Table: "nope", Key: 1},
		{Part: -1, Op: wire.OpPut, Table: "t", Key: 1, Row: []core.Value{core.IntVal(1)}},
		{Part: -1, Op: wire.OpPut, Table: "t", Key: 1, Row: []core.Value{core.IntVal(1), core.StrVal("x"), core.StrVal("x")}},
		{Part: -1, Op: wire.OpRmw, Table: "t", Key: 1, Cols: []wire.RmwCol{{Col: 2, Add: true, Val: core.IntVal(1)}}},
		{Part: 9, Op: wire.OpGet, Table: "t", Key: 1},
		{Part: -1, Op: wire.OpRmw, Table: "t", Key: 1, Cols: []wire.RmwCol{{Col: 7, Val: core.IntVal(1)}}},
		{Part: -1, Op: wire.OpRmw, Table: "t", Key: 1, Cols: []wire.RmwCol{
			{Col: 1, Add: true, Val: core.IntVal(5)}, {Col: 1, Add: true, Val: core.IntVal(3)}}},
	} {
		must(req, wire.StatusBadRequest)
	}
}

// TestPipelining floods one connection with concurrent requests and checks
// every response lands on its own request.
func TestPipelining(t *testing.T) {
	_, _, _, cl := stack(t, testbed.InP, 2, serve.Config{}, Config{}, netclient.Config{Conns: 1})
	ctx := context.Background()
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			if resp, err := cl.DoRetry(ctx, putReq(k, int64(k), "p")); err != nil {
				errs <- err
			} else if resp.Status != wire.StatusOK {
				errs <- &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := cl.Do(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: uint64(i)})
		if err != nil || !resp.Found || resp.Row[1].I != int64(i) {
			t.Fatalf("key %d: err=%v resp=%+v", i, err, resp)
		}
	}
}

// TestOverloadedBackpressure blocks an executor, fills its queue, and checks
// the overflow surfaces as StatusOverloaded — retryable by contract — and
// that DoRetry rides it out once the executor unblocks.
func TestOverloadedBackpressure(t *testing.T) {
	_, rt, _, cl := stack(t, testbed.InP, 1, serve.Config{QueueDepth: 2}, Config{}, netclient.Config{RetryMax: 30})
	ctx := context.Background()

	block := make(chan struct{})
	go rt.Arm(ctx, 0, func() { <-block })
	time.Sleep(20 * time.Millisecond) // executor now parked in the arm txn

	// Saturate: the queue holds 2; keep firing until one bounces. Each Do
	// blocks in SubmitPart while its request sits in the queue, so fire
	// them from goroutines and collect the statuses.
	statuses := make(chan wire.Status, 10)
	for i := 0; i < 10; i++ {
		go func(k uint64) {
			resp, err := cl.Do(ctx, putReq(k, 1, "q"))
			if err != nil {
				statuses <- wire.StatusInternal
				return
			}
			statuses <- resp.Status
		}(uint64(i))
	}
	var sawOverloaded bool
	deadline := time.After(5 * time.Second)
	for i := 0; i < 10 && !sawOverloaded; i++ {
		select {
		case st := <-statuses:
			if st == wire.StatusOverloaded {
				sawOverloaded = true
			}
		case <-deadline:
			i = 10 // queued requests are parked behind the armed executor
		}
	}
	if !sawOverloaded {
		t.Fatal("queue depth 2 never produced StatusOverloaded")
	}
	close(block)

	// With the executor live again, DoRetry absorbs the backpressure.
	resp, err := cl.DoRetry(ctx, putReq(500, 1, "r"))
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("post-unblock put: err=%v resp=%+v", err, resp)
	}
}

// TestConnLimit pins the MaxConns contract: the connection over the limit
// is cut immediately and the client sees a transport error, while the
// original connection keeps serving.
func TestConnLimit(t *testing.T) {
	_, _, srv, cl := stack(t, testbed.InP, 1, serve.Config{}, Config{MaxConns: 1}, netclient.Config{})
	ctx := context.Background()
	if resp, err := cl.Do(ctx, putReq(1, 1, "a")); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("first conn: err=%v resp=%+v", err, resp)
	}
	cl2 := netclient.New(srv.Addr(), netclient.Config{NoRetryOnDrop: true, Timeout: 2 * time.Second})
	defer cl2.Close()
	if _, err := cl2.Do(ctx, putReq(2, 1, "b")); !errors.Is(err, netclient.ErrConnDropped) {
		t.Fatalf("over-limit conn: err=%v, want ErrConnDropped", err)
	}
	if resp, err := cl.Do(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 1}); err != nil || !resp.Found {
		t.Fatalf("original conn harmed by rejected one: err=%v resp=%+v", err, resp)
	}
}

// TestGracefulDrain parks the executor with requests already read off the
// socket, closes the server, and checks every in-flight request still gets
// its response — the flush-then-close half of the drain contract — and that
// the port stops accepting.
func TestGracefulDrain(t *testing.T) {
	db := newDB(t, testbed.NVMInP, 1, 1)
	rt := serve.New(db, serve.Config{QueueDepth: 16})
	defer rt.Close()
	srv, err := New(rt, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := netclient.New(srv.Addr(), netclient.Config{})
	defer cl.Close()
	ctx := context.Background()

	block := make(chan struct{})
	go rt.Arm(ctx, 0, func() { <-block })
	time.Sleep(20 * time.Millisecond)

	const n = 8
	results := make(chan *wire.Response, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(k uint64) {
			resp, err := cl.Do(ctx, putReq(k, int64(k), "d"))
			if err != nil {
				errs <- err
				return
			}
			results <- resp
		}(uint64(i))
	}
	time.Sleep(100 * time.Millisecond) // let the server read all n requests

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(50 * time.Millisecond)
	close(block) // drain can now finish

	for i := 0; i < n; i++ {
		select {
		case resp := <-results:
			if resp.Status != wire.StatusOK {
				t.Fatalf("drained request status %v (%s)", resp.Status, resp.Msg)
			}
		case err := <-errs:
			t.Fatalf("in-flight request dropped during drain: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("drain never delivered responses")
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	cl2 := netclient.New(srv.Addr(), netclient.Config{NoRetryOnDrop: true, DialTimeout: time.Second, Timeout: time.Second})
	defer cl2.Close()
	if _, err := cl2.Do(ctx, putReq(99, 1, "x")); err == nil {
		t.Fatal("server accepted a connection after Close")
	}
	// Every put that was in flight is durable.
	for i := uint64(0); i < n; i++ {
		if _, ok, err := db.Engine(0).Get("t", i); err != nil || !ok {
			t.Fatalf("drained key %d not durable: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestWireMetrics checks the wire_* surface shows real traffic.
func TestWireMetrics(t *testing.T) {
	_, rt, _, cl := stack(t, testbed.InP, 1, serve.Config{}, Config{}, netclient.Config{})
	ctx := context.Background()
	for k := uint64(0); k < 5; k++ {
		if _, err := cl.Do(ctx, putReq(k, 1, "m")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Do(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 1}); err != nil {
		t.Fatal(err)
	}
	snap := rt.Metrics().Snapshot()
	if snap.Counters["wire_conns"] < 1 {
		t.Fatalf("wire_conns = %d", snap.Counters["wire_conns"])
	}
	if snap.Counters["wire_op_put"] != 5 || snap.Counters["wire_op_get"] != 1 {
		t.Fatalf("op counters: put=%d get=%d", snap.Counters["wire_op_put"], snap.Counters["wire_op_get"])
	}
	if snap.Counters["wire_status_ok"] != 6 {
		t.Fatalf("wire_status_ok = %d", snap.Counters["wire_status_ok"])
	}
	h, ok := snap.Histograms["wire_op_put_ns"]
	if !ok || h.Count != 5 {
		t.Fatalf("wire_op_put_ns histogram = %+v (ok=%v)", h, ok)
	}
}

// TestRecoveringStatus checks a mid-heal partition surfaces as
// StatusRecovering over the wire and DoRetry outlasts the heal.
func TestRecoveringStatus(t *testing.T) {
	db, rt, _, cl := stack(t, testbed.Log, 1, serve.Config{}, Config{}, netclient.Config{RetryMax: 60, RetryCap: 20 * time.Millisecond})
	ctx := context.Background()
	for k := uint64(0); k < 10; k++ {
		if resp, err := cl.Do(ctx, putReq(k, int64(k), "r")); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put %d: err=%v resp=%+v", k, err, resp)
		}
	}
	healed := make(chan error, 1)
	go func() { healed <- rt.RecoverAll(0) }()
	// Hammer during the heal window: only OK / Recovering / Overloaded are
	// acceptable, and DoRetry must land every one eventually.
	for k := uint64(10); k < 30; k++ {
		resp, err := cl.DoRetry(ctx, putReq(k, int64(k), "r"))
		if err != nil {
			t.Fatalf("put %d during heal: %v", k, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("put %d during heal: %v (%s)", k, resp.Status, resp.Msg)
		}
	}
	if err := <-healed; err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 30; k++ {
		if _, ok, err := db.Engine(0).Get("t", k); err != nil || !ok {
			t.Fatalf("key %d lost across heal: ok=%v err=%v", k, ok, err)
		}
	}
}
