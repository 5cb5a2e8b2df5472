package netserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
)

// goldenStep is one labelled request of goldenScript.
type goldenStep struct {
	label string
	req   wire.Request
}

// goldenScript is a fixed conversation that touches every response shape the
// executor and snapshot paths produce: puts, a GET hit and miss, a SCAN, an
// RMW pre-image, a TXN, each 2PC op, and the Locked bounce of a GET, a SCAN
// and an RMW over prewritten keys. Every row is non-empty.
func goldenScript() []goldenStep {
	row := func(k uint64) []core.Value {
		return []core.Value{core.IntVal(int64(k)), core.IntVal(int64(k) * 10), core.StrVal(fmt.Sprintf("v%d", k))}
	}
	var s []goldenStep
	add := func(label string, req wire.Request) {
		req.ID = uint64(len(s) + 1)
		s = append(s, goldenStep{label, req})
	}
	for k := uint64(1); k <= 6; k++ {
		add(fmt.Sprintf("put-%d", k), wire.Request{Part: -1, Op: wire.OpPut, Table: "t", Key: k, Row: row(k)})
	}
	add("get-hit", wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 2})
	add("get-miss", wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 99})
	add("scan", wire.Request{Part: 0, Op: wire.OpScan, Table: "t", From: 0, To: 100})
	add("scan-limit", wire.Request{Part: 1, Op: wire.OpScan, Table: "t", From: 0, To: 100, Limit: 2})
	add("rmw", wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: 4, Cols: []wire.RmwCol{
		{Col: 1, Add: true, Val: core.IntVal(5)}, {Col: 2, Val: core.StrVal("r4")}}})
	add("txn", wire.Request{Part: -1, Op: wire.OpTxn, Ops: []wire.Request{
		{Op: wire.OpGet, Table: "t", Key: 2},
		{Op: wire.OpRmw, Table: "t", Key: 2, Cols: []wire.RmwCol{{Col: 1, Add: true, Val: core.IntVal(1)}}},
		{Op: wire.OpPut, Table: "t", Key: 8, Row: row(8)},
		{Op: wire.OpScan, Table: "t", From: 0, To: 10, Limit: 3},
		{Op: wire.OpDelete, Table: "t", Key: 6},
	}})
	add("prewrite", wire.Request{Part: 0, Op: wire.OpTxnPrewrite, Txn: 77, Table: "t", Key: 2, PriShard: 0, Ops: []wire.Request{
		{Op: wire.OpRmw, Table: "t", Key: 2, Cols: []wire.RmwCol{{Col: 1, Add: true, Val: core.IntVal(3)}, {Col: 2, Val: core.StrVal("p2")}}},
		{Op: wire.OpPut, Table: "t", Key: 10, Row: row(10)},
		{Op: wire.OpRmw, Table: "t", Key: 4, Cols: []wire.RmwCol{{Col: 2, Val: core.StrVal("p4")}}},
	}})
	add("get-locked", wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 4})
	add("scan-locked", wire.Request{Part: 0, Op: wire.OpScan, Table: "t", From: 3, To: 100})
	add("rmw-locked", wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: 2, Cols: []wire.RmwCol{{Col: 1, Val: core.IntVal(0)}}})
	add("resolve-pending", wire.Request{Part: 0, Op: wire.OpTxnResolve, Txn: 77, Table: "t", Key: 2})
	add("commit", wire.Request{Part: 0, Op: wire.OpTxnCommit, Txn: 77, Phase: 1, Locks: []wire.LockRef{
		{Table: "t", Key: 2}, {Table: "t", Key: 10}, {Table: "t", Key: 4}}})
	add("resolve-committed", wire.Request{Part: 0, Op: wire.OpTxnResolve, Txn: 77, Table: "t", Key: 2})
	add("get-committed", wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 4})
	add("prewrite-1", wire.Request{Part: 1, Op: wire.OpTxnPrewrite, Txn: 78, Table: "t", Key: 3, PriShard: 1, Ops: []wire.Request{
		{Op: wire.OpDelete, Table: "t", Key: 3}}})
	add("abort", wire.Request{Part: 1, Op: wire.OpTxnAbort, Txn: 78, Phase: 1, Locks: []wire.LockRef{{Table: "t", Key: 3}}})
	add("resolve-aborted", wire.Request{Part: 1, Op: wire.OpTxnResolve, Txn: 78, Table: "t", Key: 3})
	add("resolve-force", wire.Request{Part: 1, Op: wire.OpTxnResolve, Txn: 79, Phase: 1, Table: "t", Key: 5})
	add("prewrite-aborted", wire.Request{Part: 1, Op: wire.OpTxnPrewrite, Txn: 78, Table: "t", Key: 3, PriShard: 1, Ops: []wire.Request{
		{Op: wire.OpDelete, Table: "t", Key: 3}}})
	add("scan-after", wire.Request{Part: 0, Op: wire.OpScan, Table: "t", From: 0, To: 100})
	return s
}

// TestResponseFramesGolden pins the frames the server writes for
// goldenScript, byte for byte, on every engine: how an op reaches the engine
// (executor or snapshot read) must not show on the wire.
func TestResponseFramesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range testbed.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			db, err := testbed.New(testbed.Config{
				Engine: kind, Partitions: 2, Env: core.EnvConfig{DeviceSize: 32 << 20},
				Options: core.Options{GroupCommitSize: 1}, Schemas: txn2pc.AugmentSchemas(schemas()),
			})
			if err != nil {
				t.Fatal(err)
			}
			rt := serve.New(db, serve.Config{})
			srv, err := New(rt, "127.0.0.1:0", Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			var got bytes.Buffer
			for _, step := range goldenScript() {
				payload, err := wire.EncodeRequest(&step.req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := wire.WriteFrame(conn, payload); err != nil {
					t.Fatal(err)
				}
				frame, err := wire.ReadFrame(br, 0)
				if err != nil {
					t.Fatalf("%s: %v", step.label, err)
				}
				fmt.Fprintf(&got, "%s %s\n", step.label, hex.EncodeToString(wire.AppendFrame(nil, frame)))
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(gl), len(wl)); i++ {
				g, w := "", ""
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Errorf("frame %d differs:\n got  %s\n want %s", i, g, w)
				}
			}
		})
	}
}

// TestEmptyStringRoundTrip: an empty string column comes back from a wire
// GET as an empty string, not an integer, so the row can be written back; and
// an in-process snapshot read returns it as a non-nil empty string.
func TestEmptyStringRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, kind := range testbed.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			_, rt, _, cl := stack(t, kind, 1, serve.Config{}, Config{}, netclient.Config{})
			if resp, err := cl.Do(ctx, putReq(1, 5, "")); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("put: %v %+v", err, resp)
			}
			resp, err := cl.Do(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 1})
			if err != nil || resp.Status != wire.StatusOK || !resp.Found {
				t.Fatalf("get: %v %+v", err, resp)
			}
			if s := resp.Row[2].S; s == nil || len(s) != 0 {
				t.Fatalf("wire GET column s = %#v, want an empty string", resp.Row[2])
			}
			back := &wire.Request{Part: -1, Op: wire.OpPut, Table: "t", Key: 2, Row: resp.Row}
			back.Row[0] = core.IntVal(2)
			if resp, err := cl.Do(ctx, back); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("re-put of the returned row: %v %+v", err, resp)
			}
			row, ok, err := rt.GetRow(ctx, "t", 1)
			if err != nil || !ok || row[2].S == nil || len(row[2].S) != 0 {
				t.Fatalf("GetRow: found=%v err=%v column s = %#v, want an empty string", ok, err, row[2])
			}
		})
	}
}
