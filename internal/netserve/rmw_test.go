package netserve

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"nstore/internal/core"
	"nstore/internal/netclient"
	"nstore/internal/nvm"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
	"nstore/internal/workload/ycsb"
)

// serveDB puts db behind a runtime, a server and a client on loopback.
func serveDB(t *testing.T, db *testbed.DB) (*serve.Runtime, *netclient.Client) {
	t.Helper()
	rt := serve.New(db, serve.Config{})
	srv, err := New(rt, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := netclient.New(srv.Addr(), netclient.Config{})
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		rt.Close()
	})
	return rt, cl
}

// ycsbStack serves a loaded YCSB usertable (10 x 100 B fields) on one nvm-inp
// partition. Two calls build byte-identical devices.
func ycsbStack(t *testing.T) (*testbed.DB, *serve.Runtime, *netclient.Client) {
	t.Helper()
	cfg := ycsb.Config{Tuples: 300, Partitions: 1, Seed: 11}
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.NVMInP,
		Partitions: 1,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Schemas:    ycsb.Schema(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ycsb.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	rt, cl := serveDB(t, db)
	return db, rt, cl
}

// TestRmwDeviceBudget: over the wire, a set-mode RMW of one field of a
// 10 x 100 B tuple loads the slot and the one var-slot it names — not the
// row. The cache is cold for everything the tuple owns: it is emptied and then
// an RMW of another key brings back what every update shares (the index's
// upper levels, the allocator's lists, the WAL entry chunk), which is the
// state a serving partition is in. The reference is the lowering this
// replaced (Get the row, copy it, Update) run through the same executor on a
// twin database: it must cost the same stores, write-backs and fences, and
// the loads of nine more fields. The answer carries the named field only.
func TestRmwDeviceBudget(t *testing.T) {
	const key, warm, col = 137, 9, 4
	val := core.BytesVal(bytes.Repeat([]byte("z"), 100))
	ctx := context.Background()
	rmw := func(k uint64) *wire.Request {
		return &wire.Request{Part: -1, Op: wire.OpRmw, Table: ycsb.TableName, Key: k, Cols: []wire.RmwCol{{Col: col, Val: val}}}
	}
	cold := func(db *testbed.DB, cl *netclient.Client) nvm.Stats {
		db.Env(0).Dev.EvictAll()
		if resp, err := cl.Do(ctx, rmw(warm)); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("warm-up rmw: %v %+v", err, resp)
		}
		return db.Env(0).Dev.Stats()
	}

	db, _, cl := ycsbStack(t)
	old, ok, err := db.Engine(0).Get(ycsb.TableName, key)
	if err != nil || !ok {
		t.Fatalf("key %d: found=%v err=%v", key, ok, err)
	}
	before := cold(db, cl)
	resp, err := cl.Do(ctx, rmw(key))
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("rmw: %v %+v", err, resp)
	}
	got := db.Env(0).Dev.Stats().Sub(before)

	ref, refRT, refCl := ycsbStack(t)
	before = cold(ref, refCl)
	err = refRT.SubmitPart(ctx, 0, func(eng core.Engine) error {
		row, ok, err := eng.Get(ycsb.TableName, key)
		if err != nil || !ok {
			return errors.Join(err, core.ErrKeyNotFound)
		}
		copyRow(row)
		return eng.Update(ycsb.TableName, key, core.Update{Cols: []int{col}, Vals: []core.Value{val}})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Env(0).Dev.Stats().Sub(before)

	t.Logf("named-column rmw: loads %d stores %d flushes %d fences %d; whole-row rmw: loads %d stores %d flushes %d fences %d",
		got.Loads, got.Stores, got.Flushes, got.Fences, want.Loads, want.Stores, want.Flushes, want.Fences)
	if got.Loads > 10 {
		t.Errorf("a one-field rmw of a cold tuple loaded %d lines, want at most 10", got.Loads)
	}
	if want.Loads < 24 {
		t.Errorf("the whole-row reference loaded only %d lines: the tuple was not cold, the budget above proves nothing", want.Loads)
	}
	if got.Stores != want.Stores || got.Flushes != want.Flushes || got.Fences != want.Fences {
		t.Errorf("stores/flushes/fences %d/%d/%d, the whole-row lowering costs %d/%d/%d: only loads may differ",
			got.Stores, got.Flushes, got.Fences, want.Stores, want.Flushes, want.Fences)
	}

	// The pre-image: schema width, the named field, zero Values elsewhere.
	if !resp.Found || len(resp.Row) != len(old) || !bytes.Equal(resp.Row[col].S, old[col].S) {
		t.Fatalf("pre-image %+v, want field %d = %q", resp.Row, col, old[col].S)
	}
	for i, v := range resp.Row {
		if i != col && (v.I != 0 || v.S != nil) {
			t.Errorf("pre-image column %d = (%d, %q), the request did not name it", i, v.I, v.S)
		}
	}
	frame, err := wire.EncodeResponse(resp)
	if err != nil || len(frame) > 256 {
		t.Errorf("rmw response is %d bytes (err %v), want at most 256", len(frame), err)
	}
	t.Logf("rmw response: %d bytes", len(frame))
	for _, d := range []*testbed.DB{db, ref} {
		if row, ok, err := d.Engine(0).Get(ycsb.TableName, key); err != nil || !ok || !bytes.Equal(row[col].S, val.S) {
			t.Errorf("after the rmw: found=%v err=%v field=%q", ok, err, row[col].S)
		}
	}
}

// countingEngine counts the tuple reads a lowering makes and the columns
// they ask for.
type countingEngine struct {
	core.Engine
	gets int
	cols [][]int
}

func (c *countingEngine) Get(table string, key uint64) ([]core.Value, bool, error) {
	c.gets++
	return c.Engine.Get(table, key)
}

func (c *countingEngine) GetCols(table string, key uint64, cols []int) ([]core.Value, bool, error) {
	c.cols = append(c.cols, cols)
	return core.GetCols(c.Engine, table, key, cols)
}

// TestApplyOpsReadsOnlyAddColumns: nobody sees a replay's results, so a
// set-mode RMW replays as a bare Update (a missing key is Update's to
// report), a mixed one reads its Add column and nothing else, and the backup
// still lands on the primary's value.
func TestApplyOpsReadsOnlyAddColumns(t *testing.T) {
	primary, backup := newDB(t, testbed.NVMInP, 1, 1), newDB(t, testbed.NVMInP, 1, 1)
	run := func(db *testbed.DB, fn func(core.Engine) error) error {
		eng := db.Engine(0)
		if err := eng.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := fn(eng); err != nil {
			eng.Abort()
			return err
		}
		return eng.Commit()
	}
	put := putReq(5, 100, "v")
	set := wire.Request{Op: wire.OpRmw, Table: "t", Key: 5, Cols: []wire.RmwCol{{Col: 2, Val: core.StrVal("set")}}}
	mixed := wire.Request{Op: wire.OpRmw, Table: "t", Key: 5, Cols: []wire.RmwCol{
		{Col: 2, Val: core.StrVal("mixed")}, {Col: 1, Add: true, Val: core.IntVal(7)}}}
	ops := []wire.Request{*put, set, mixed}

	// The primary answers each op; the RMW pre-images name their columns.
	var resps [3]wire.Response
	for i := range ops {
		i := i
		if err := run(primary, func(eng core.Engine) error { return applyOp(eng, &ops[i], &resps[i], 1, true) }); err != nil {
			t.Fatal(err)
		}
	}
	if r := resps[1].Row; !resps[1].Found || string(r[2].S) != "v" || r[1].I != 0 {
		t.Fatalf("set-mode pre-image %+v", r)
	}
	if r := resps[2].Row; !resps[2].Found || string(r[2].S) != "set" || r[1].I != 100 || r[0].I != 0 {
		t.Fatalf("mixed pre-image %+v", r)
	}

	ce := &countingEngine{}
	if err := run(backup, func(eng core.Engine) error { ce.Engine = eng; return ApplyOps(ops[:2])(ce) }); err != nil {
		t.Fatal(err)
	}
	if ce.gets != 0 || len(ce.cols) != 0 {
		t.Errorf("replay of a set-mode rmw made %d Get and %d GetCols calls, want none", ce.gets, len(ce.cols))
	}
	if err := run(backup, func(eng core.Engine) error { ce.Engine = eng; return ApplyOps(ops[2:])(ce) }); err != nil {
		t.Fatal(err)
	}
	if ce.gets != 0 || !reflect.DeepEqual(ce.cols, [][]int{{1}}) {
		t.Errorf("replay of set+add made %d Get calls and read columns %v, want only the add column [[1]]", ce.gets, ce.cols)
	}
	pRow, _, _ := primary.Engine(0).Get("t", 5)
	bRow, ok, err := backup.Engine(0).Get("t", 5)
	if err != nil || !ok || bRow[1].I != 107 || string(bRow[2].S) != "mixed" || !reflect.DeepEqual(pRow, bRow) {
		t.Errorf("backup row %+v (found=%v err=%v), primary %+v", bRow, ok, err, pRow)
	}

	miss := set
	miss.Key = 404
	err = run(backup, func(eng core.Engine) error { return ApplyOps([]wire.Request{miss})(eng) })
	if !errors.Is(err, core.ErrKeyNotFound) {
		t.Errorf("replay of a set-mode rmw on a missing key: %v, want ErrKeyNotFound", err)
	}
}

// TestRmwDuplicateColumnRejected: an RMW that names one column twice is a bad
// request wherever it arrives — alone, inside a TXN frame, inside a prewrite.
// Both modifications would be computed from one pre-image (two +5/+3 adds
// landing as +3), and on a string column nvm-inp would supersede, and at
// commit free, the old var-slot twice.
func TestRmwDuplicateColumnRejected(t *testing.T) {
	db, err := testbed.New(testbed.Config{
		Engine:     testbed.NVMInP,
		Partitions: 1,
		Env:        core.EnvConfig{DeviceSize: 32 << 20},
		Schemas:    txn2pc.AugmentSchemas(schemas()),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, cl := serveDB(t, db)
	ctx := context.Background()
	if resp, err := cl.Do(ctx, putReq(1, 10, "v")); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %v %+v", err, resp)
	}
	twiceInt := wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: 1, Cols: []wire.RmwCol{
		{Col: 1, Add: true, Val: core.IntVal(5)}, {Col: 1, Add: true, Val: core.IntVal(3)}}}
	twiceStr := wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: 1, Cols: []wire.RmwCol{
		{Col: 2, Val: core.StrVal("a")}, {Col: 1, Val: core.IntVal(0)}, {Col: 2, Val: core.StrVal("b")}}}
	for name, req := range map[string]*wire.Request{
		"top-level add": &twiceInt,
		"top-level set": &twiceStr,
		"txn sub-op":    {Part: -1, Op: wire.OpTxn, Ops: []wire.Request{*putReq(2, 0, "x"), twiceStr}},
		"prewrite op": {Part: 0, Op: wire.OpTxnPrewrite, Txn: 9, Table: "t", Key: 1,
			Ops: []wire.Request{twiceInt}},
	} {
		resp, err := cl.Do(ctx, req)
		if err != nil || resp.Status != wire.StatusBadRequest {
			t.Errorf("%s: status %v (%s) err %v, want bad-request", name, resp.Status, resp.Msg, err)
		}
	}
	got, err := cl.Do(ctx, &wire.Request{Part: -1, Op: wire.OpGet, Table: "t", Key: 1})
	if err != nil || !got.Found || got.Row[1].I != 10 || string(got.Row[2].S) != "v" {
		t.Fatalf("row after the rejected requests: %+v (err %v)", got, err)
	}
}
