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
// 10 x 100 B tuple writes that field blind: it loads only what Update itself
// reads, never the row or the field's old value. The cache is cold for
// everything the tuple owns: it is emptied and then an RMW of another key
// brings back what every update shares (the index's upper levels, the
// allocator's lists, the WAL entry chunk), which is the state a serving
// partition is in. The reference is the whole-row lowering (Get the row,
// copy it, Update) run through the same executor on a twin database: it must
// cost the same stores, write-backs and fences, and the loads of the row. The
// answer is a bare status: the request adds to no column.
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
		core.CloneRow(row)
		return eng.Update(ycsb.TableName, key, core.Update{Cols: []int{col}, Vals: []core.Value{val}})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Env(0).Dev.Stats().Sub(before)

	t.Logf("blind rmw: loads %d stores %d flushes %d fences %d; whole-row rmw: loads %d stores %d flushes %d fences %d",
		got.Loads, got.Stores, got.Flushes, got.Fences, want.Loads, want.Stores, want.Flushes, want.Fences)
	if got.Loads > 3 {
		t.Errorf("a one-field rmw of a cold tuple loaded %d lines, want at most 3", got.Loads)
	}
	if want.Loads < 24 {
		t.Errorf("the whole-row reference loaded only %d lines: the tuple was not cold, the budget above proves nothing", want.Loads)
	}
	if got.Stores != want.Stores || got.Flushes != want.Flushes || got.Fences != want.Fences {
		t.Errorf("stores/flushes/fences %d/%d/%d, the whole-row lowering costs %d/%d/%d: only loads may differ",
			got.Stores, got.Flushes, got.Fences, want.Stores, want.Flushes, want.Fences)
	}

	// The answer: a bare status, no row and not the set field's old value.
	if resp.Found || resp.Row != nil {
		t.Fatalf("a set-only rmw answered found=%v row %+v, want a bare status", resp.Found, resp.Row)
	}
	frame, err := wire.EncodeResponse(resp)
	if err != nil || len(frame) > 16 {
		t.Errorf("rmw response is %d bytes (err %v), want at most 16", len(frame), err)
	}
	t.Logf("rmw response: %d bytes", len(frame))
	for _, d := range []*testbed.DB{db, ref} {
		if row, ok, err := d.Engine(0).Get(ycsb.TableName, key); err != nil || !ok || !bytes.Equal(row[col].S, val.S) || len(row) != len(old) {
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

// TestApplyOpsReadsOnlyAddColumns: an RMW reads what it computes from, on the
// primary as on a backup's replay. A set-mode RMW is a bare Update (a missing
// key is Update's to report) and the primary answers it with no row; a mixed
// one reads its Add column and nothing else, and answers that column's
// pre-image; the backup lands on the primary's value.
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

	// The primary answers each op with the pre-image of its Add columns.
	var resps [3]wire.Response
	pc := make([]countingEngine, len(ops))
	for i := range ops {
		if err := run(primary, func(eng core.Engine) error {
			pc[i].Engine = eng
			return applyOp(&pc[i], &ops[i], &resps[i], true)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if pc[1].gets != 0 || len(pc[1].cols) != 0 || resps[1].Found || resps[1].Row != nil {
		t.Fatalf("primary set-mode rmw: %d Get and %d GetCols calls, answer %+v; want none and a bare status", pc[1].gets, len(pc[1].cols), resps[1])
	}
	if pc[2].gets != 0 || !reflect.DeepEqual(pc[2].cols, [][]int{{1}}) {
		t.Errorf("primary set+add rmw made %d Get calls and read columns %v, want only the add column [[1]]", pc[2].gets, pc[2].cols)
	}
	if r := resps[2].Row; !resps[2].Found || len(r) != 3 || r[1].I != 100 || r[2].S != nil || r[0].I != 0 {
		t.Fatalf("mixed pre-image %+v, want only column 1 = 100", r)
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

// TestRmwReadsWhatItAddsTo: on every engine, over loopback, an RMW answers
// the pre-image of its Add columns and nothing else. A set-only RMW answers
// StatusOK with no row, and the primary's executor path (apply on a counting
// engine) makes no Get or GetCols call for it; of a missing key it answers
// StatusNotFound. The rows it leaves equal an in-process Update's.
func TestRmwReadsWhatItAddsTo(t *testing.T) {
	ctx := context.Background()
	set := func(key uint64) *wire.Request {
		return &wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: key, Cols: []wire.RmwCol{{Col: 2, Val: core.StrVal("set")}}}
	}
	mixed := &wire.Request{Part: -1, Op: wire.OpRmw, Table: "t", Key: 2, Cols: []wire.RmwCol{
		{Col: 2, Val: core.StrVal("mixed")}, {Col: 1, Add: true, Val: core.IntVal(7)}}}
	for _, kind := range testbed.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			db, rt, srv, cl := stack(t, kind, 2, serve.Config{}, Config{}, netclient.Config{})
			ref := newDB(t, kind, 2, 1)
			inRef := func(key uint64, fn func(core.Engine) error) {
				t.Helper()
				eng := ref.Engine(ref.Route(key))
				if err := eng.Begin(); err != nil {
					t.Fatal(err)
				}
				if err := fn(eng); err != nil {
					t.Fatal(err)
				}
				if err := eng.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(1); k <= 2; k++ {
				put := putReq(k, 100*int64(k), "v")
				if resp, err := cl.Do(ctx, put); err != nil || resp.Status != wire.StatusOK {
					t.Fatalf("put %d: %v %+v", k, err, resp)
				}
				inRef(k, func(eng core.Engine) error { return eng.Insert("t", k, put.Row) })
			}

			resp, err := cl.Do(ctx, set(1))
			if err != nil || resp.Status != wire.StatusOK || resp.Found || resp.Row != nil {
				t.Fatalf("set-only rmw: %v %+v, want a bare StatusOK", err, resp)
			}
			ce, p := &countingEngine{}, db.Route(1)
			var sub wire.Response
			if err := rt.SubmitPart(ctx, p, func(eng core.Engine) error {
				ce.Engine = eng
				return srv.apply(ce, p, set(1), &sub)
			}); err != nil {
				t.Fatal(err)
			}
			if ce.gets != 0 || len(ce.cols) != 0 || sub.Found || sub.Row != nil {
				t.Errorf("primary set-only rmw made %d Get and %d GetCols calls, answered %+v; want none and a bare status", ce.gets, len(ce.cols), sub)
			}
			inRef(1, func(eng core.Engine) error {
				return eng.Update("t", 1, core.Update{Cols: []int{2}, Vals: []core.Value{core.StrVal("set")}})
			})

			resp, err = cl.Do(ctx, mixed)
			if err != nil || resp.Status != wire.StatusOK || !resp.Found || len(resp.Row) != 3 ||
				resp.Row[1].I != 200 || resp.Row[0].I != 0 || resp.Row[2].S != nil {
				t.Fatalf("mixed rmw: %v %+v, want only column 1's pre-image 200", err, resp)
			}
			inRef(2, func(eng core.Engine) error {
				return eng.Update("t", 2, core.Update{Cols: []int{2, 1}, Vals: []core.Value{core.StrVal("mixed"), core.IntVal(207)}})
			})

			if resp, err := cl.Do(ctx, set(404)); err != nil || resp.Status != wire.StatusNotFound {
				t.Errorf("set-only rmw of a missing key: %v %+v, want StatusNotFound", err, resp)
			}

			for k := uint64(1); k <= 2; k++ {
				got, gok, gerr := db.Engine(db.Route(k)).Get("t", k)
				want, wok, werr := ref.Engine(ref.Route(k)).Get("t", k)
				if gerr != nil || werr != nil || !gok || !wok || !reflect.DeepEqual(got, want) {
					t.Errorf("key %d: wire row %+v (found=%v err=%v), in-process Update's %+v (found=%v err=%v)", k, got, gok, gerr, want, wok, werr)
				}
			}
		})
	}
}
