package netserve

import (
	"bytes"
	"testing"

	"nstore/internal/core"
	"nstore/internal/wire"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// nullEngine answers a read with a zero row of the table's width and a write
// with nil, allocating nothing, so an AllocsPerRun over it counts the
// allocations of the op lowering alone and none of an engine's.
type nullEngine struct {
	core.Engine
	rows map[string][]core.Value
}

func newNullEngine(schemas []*core.Schema) *nullEngine {
	e := &nullEngine{rows: make(map[string][]core.Value)}
	for _, sc := range schemas {
		e.rows[sc.Name] = make([]core.Value, len(sc.Columns))
	}
	return e
}

func (e *nullEngine) Get(table string, _ uint64) ([]core.Value, bool, error) {
	return e.rows[table], true, nil
}

func (e *nullEngine) GetCols(table string, _ uint64, _ []int) ([]core.Value, bool, error) {
	return e.rows[table], true, nil
}

func (*nullEngine) Insert(string, uint64, []core.Value) error { return nil }
func (*nullEngine) Update(string, uint64, core.Update) error  { return nil }

// TestApplyOpAllocs pins, exactly, the allocations the primary's op lowering
// (Server.apply and applyOp, report on) makes for the two request shapes the
// wire benchmark drives, over an engine that allocates nothing:
//   - YCSB's update, a set-mode RMW of one 100-byte field: the Update's
//     column and value slices. It reads nothing and answers no row.
//   - TPC-C's payment TXN: three RMWs that add to five columns and a history
//     insert. Each RMW allocates its read list (the customer's grows to three
//     columns in three appends), its Update's two slices and the cloned
//     pre-image; the TXN its sub-response slice.
func TestApplyOpAllocs(t *testing.T) {
	rmw := &wire.Request{Op: wire.OpRmw, Table: ycsb.TableName, Key: 12345,
		Cols: []wire.RmwCol{{Col: 3, Val: core.BytesVal(bytes.Repeat([]byte("y"), 100))}}}
	const w, d, amount = 1, 3, 42
	payment := &wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
		{Op: wire.OpRmw, Table: tpcc.TWarehouse, Key: tpcc.WarehouseKey(w),
			Cols: []wire.RmwCol{{Col: tpcc.WYtd, Add: true, Val: core.IntVal(amount)}}},
		{Op: wire.OpRmw, Table: tpcc.TDistrict, Key: tpcc.DistrictKey(w, d),
			Cols: []wire.RmwCol{{Col: tpcc.DYtd, Add: true, Val: core.IntVal(amount)}}},
		{Op: wire.OpRmw, Table: tpcc.TCustomer, Key: tpcc.CustomerKey(w, d, 7),
			Cols: []wire.RmwCol{
				{Col: tpcc.CBalance, Add: true, Val: core.IntVal(-amount)},
				{Col: tpcc.CYtdPayment, Add: true, Val: core.IntVal(amount)},
				{Col: tpcc.CPaymentCnt, Add: true, Val: core.IntVal(1)},
			}},
		{Op: wire.OpPut, Table: tpcc.THistory, Key: tpcc.HistoryKey(w, 1<<31),
			Row: []core.Value{core.IntVal(1), core.IntVal(7), core.IntVal(d), core.IntVal(w),
				core.IntVal(0), core.IntVal(amount), core.StrVal("payment-history-data")}},
	}}
	eng := newNullEngine(append(ycsb.Schema(ycsb.Config{}), tpcc.Schemas()...))
	srv := &Server{}
	for _, c := range []struct {
		name string
		req  *wire.Request
		want float64
	}{
		{"ycsb-update", rmw, 2},
		{"tpcc-payment", payment, 15},
	} {
		var resp wire.Response
		got := testing.AllocsPerRun(100, func() {
			if err := srv.apply(eng, 0, c.req, &resp); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations a request, want %v", c.name, got, c.want)
		}
	}
}
