// Package tpcc implements the TPC-C benchmark of §5.1: an order-entry
// environment with nine tables and five transaction types (NewOrder,
// Payment, OrderStatus, Delivery, StockLevel). Transactions that modify the
// database are ~88% of the workload. Each warehouse maps to one partition
// and every transaction is single-partition (§5.1).
package tpcc

import (
	"hash/fnv"

	"nstore/internal/core"
)

// Table names.
const (
	TWarehouse = "warehouse"
	TDistrict  = "district"
	TCustomer  = "customer"
	THistory   = "history"
	TNewOrder  = "new_order"
	TOrder     = "orders"
	TOrderLine = "order_line"
	TItem      = "item"
	TStock     = "stock"
)

// Secondary index names.
const (
	IdxCustomerName  = "customer_by_name"
	IdxOrderCustomer = "orders_by_customer"
)

// Primary-key encodings. Tables with secondary indexes keep their keys
// within 24 bits (a constraint of the CoW engines' packed key space).
//
//	warehouse:  w                                   (w in 1..W)
//	district:   w<<4  | d                           (d in 1..10)
//	customer:   w<<16 | d<<12 | c                   (c in 1..4095)
//	orders:     w<<20 | d<<16 | o                   (o in 1..65535)
//	new_order:  same as orders
//	order_line: (orders pk)<<4 | ol                 (ol in 1..15)
//	item:       i
//	stock:      w<<17 | i                           (i < 2^17)
//	history:    w<<32 | seq
func WarehouseKey(w int) uint64 { return uint64(w) }

// DistrictKey encodes (w, d).
func DistrictKey(w, d int) uint64 { return uint64(w)<<4 | uint64(d) }

// CustomerKey encodes (w, d, c).
func CustomerKey(w, d, c int) uint64 {
	return uint64(w)<<16 | uint64(d)<<12 | uint64(c)
}

// OrderKey encodes (w, d, o).
func OrderKey(w, d, o int) uint64 {
	return uint64(w)<<20 | uint64(d)<<16 | uint64(o)
}

// OrderLineKey encodes (w, d, o, ol).
func OrderLineKey(w, d, o, ol int) uint64 { return OrderKey(w, d, o)<<4 | uint64(ol) }

// ItemKey encodes item i.
func ItemKey(i int) uint64 { return uint64(i) }

// StockKey encodes (w, i).
func StockKey(w, i int) uint64 { return uint64(w)<<17 | uint64(i) }

// HistoryKey encodes (w, seq).
func HistoryKey(w, seq int) uint64 { return uint64(w)<<32 | uint64(seq) }

// NameHash maps a customer last name to 24 bits for the name index.
func NameHash(last string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(last))
	return h.Sum32() & 0xffffff
}

// CustomerNameSec builds the (w, d, lastname) secondary key.
func CustomerNameSec(w, d int, last string) uint32 {
	return uint32(w)<<28 | uint32(d)<<24 | NameHash(last)
}

// Column indexes used by the transactions (kept in sync with Schemas).
const (
	// warehouse
	WTax = 6
	WYtd = 7
	// district
	DTax     = 7
	DYtd     = 8
	DNextOID = 9
	// customer
	CFirst      = 3
	CLast       = 5
	CCredit     = 11
	CBalance    = 13
	CYtdPayment = 14
	CPaymentCnt = 15
	CData       = 16
	// orders
	OCID       = 3
	OEntryD    = 4
	OCarrierID = 5
	OOLCnt     = 6
	OAllLocal  = 7
	// order_line
	OLIID       = 4
	OLDeliveryD = 6
	OLQuantity  = 7
	OLAmount    = 8
	// stock
	SQuantity = 2
	SYtd      = 3
	SOrderCnt = 4
	SRemote   = 5
	// item
	IPrice = 2
	IName  = 3
)

// Schemas returns the nine TPC-C table schemas with the two secondary
// indexes used by the transactions.
func Schemas() []*core.Schema {
	return []*core.Schema{
		{
			Name: TWarehouse,
			Columns: []core.Column{
				{Name: "w_id", Type: core.TInt},
				{Name: "w_name", Type: core.TString, Size: 10},
				{Name: "w_street", Type: core.TString, Size: 40},
				{Name: "w_city", Type: core.TString, Size: 20},
				{Name: "w_state", Type: core.TString, Size: 2},
				{Name: "w_zip", Type: core.TString, Size: 9},
				{Name: "w_tax", Type: core.TInt}, // basis points
				{Name: "w_ytd", Type: core.TInt}, // cents
			},
		},
		{
			Name: TDistrict,
			Columns: []core.Column{
				{Name: "d_id", Type: core.TInt},
				{Name: "d_w_id", Type: core.TInt},
				{Name: "d_name", Type: core.TString, Size: 10},
				{Name: "d_street", Type: core.TString, Size: 40},
				{Name: "d_city", Type: core.TString, Size: 20},
				{Name: "d_state", Type: core.TString, Size: 2},
				{Name: "d_zip", Type: core.TString, Size: 9},
				{Name: "d_tax", Type: core.TInt},
				{Name: "d_ytd", Type: core.TInt},
				{Name: "d_next_o_id", Type: core.TInt},
			},
		},
		{
			Name: TCustomer,
			Columns: []core.Column{
				{Name: "c_id", Type: core.TInt},
				{Name: "c_d_id", Type: core.TInt},
				{Name: "c_w_id", Type: core.TInt},
				{Name: "c_first", Type: core.TString, Size: 16},
				{Name: "c_middle", Type: core.TString, Size: 2},
				{Name: "c_last", Type: core.TString, Size: 16},
				{Name: "c_street", Type: core.TString, Size: 40},
				{Name: "c_city", Type: core.TString, Size: 20},
				{Name: "c_state", Type: core.TString, Size: 2},
				{Name: "c_zip", Type: core.TString, Size: 9},
				{Name: "c_phone", Type: core.TString, Size: 16},
				{Name: "c_credit", Type: core.TString, Size: 2},
				{Name: "c_credit_lim", Type: core.TInt},
				{Name: "c_balance", Type: core.TInt},
				{Name: "c_ytd_payment", Type: core.TInt},
				{Name: "c_payment_cnt", Type: core.TInt},
				{Name: "c_data", Type: core.TString, Size: 250},
			},
			Secondary: []core.IndexSpec{{
				Name: IdxCustomerName,
				SecKey: func(row []core.Value) uint32 {
					return CustomerNameSec(int(row[2].I), int(row[1].I), string(row[5].S))
				},
				// No transaction updates these: every TPC-C update skips the
				// index and the old-row read it would need.
				Cols: []int{1, 2, CLast},
			}},
		},
		{
			Name: THistory,
			Columns: []core.Column{
				{Name: "h_id", Type: core.TInt},
				{Name: "h_c_id", Type: core.TInt},
				{Name: "h_d_id", Type: core.TInt},
				{Name: "h_w_id", Type: core.TInt},
				{Name: "h_date", Type: core.TInt},
				{Name: "h_amount", Type: core.TInt},
				{Name: "h_data", Type: core.TString, Size: 24},
			},
		},
		{
			Name: TNewOrder,
			Columns: []core.Column{
				{Name: "no_o_id", Type: core.TInt},
				{Name: "no_d_id", Type: core.TInt},
				{Name: "no_w_id", Type: core.TInt},
			},
		},
		{
			Name: TOrder,
			Columns: []core.Column{
				{Name: "o_id", Type: core.TInt},
				{Name: "o_d_id", Type: core.TInt},
				{Name: "o_w_id", Type: core.TInt},
				{Name: "o_c_id", Type: core.TInt},
				{Name: "o_entry_d", Type: core.TInt},
				{Name: "o_carrier_id", Type: core.TInt},
				{Name: "o_ol_cnt", Type: core.TInt},
				{Name: "o_all_local", Type: core.TInt},
			},
			Secondary: []core.IndexSpec{{
				Name: IdxOrderCustomer,
				SecKey: func(row []core.Value) uint32 {
					// (w, d, c) — reuse the customer key encoding.
					return uint32(CustomerKey(int(row[2].I), int(row[1].I), int(row[3].I)))
				},
				Cols: []int{1, 2, OCID},
			}},
		},
		{
			Name: TOrderLine,
			Columns: []core.Column{
				{Name: "ol_o_id", Type: core.TInt},
				{Name: "ol_d_id", Type: core.TInt},
				{Name: "ol_w_id", Type: core.TInt},
				{Name: "ol_number", Type: core.TInt},
				{Name: "ol_i_id", Type: core.TInt},
				{Name: "ol_supply_w_id", Type: core.TInt},
				{Name: "ol_delivery_d", Type: core.TInt},
				{Name: "ol_quantity", Type: core.TInt},
				{Name: "ol_amount", Type: core.TInt},
				{Name: "ol_dist_info", Type: core.TString, Size: 24},
			},
		},
		{
			Name: TItem,
			Columns: []core.Column{
				{Name: "i_id", Type: core.TInt},
				{Name: "i_im_id", Type: core.TInt},
				{Name: "i_price", Type: core.TInt},
				{Name: "i_name", Type: core.TString, Size: 24},
				{Name: "i_data", Type: core.TString, Size: 50},
			},
		},
		{
			Name: TStock,
			Columns: []core.Column{
				{Name: "s_i_id", Type: core.TInt},
				{Name: "s_w_id", Type: core.TInt},
				{Name: "s_quantity", Type: core.TInt},
				{Name: "s_ytd", Type: core.TInt},
				{Name: "s_order_cnt", Type: core.TInt},
				{Name: "s_remote_cnt", Type: core.TInt},
				{Name: "s_dist", Type: core.TString, Size: 24},
				{Name: "s_data", Type: core.TString, Size: 50},
			},
		},
	}
}
