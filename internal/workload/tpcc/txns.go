package tpcc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"nstore/internal/core"
	"nstore/internal/testbed"
)

// Transaction mix percentages (the standard TPC-C deck; ~88% of the
// workload modifies the database, §5.1).
const (
	pctNewOrder    = 45
	pctPayment     = 43
	pctOrderStatus = 4
	pctDelivery    = 4
	// StockLevel gets the remaining 4%.
)

// Generate pre-creates the fixed transaction workload. Each partition's
// transactions target only its home warehouses.
func Generate(cfg Config) [][]testbed.Txn {
	cfg = cfg.withDefaults()
	out := make([][]testbed.Txn, cfg.Partitions)
	perPart := cfg.Txns / cfg.Partitions
	// History sequence counters, per warehouse, namespaced by seed so
	// successive workloads on the same database never collide.
	histSeq := make([]int, cfg.Warehouses+1)
	histBase := int(cfg.Seed&0xfff) << 20
	for w := range histSeq {
		histSeq[w] = histBase
	}

	// Warehouses per partition.
	homes := make([][]int, cfg.Partitions)
	for w := 1; w <= cfg.Warehouses; w++ {
		p := cfg.PartitionOf(w)
		homes[p] = append(homes[p], w)
	}
	for p := 0; p < cfg.Partitions; p++ {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p*104729+7)))
		txns := make([]testbed.Txn, 0, perPart)
		if len(homes[p]) == 0 {
			out[p] = txns
			continue
		}
		for i := 0; i < perPart; i++ {
			w := homes[p][rng.Intn(len(homes[p]))]
			roll := rng.Intn(100)
			switch {
			case roll < pctNewOrder:
				txns = append(txns, genNewOrder(cfg, rng, w))
			case roll < pctNewOrder+pctPayment:
				histSeq[w]++
				txns = append(txns, genPayment(cfg, rng, w, histSeq[w]))
			case roll < pctNewOrder+pctPayment+pctOrderStatus:
				txns = append(txns, genOrderStatus(cfg, rng, w))
			case roll < pctNewOrder+pctPayment+pctOrderStatus+pctDelivery:
				txns = append(txns, genDelivery(cfg, rng, w))
			default:
				txns = append(txns, genStockLevel(cfg, rng, w))
			}
		}
		out[p] = txns
	}
	return out
}

type orderLineSpec struct {
	item, qty int
}

// genNewOrder creates a NewOrder invocation: order entry against one
// district, 5–15 order lines, 1% rolled back (§5.1, TPC-C §2.4).
func genNewOrder(cfg Config, rng *rand.Rand, w int) testbed.Txn {
	d := 1 + rng.Intn(cfg.Districts)
	c := randCustomerID(rng, cfg.Customers)
	lines := make([]orderLineSpec, 5+rng.Intn(11))
	for i := range lines {
		lines[i] = orderLineSpec{item: randItemID(rng, cfg.Items), qty: 1 + rng.Intn(10)}
	}
	abort := rng.Intn(100) == 0
	entry := rng.Int63n(1 << 30)

	return func(e core.Engine) error {
		wRow, ok, err := e.Get(TWarehouse, WarehouseKey(w))
		if err != nil || !ok {
			return orErr(err, "warehouse %d", w)
		}
		dKey := DistrictKey(w, d)
		dRow, ok, err := e.Get(TDistrict, dKey)
		if err != nil || !ok {
			return orErr(err, "district %d/%d", w, d)
		}
		oID := int(dRow[DNextOID].I)
		if err := e.Update(TDistrict, dKey, core.Update{
			Cols: []int{DNextOID}, Vals: []core.Value{core.IntVal(int64(oID + 1))},
		}); err != nil {
			return err
		}
		cRow, ok, err := e.Get(TCustomer, CustomerKey(w, d, c))
		if err != nil || !ok {
			return orErr(err, "customer %d/%d/%d", w, d, c)
		}
		_ = cRow
		if abort {
			// Unused item number: the transaction rolls back after the
			// district update (exercises undo).
			return testbed.ErrAbort
		}
		oKey := OrderKey(w, d, oID)
		if err := e.Insert(TOrder, oKey, []core.Value{
			core.IntVal(int64(oID)), core.IntVal(int64(d)), core.IntVal(int64(w)),
			core.IntVal(int64(c)), core.IntVal(entry), core.IntVal(0),
			core.IntVal(int64(len(lines))), core.IntVal(1),
		}); err != nil {
			return err
		}
		if err := e.Insert(TNewOrder, oKey, []core.Value{
			core.IntVal(int64(oID)), core.IntVal(int64(d)), core.IntVal(int64(w)),
		}); err != nil {
			return err
		}
		taxMul := 10000 + wRow[WTax].I + dRow[DTax].I
		for ol, spec := range lines {
			iRow, ok, err := e.Get(TItem, ItemKey(spec.item))
			if err != nil || !ok {
				return orErr(err, "item %d", spec.item)
			}
			sKey := StockKey(w, spec.item)
			sRow, ok, err := e.Get(TStock, sKey)
			if err != nil || !ok {
				return orErr(err, "stock %d/%d", w, spec.item)
			}
			qty := sRow[SQuantity].I
			if qty >= int64(spec.qty)+10 {
				qty -= int64(spec.qty)
			} else {
				qty = qty - int64(spec.qty) + 91
			}
			if err := e.Update(TStock, sKey, core.Update{
				Cols: []int{SQuantity, SYtd, SOrderCnt},
				Vals: []core.Value{
					core.IntVal(qty),
					core.IntVal(sRow[SYtd].I + int64(spec.qty)),
					core.IntVal(sRow[SOrderCnt].I + 1),
				},
			}); err != nil {
				return err
			}
			amount := int64(spec.qty) * iRow[IPrice].I * taxMul / 10000
			if err := e.Insert(TOrderLine, OrderLineKey(w, d, oID, ol+1), []core.Value{
				core.IntVal(int64(oID)), core.IntVal(int64(d)), core.IntVal(int64(w)),
				core.IntVal(int64(ol + 1)), core.IntVal(int64(spec.item)),
				core.IntVal(int64(w)), core.IntVal(0), core.IntVal(int64(spec.qty)),
				core.IntVal(amount), core.StrVal("dist-info-dist-info-dist"),
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// findCustomerByName implements the 60% by-last-name lookup: collect the
// matching customers, order by first name, pick the middle one.
func findCustomerByName(e core.Engine, w, d int, last string) (uint64, []core.Value, error) {
	sec := CustomerNameSec(w, d, last)
	var pks []uint64
	if err := e.ScanSecondary(TCustomer, IdxCustomerName, sec, func(pk uint64) bool {
		pks = append(pks, pk)
		return true
	}); err != nil {
		return 0, nil, err
	}
	type cand struct {
		pk    uint64
		row   []core.Value
		first string
	}
	var cands []cand
	for _, pk := range pks {
		row, ok, err := e.Get(TCustomer, pk)
		if err != nil {
			return 0, nil, err
		}
		if ok && string(row[CLast].S) == last {
			cands = append(cands, cand{pk, row, string(row[CFirst].S)})
		}
	}
	if len(cands) == 0 {
		return 0, nil, fmt.Errorf("tpcc: no customer named %q in %d/%d", last, w, d)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].first < cands[j].first })
	mid := cands[len(cands)/2]
	return mid.pk, mid.row, nil
}

// genPayment creates a Payment invocation.
func genPayment(cfg Config, rng *rand.Rand, w, histSeq int) testbed.Txn {
	d := 1 + rng.Intn(cfg.Districts)
	byName := rng.Intn(100) < 60
	c := randCustomerID(rng, cfg.Customers)
	last := LastName(randLastNum(rng, cfg.Customers))
	amount := int64(100 + rng.Intn(500000)) // cents

	return func(e core.Engine) error {
		wKey := WarehouseKey(w)
		wRow, ok, err := e.Get(TWarehouse, wKey)
		if err != nil || !ok {
			return orErr(err, "warehouse %d", w)
		}
		if err := e.Update(TWarehouse, wKey, core.Update{
			Cols: []int{WYtd}, Vals: []core.Value{core.IntVal(wRow[WYtd].I + amount)},
		}); err != nil {
			return err
		}
		dKey := DistrictKey(w, d)
		dRow, ok, err := e.Get(TDistrict, dKey)
		if err != nil || !ok {
			return orErr(err, "district %d/%d", w, d)
		}
		if err := e.Update(TDistrict, dKey, core.Update{
			Cols: []int{DYtd}, Vals: []core.Value{core.IntVal(dRow[DYtd].I + amount)},
		}); err != nil {
			return err
		}
		var cKey uint64
		var cRow []core.Value
		if byName {
			cKey, cRow, err = findCustomerByName(e, w, d, last)
			if err != nil {
				return err
			}
		} else {
			cKey = CustomerKey(w, d, c)
			cRow, ok, err = e.Get(TCustomer, cKey)
			if err != nil || !ok {
				return orErr(err, "customer %d/%d/%d", w, d, c)
			}
		}
		cols := []int{CBalance, CYtdPayment, CPaymentCnt}
		vals := []core.Value{
			core.IntVal(cRow[CBalance].I - amount),
			core.IntVal(cRow[CYtdPayment].I + amount),
			core.IntVal(cRow[CPaymentCnt].I + 1),
		}
		if string(cRow[CCredit].S) == "BC" {
			// Bad credit: fold payment details into c_data.
			data := fmt.Sprintf("%d,%d,%d,%d|", cKey, d, w, amount)
			merged := append([]byte(data), cRow[CData].S...)
			if len(merged) > 250 {
				merged = merged[:250]
			}
			cols = append(cols, CData)
			vals = append(vals, core.BytesVal(merged))
		}
		if err := e.Update(TCustomer, cKey, core.Update{Cols: cols, Vals: vals}); err != nil {
			return err
		}
		return e.Insert(THistory, HistoryKey(w, histSeq), []core.Value{
			core.IntVal(int64(histSeq)),
			core.IntVal(int64(cKey & 0xfff)),
			core.IntVal(int64(d)),
			core.IntVal(int64(w)),
			core.IntVal(0),
			core.IntVal(amount),
			core.StrVal("payment-history-data"),
		})
	}
}

// genOrderStatus creates an OrderStatus invocation: the customer's most
// recent order and its lines.
func genOrderStatus(cfg Config, rng *rand.Rand, w int) testbed.Txn {
	d := 1 + rng.Intn(cfg.Districts)
	byName := rng.Intn(100) < 60
	c := randCustomerID(rng, cfg.Customers)
	last := LastName(randLastNum(rng, cfg.Customers))

	return func(e core.Engine) error {
		var cKey uint64
		var err error
		if byName {
			cKey, _, err = findCustomerByName(e, w, d, last)
			if err != nil {
				return err
			}
		} else {
			cKey = CustomerKey(w, d, c)
			if _, ok, err := e.Get(TCustomer, cKey); err != nil || !ok {
				return orErr(err, "customer %d", cKey)
			}
		}
		// Most recent order of this customer.
		var lastOrder uint64
		if err := e.ScanSecondary(TOrder, IdxOrderCustomer, uint32(cKey), func(pk uint64) bool {
			if pk > lastOrder {
				lastOrder = pk
			}
			return true
		}); err != nil {
			return err
		}
		if lastOrder == 0 {
			return nil // customer has no orders yet
		}
		oRow, ok, err := e.Get(TOrder, lastOrder)
		if err != nil || !ok {
			return orErr(err, "order %d", lastOrder)
		}
		olCnt := int(oRow[OOLCnt].I)
		read := 0
		if err := e.ScanRange(TOrderLine, lastOrder<<4, (lastOrder+1)<<4,
			func(pk uint64, row []core.Value) bool {
				read++
				return true
			}); err != nil {
			return err
		}
		if read < olCnt {
			return fmt.Errorf("tpcc: order %d has %d lines, expected %d", lastOrder, read, olCnt)
		}
		return nil
	}
}

// genDelivery creates a Delivery invocation: deliver the oldest pending
// order of every district of the warehouse.
func genDelivery(cfg Config, rng *rand.Rand, w int) testbed.Txn {
	carrier := int64(1 + rng.Intn(10))
	deliveryD := rng.Int63n(1 << 30)

	return func(e core.Engine) error {
		for d := 1; d <= cfg.Districts; d++ {
			// Oldest undelivered order (smallest new_order key).
			var oldest uint64
			found := false
			if err := e.ScanRange(TNewOrder, OrderKey(w, d, 0), OrderKey(w, d+1, 0),
				func(pk uint64, row []core.Value) bool {
					oldest = pk
					found = true
					return false
				}); err != nil {
				return err
			}
			if !found {
				continue
			}
			if err := e.Delete(TNewOrder, oldest); err != nil {
				return err
			}
			oRow, ok, err := e.Get(TOrder, oldest)
			if err != nil || !ok {
				return orErr(err, "order %d", oldest)
			}
			if err := e.Update(TOrder, oldest, core.Update{
				Cols: []int{OCarrierID}, Vals: []core.Value{core.IntVal(carrier)},
			}); err != nil {
				return err
			}
			var total int64
			var olKeys []uint64
			if err := e.ScanRange(TOrderLine, oldest<<4, (oldest+1)<<4,
				func(pk uint64, row []core.Value) bool {
					total += row[OLAmount].I
					olKeys = append(olKeys, pk)
					return true
				}); err != nil {
				return err
			}
			for _, pk := range olKeys {
				if err := e.Update(TOrderLine, pk, core.Update{
					Cols: []int{OLDeliveryD}, Vals: []core.Value{core.IntVal(deliveryD)},
				}); err != nil {
					return err
				}
			}
			cKey := CustomerKey(w, d, int(oRow[OCID].I))
			cRow, ok, err := e.Get(TCustomer, cKey)
			if err != nil || !ok {
				return orErr(err, "customer %d", cKey)
			}
			if err := e.Update(TCustomer, cKey, core.Update{
				Cols: []int{CBalance}, Vals: []core.Value{core.IntVal(cRow[CBalance].I + total)},
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// genStockLevel creates a StockLevel invocation: count recently ordered
// items below a stock threshold.
func genStockLevel(cfg Config, rng *rand.Rand, w int) testbed.Txn {
	d := 1 + rng.Intn(cfg.Districts)
	threshold := int64(10 + rng.Intn(11))

	return func(e core.Engine) error {
		dRow, ok, err := e.Get(TDistrict, DistrictKey(w, d))
		if err != nil || !ok {
			return orErr(err, "district %d/%d", w, d)
		}
		next := int(dRow[DNextOID].I)
		lo := next - 20
		if lo < 1 {
			lo = 1
		}
		var items []int64
		if err := e.ScanRange(TOrderLine, OrderKey(w, d, lo)<<4, OrderKey(w, d, next)<<4,
			func(pk uint64, row []core.Value) bool {
				items = append(items, row[OLIID].I)
				return true
			}); err != nil {
			return err
		}
		// Distinct items in ascending id order: the order of the stock reads
		// decides cache residency, so it may not follow Go map iteration.
		slices.Sort(items)
		low := 0
		for _, i := range slices.Compact(items) {
			sRow, ok, err := e.Get(TStock, StockKey(w, int(i)))
			if err != nil || !ok {
				return orErr(err, "stock %d/%d", w, i)
			}
			if sRow[SQuantity].I < threshold {
				low++
			}
		}
		_ = low
		return nil
	}
}

func orErr(err error, format string, args ...interface{}) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("tpcc: missing "+format, args...)
}
