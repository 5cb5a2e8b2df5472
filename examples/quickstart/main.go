// Quickstart: open a database on the NVM-aware in-place updates engine,
// run transactions, crash it, and recover instantly.
package main

import (
	"fmt"
	"log"

	"nstore"
)

func main() {
	// A table of accounts with a secondary index on the branch id.
	accounts := &nstore.Schema{
		Name: "accounts",
		Columns: []nstore.Column{
			{Name: "id", Type: nstore.TInt},
			{Name: "branch", Type: nstore.TInt},
			{Name: "owner", Type: nstore.TString, Size: 64},
			{Name: "balance", Type: nstore.TInt},
		},
		Secondary: []nstore.IndexSpec{{
			Name:   "by_branch",
			SecKey: func(row []nstore.Value) uint32 { return uint32(row[1].I) },
			// The columns SecKey reads: an update of any other column
			// (the balance, below) leaves the index and the old row alone.
			Cols: []int{1},
		}},
	}

	db, err := nstore.Open(nstore.Config{
		Engine:     nstore.NVMInP, // the paper's overall winner
		Partitions: 4,
		Schemas:    []*nstore.Schema{accounts},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened %s engine with %d partitions\n", db.Engine(), db.Partitions())

	// Insert a few accounts. Each key routes to its home partition.
	for id := uint64(1); id <= 100; id++ {
		id := id
		err := db.Txn(db.Route(id), func(tx nstore.Tx) error {
			return tx.Insert("accounts", id, []nstore.Value{
				nstore.IntVal(int64(id)),
				nstore.IntVal(int64(id % 10)),
				nstore.StrVal(fmt.Sprintf("owner-%d", id)),
				nstore.IntVal(1000),
			})
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Transfer money inside one partition-local transaction: keys 4 and 8
	// share partition 0 (both ≡ 0 mod 4).
	err = db.Txn(db.Route(4), func(tx nstore.Tx) error {
		from, _, err := tx.Get("accounts", 4)
		if err != nil {
			return err
		}
		to, _, err := tx.Get("accounts", 8)
		if err != nil {
			return err
		}
		if err := tx.Update("accounts", 4, nstore.Update{
			Cols: []int{3}, Vals: []nstore.Value{nstore.IntVal(from[3].I - 250)},
		}); err != nil {
			return err
		}
		return tx.Update("accounts", 8, nstore.Update{
			Cols: []int{3}, Vals: []nstore.Value{nstore.IntVal(to[3].I + 250)},
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// An aborted transaction leaves no trace.
	_ = db.Txn(db.Route(4), func(tx nstore.Tx) error {
		if err := tx.Update("accounts", 4, nstore.Update{
			Cols: []int{3}, Vals: []nstore.Value{nstore.IntVal(-1)},
		}); err != nil {
			return err
		}
		return nstore.ErrAbort // roll everything back
	})

	// Query through the secondary index: all accounts of branch 7. Branch
	// members live on every partition; collect from each.
	var branch7 []uint64
	for p := 0; p < db.Partitions(); p++ {
		if err := db.View(p, func(tx nstore.Tx) error {
			return tx.ScanSecondary("accounts", "by_branch", 7, func(pk uint64) bool {
				branch7 = append(branch7, pk)
				return true
			})
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("branch 7 has %d accounts\n", len(branch7))

	// Power failure! Volatile CPU caches are lost; only NVM survives.
	db.Crash()
	latency, err := db.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered in %v (no redo, no index rebuild on %s)\n", latency, db.Engine())

	// Everything committed is still there; the abort never happened.
	err = db.View(db.Route(4), func(tx nstore.Tx) error {
		row, ok, err := tx.Get("accounts", 4)
		if err != nil || !ok {
			return fmt.Errorf("account 4 lost: %v", err)
		}
		fmt.Printf("account 4 balance after crash: %d (want 750)\n", row[3].I)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	s := db.Stats()
	fmt.Printf("NVM traffic: %d line loads, %d line stores, %d fences\n",
		s.Loads, s.Stores, s.Fences)
}
