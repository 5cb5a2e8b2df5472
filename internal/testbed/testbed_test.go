package testbed

import (
	"errors"
	"strings"
	"testing"

	"nstore/internal/core"
)

func schemas() []*core.Schema {
	return []*core.Schema{{
		Name:    "t",
		Columns: []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TInt}},
	}}
}

func newDB(t testing.TB, kind EngineKind) *DB {
	t.Helper()
	db, err := New(Config{
		Engine:     kind,
		Partitions: 4,
		Env:        core.EnvConfig{DeviceSize: 64 << 20},
		Schemas:    schemas(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecutePartitionedTxns(t *testing.T) {
	db := newDB(t, NVMInP)
	work := make([][]Txn, 4)
	for p := 0; p < 4; p++ {
		p := p
		for i := 0; i < 50; i++ {
			key := uint64(i*4 + p)
			work[p] = append(work[p], func(e core.Engine) error {
				return e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(1)})
			})
		}
	}
	res, err := db.Execute(work)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 200 || res.Aborted != 0 {
		t.Fatalf("committed=%d aborted=%d", res.Committed, res.Aborted)
	}
	if res.Throughput() <= 0 {
		t.Error("no throughput")
	}
	// Every key must be on its routed partition and nowhere else.
	for key := uint64(0); key < 200; key++ {
		home := db.Route(key)
		for p := 0; p < 4; p++ {
			_, ok, _ := db.Engine(p).Get("t", key)
			if ok != (p == home) {
				t.Fatalf("key %d: present=%v on partition %d (home %d)", key, ok, p, home)
			}
		}
	}
}

func TestErrAbortRollsBack(t *testing.T) {
	db := newDB(t, InP)
	work := make([][]Txn, 4)
	work[0] = []Txn{
		func(e core.Engine) error {
			return e.Insert("t", 0, []core.Value{core.IntVal(0), core.IntVal(1)})
		},
		func(e core.Engine) error {
			if err := e.Insert("t", 4, []core.Value{core.IntVal(4), core.IntVal(1)}); err != nil {
				return err
			}
			return ErrAbort
		},
	}
	res, err := db.Execute(work)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 || res.Aborted != 1 {
		t.Fatalf("committed=%d aborted=%d", res.Committed, res.Aborted)
	}
	if _, ok, _ := db.Engine(0).Get("t", 4); ok {
		t.Error("aborted insert visible")
	}
}

func TestRealErrorPropagates(t *testing.T) {
	db := newDB(t, CoW)
	boom := errors.New("boom")
	work := make([][]Txn, 4)
	work[2] = []Txn{func(e core.Engine) error { return boom }}
	if _, err := db.Execute(work); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrashRecoverAllEngines(t *testing.T) {
	for _, kind := range Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			db := newDB(t, kind)
			work := make([][]Txn, 4)
			for p := 0; p < 4; p++ {
				for i := 0; i < 25; i++ {
					key := uint64(i*4 + p)
					work[p] = append(work[p], func(e core.Engine) error {
						return e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(7)})
					})
				}
			}
			if _, err := db.Execute(work); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.Crash()
			d, err := db.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if d <= 0 {
				t.Error("zero recovery latency")
			}
			for key := uint64(0); key < 100; key++ {
				row, ok, _ := db.Engine(db.Route(key)).Get("t", key)
				if !ok || row[1].I != 7 {
					t.Fatalf("key %d wrong after recovery (ok=%v)", key, ok)
				}
			}
		})
	}
}

// TestRecoveryParallelismRefused: every engine recovers on the goroutine that
// opens it, so New and Open of all six refuse any Options.RecoveryParallelism
// but 0 or 1, naming the field, instead of silently ignoring it.
func TestRecoveryParallelismRefused(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(string(kind), func(t *testing.T) {
			refused := func(op string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "RecoveryParallelism") {
					t.Fatalf("%s with RecoveryParallelism 2: %v, want an error naming the field", op, err)
				}
			}
			env := core.NewEnv(core.EnvConfig{DeviceSize: 16 << 20})
			_, err := buildEngine(kind, env, schemas(), core.Options{RecoveryParallelism: 2}, false)
			refused("New", err)
			e, err := buildEngine(kind, env, schemas(), core.Options{RecoveryParallelism: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			env.Dev.Crash()
			reopen := env.ReopenVolatile
			if kind.IsNVMAware() {
				reopen = env.Reopen
			}
			if env, err = reopen(); err != nil {
				t.Fatal(err)
			}
			_, err = buildEngine(kind, env, schemas(), core.Options{RecoveryParallelism: 2}, true)
			refused("Open", err)
			if _, err := buildEngine(kind, env, schemas(), core.Options{RecoveryParallelism: 1}, true); err != nil {
				t.Fatalf("Open with RecoveryParallelism 1: %v", err)
			}
		})
	}
}

func TestEngineKindHelpers(t *testing.T) {
	if !NVMInP.IsNVMAware() || InP.IsNVMAware() {
		t.Error("IsNVMAware wrong")
	}
	if NVMLog.Traditional() != Log || CoW.Traditional() != CoW {
		t.Error("Traditional wrong")
	}
	if len(Kinds) != 6 {
		t.Errorf("Kinds has %d entries", len(Kinds))
	}
}

func TestFootprintAndBreakdownAggregate(t *testing.T) {
	db := newDB(t, Log)
	work := make([][]Txn, 4)
	for p := 0; p < 4; p++ {
		for i := 0; i < 30; i++ {
			key := uint64(i*4 + p)
			work[p] = append(work[p], func(e core.Engine) error {
				return e.Insert("t", key, []core.Value{core.IntVal(int64(key)), core.IntVal(1)})
			})
		}
	}
	if _, err := db.Execute(work); err != nil {
		t.Fatal(err)
	}
	if db.Footprint().Total() == 0 {
		t.Error("zero footprint")
	}
	bd := db.Breakdown()
	if bd.Total() == 0 {
		t.Error("zero breakdown")
	}
	if db.Stats().Loads == 0 {
		t.Error("zero NVM loads")
	}
	db.ResetStats()
	if db.Stats().Loads != 0 {
		t.Error("ResetStats did not reset")
	}
}
