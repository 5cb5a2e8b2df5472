package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvm"
)

// DeviceBudget is a per-transaction ceiling in the device's own counters.
// StallUS, if set, also caps the simulated stall they add up to (with the
// filesystem's per-call charge), for an engine whose counters trade against
// each other.
type DeviceBudget struct {
	Loads, Stores, Flushes, Fences float64
	StallUS                        float64
}

// The budget schedule: the benchmark's write leg in small. A YCSB usertable
// (ten 100-byte fields) is loaded, then transactions each update one field of
// one uniformly drawn tuple, on the low-NVM latency profile with a cache the
// table does not fit in. Everything is drawn from one fixed seed, so the
// counters are a pure function of the engine's code.
const (
	budgetFields = 10
	budgetSeed   = 20150531
)

// BudgetSchedule sizes the budget schedule: the tuples loaded, the updates
// run after the load and not measured, and the updates measured after those.
type BudgetSchedule struct {
	Tuples, Warmup, Txns int
}

// Budget is the schedule TestDeviceBudget measures an engine on by default:
// the 2 000 updates right after a 3 000-tuple load.
var Budget = BudgetSchedule{Tuples: 3000, Txns: 2000}

// SteadyBudget measures 12 000 updates after 6 000 unmeasured ones: for an
// engine whose cost right after a load is not the cost it settles at (an LSM
// whose merges have not reached its oldest run yet).
func SteadyBudget(tuples int) BudgetSchedule {
	return BudgetSchedule{Tuples: tuples, Warmup: 6000, Txns: 12000}
}

func budgetSchema() []*core.Schema {
	cols := []core.Column{{Name: "key", Type: core.TInt}}
	for i := 0; i < budgetFields; i++ {
		cols = append(cols, core.Column{Name: fmt.Sprintf("field%d", i), Type: core.TString, Size: 100})
	}
	return []*core.Schema{{Name: "usertable", Columns: cols}}
}

// randomString draws n lower-case letters.
func randomString(rng *rand.Rand, n int) core.Value {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return core.BytesVal(b)
}

func budgetField(rng *rand.Rand) core.Value { return randomString(rng, 100) }

// DeviceCost runs the budget schedule s on a fresh engine and returns the
// device counters its measured update transactions (and the final Flush)
// consumed.
func DeviceCost(f Factory, s BudgetSchedule) (nvm.Stats, error) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 96 << 20, Profile: nvm.ProfileLowNVM, CacheSize: 128 << 10})
	schemas := budgetSchema()
	e, err := f.New(env, schemas, core.Options{MemTableCap: 512})
	if err != nil {
		return nvm.Stats{}, err
	}
	rng := rand.New(rand.NewSource(budgetSeed))
	txn := func(op func() error) error {
		if err := e.Begin(); err != nil {
			return err
		}
		if err := op(); err != nil {
			return err
		}
		return e.Commit()
	}
	for k := uint64(1); k <= uint64(s.Tuples); k++ {
		row := []core.Value{core.IntVal(int64(k))}
		for i := 0; i < budgetFields; i++ {
			row = append(row, budgetField(rng))
		}
		if err := txn(func() error { return e.Insert("usertable", k, row) }); err != nil {
			return nvm.Stats{}, fmt.Errorf("load key %d: %w", k, err)
		}
	}
	if err := e.Flush(); err != nil {
		return nvm.Stats{}, err
	}
	var before nvm.Stats
	for i := 0; i < s.Warmup+s.Txns; i++ {
		if i == s.Warmup {
			before = env.Dev.Stats()
		}
		k := uint64(rng.Intn(s.Tuples)) + 1
		upd := core.Update{Cols: []int{1 + rng.Intn(budgetFields)}, Vals: []core.Value{budgetField(rng)}}
		if err := txn(func() error { return e.Update("usertable", k, upd) }); err != nil {
			return nvm.Stats{}, fmt.Errorf("txn %d: %w", i, err)
		}
	}
	if err := e.Flush(); err != nil {
		return nvm.Stats{}, err
	}
	return env.Dev.Stats().Sub(before), nil
}

// RunDeviceBudget states an engine's write-path cost in exact device
// counters instead of wall clock: two executions of the budget schedule s must
// consume identical counters (page and flush order may not follow Go map
// order), and loads, stores, flushes and fences per measured transaction must
// stay under max, which each engine pins about a tenth above its current cost.
func RunDeviceBudget(t *testing.T, f Factory, s BudgetSchedule, max DeviceBudget) {
	first, err := DeviceCost(f, s)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	second, err := DeviceCost(f, s)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	if first != second {
		t.Errorf("%s: device counters differ between two identical executions:\n  %+v\n  %+v", f.Name, first, second)
	}
	per := func(n uint64) float64 { return float64(n) / float64(s.Txns) }
	stallUS := float64(first.Stall.Nanoseconds()) / 1e3 / float64(s.Txns)
	t.Logf("%s per txn: loads %.1f stores %.1f flushes %.1f fences %.2f (stall %.2f us); raw %+v", f.Name,
		per(first.Loads), per(first.Stores), per(first.Flushes), per(first.Fences), stallUS, first)
	if max.StallUS > 0 && stallUS > max.StallUS {
		t.Errorf("%s: %.2f us of stall per txn, budget %.2f", f.Name, stallUS, max.StallUS)
	}
	for _, c := range []struct {
		name     string
		got, max float64
	}{
		{"loads", per(first.Loads), max.Loads},
		{"stores", per(first.Stores), max.Stores},
		{"flushes", per(first.Flushes), max.Flushes},
		{"fences", per(first.Fences), max.Fences},
	} {
		if c.got > c.max {
			t.Errorf("%s: %.1f %s per txn, budget %.1f", f.Name, c.got, c.name, c.max)
		}
	}
}
