package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// Checks of the column-granular update path: an update reads what it writes.

// randomValue draws a value for column c.
func randomValue(rng *rand.Rand, c core.Column) core.Value {
	if c.Type == core.TInt {
		return core.IntVal(rng.Int63n(1 << 20))
	}
	return randomString(rng, 1+rng.Intn(c.Size))
}

// CheckIndexCols is the IndexSpec.Cols honesty property: on seeded rows of
// every indexed schema, changing any column an index does not declare never
// changes its SecKey. The engines skip the index, and the read of the old
// row, for an update that writes no declared column — a declaration that
// leaves out a column SecKey reads would let the index go stale with no
// error anywhere.
func CheckIndexCols(schemas []*core.Schema, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range schemas {
		for _, ix := range s.Secondary {
			if ix.Cols == nil {
				continue // "any column": nothing is skipped on its account
			}
			declared := make(map[int]bool, len(ix.Cols))
			for _, c := range ix.Cols {
				if c < 0 || c >= len(s.Columns) {
					return fmt.Errorf("%s.%s: Cols names column %d of %d", s.Name, ix.Name, c, len(s.Columns))
				}
				declared[c] = true
			}
			for n := 0; n < 64; n++ {
				row := make([]core.Value, len(s.Columns))
				for i, c := range s.Columns {
					row[i] = randomValue(rng, c)
				}
				want := ix.SecKey(row)
				for i, c := range s.Columns {
					if declared[i] {
						continue
					}
					changed := append([]core.Value(nil), row...)
					changed[i] = randomValue(rng, c)
					if got := ix.SecKey(changed); got != want {
						return fmt.Errorf("seed %d: %s.%s: SecKey moved %d -> %d when column %d (%s) changed, but Cols %v does not declare it",
							seed, s.Name, ix.Name, want, got, i, c.Name, ix.Cols)
					}
				}
			}
		}
	}
	return nil
}

// wideSchema is a usertable of a key, a 100-byte string column and n more
// string columns of width bytes.
func wideSchema(n, width int) []*core.Schema {
	cols := []core.Column{{Name: "key", Type: core.TInt}, {Name: "field0", Type: core.TString, Size: 100}}
	for i := 1; i <= n; i++ {
		cols = append(cols, core.Column{Name: fmt.Sprintf("field%d", i), Type: core.TString, Size: width})
	}
	return []*core.Schema{{Name: "usertable", Columns: cols}}
}

// RunUpdateTouchesOnlyItsLines updates the 100-byte column of one tuple with
// every cache line evicted, on tables whose other columns differ in number
// and width, and requires the transaction to load at most maxLoads lines on
// each: what an update costs does not depend on the columns it leaves alone.
// The tuple updated is old enough to have left an LSM engine's MemTable.
//
// clwbs, for an engine that persists with the sync primitive, is the exact
// number of CLWBs the update issues on each of the three tables — the lines
// it dirtied, each once (a count moves by one with where in a line a chunk
// happens to start, never with the table's shape beyond that). Such an engine
// also owes nothing for looking: a read-only transaction on the evicted cache
// must issue no store, no CLWB and no fence.
func RunUpdateTouchesOnlyItsLines(t *testing.T, f Factory, maxLoads uint64, clwbs ...uint64) {
	const tuples, target = 200, 5
	for i, shape := range []struct{ cols, width int }{{9, 100}, {29, 100}, {9, 1000}} {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, Profile: nvm.ProfileLowNVM})
		e, err := f.New(env, wideSchema(shape.cols, shape.width), core.Options{MemTableCap: 64})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		rng := rand.New(rand.NewSource(budgetSeed))
		for k := uint64(1); k <= tuples; k++ {
			row := []core.Value{core.IntVal(int64(k)), randomString(rng, 100)}
			for i := 0; i < shape.cols; i++ {
				row = append(row, randomString(rng, shape.width))
			}
			do(t, e.Begin())
			do(t, e.Insert("usertable", k, row))
			do(t, e.Commit())
		}
		// Two updates of the same kind first: the one measured recycles what
		// they freed instead of carving or splitting fresh chunks.
		for k := uint64(target + 2); k <= target+3; k++ {
			do(t, e.Begin())
			do(t, e.Update("usertable", k, core.Update{Cols: []int{1}, Vals: []core.Value{randomString(rng, 100)}}))
			do(t, e.Commit())
		}
		do(t, e.Flush())
		env.Dev.EvictAll()
		before := env.Dev.Stats()
		do(t, e.Begin())
		do(t, e.Update("usertable", target, core.Update{Cols: []int{1}, Vals: []core.Value{randomString(rng, 100)}}))
		do(t, e.Commit())
		cost := env.Dev.Stats().Sub(before)
		t.Logf("%s: beside %d columns x %d B, a one-column update loaded %d lines and issued %d CLWBs", f.Name, shape.cols, shape.width, cost.Loads, cost.Flushes)
		if cost.Loads > maxLoads {
			t.Errorf("%s: beside %d columns x %d B, a one-column update loaded %d lines, want at most %d", f.Name, shape.cols, shape.width, cost.Loads, maxLoads)
		}
		if clwbs != nil {
			if cost.Flushes != clwbs[i] {
				t.Errorf("%s: beside %d columns x %d B, a one-column update issued %d CLWBs, want %d", f.Name, shape.cols, shape.width, cost.Flushes, clwbs[i])
			}
			env.Dev.EvictAll()
			before = env.Dev.Stats()
			do(t, e.Begin())
			if _, ok, err := e.Get("usertable", target+1); err != nil || !ok {
				t.Fatalf("%s: Get: found=%v, err=%v", f.Name, ok, err)
			}
			do(t, e.Commit())
			if cost := env.Dev.Stats().Sub(before); cost.Stores != 0 || cost.Flushes != 0 || cost.Fences != 0 {
				t.Errorf("%s: a read-only transaction cost %d stores, %d CLWBs, %d fences, want none", f.Name, cost.Stores, cost.Flushes, cost.Fences)
			}
		}
		row, ok, err := e.Get("usertable", target)
		if err != nil || !ok || len(row[1].S) != 100 || len(row[2].S) != shape.width {
			t.Errorf("%s: tuple after the update: %d columns, found=%v, err=%v", f.Name, len(row), ok, err)
		}
	}
}

// tableDigest folds every row of the usertable into a string.
func tableDigest(t *testing.T, e core.Engine) string {
	t.Helper()
	var d []byte
	do(t, e.ScanRange("usertable", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		d = append(d, fmt.Sprintf("%d:", pk)...)
		for _, v := range row {
			d = append(d, fmt.Sprintf("%d/%s,", v.I, v.S)...)
		}
		return true
	}))
	return string(d)
}

// RunArenaExhaustion fills a small arena through Insert, then through Update,
// until the allocator runs out. Each time the engine must return the
// allocator's error — typed, neither retryable nor corrupt, and never a
// panic — and after Abort hold exactly what it held before the transaction,
// including an earlier write of the same transaction; it must then keep
// working once space is released.
func RunArenaExhaustion(t *testing.T, f Factory) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 8 << 20, FSFraction: 0.75})
	e, err := f.New(env, wideSchema(3, 4096), core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	rowOf := func(k uint64, n int) []core.Value {
		row := []core.Value{core.IntVal(int64(k))}
		for i := 0; i < 4; i++ {
			row = append(row, core.BytesVal(make([]byte, n)))
		}
		return row
	}
	// fails runs op inside a transaction that first updates key 1. If the
	// transaction runs out of memory it aborts, compares the table with its
	// state before the transaction, and reports true.
	stamp := int64(0)
	fails := func(what string, op func() error) bool {
		t.Helper()
		want := tableDigest(t, e)
		do(t, e.Begin())
		stamp++
		err := e.Update("usertable", 1, core.Update{Cols: []int{0}, Vals: []core.Value{core.IntVal(stamp)}})
		if err == nil {
			err = op()
		}
		if err == nil {
			do(t, e.Commit())
			return false
		}
		if !errors.Is(err, pmalloc.ErrOutOfMemory) || core.IsCorrupt(err) || core.IsRetryable(err) {
			t.Fatalf("%s: %s on a full arena: %v, want a plain out-of-memory error", f.Name, what, err)
		}
		do(t, e.Abort())
		if got := tableDigest(t, e); got != want {
			t.Fatalf("%s: the table changed across a transaction whose %s ran out of memory", f.Name, what)
		}
		return true
	}
	do(t, e.Begin())
	do(t, e.Insert("usertable", 1, rowOf(1, 64)))
	do(t, e.Commit())
	k := uint64(2)
	for ; ; k++ {
		if k > 4096 {
			t.Fatalf("%s: a 2 MB arena took %d 16 KB rows", f.Name, k)
		}
		if fails("insert", func() error { return e.Insert("usertable", k, rowOf(k, 4096)) }) {
			break
		}
	}
	if !fails("update", func() error {
		return e.Update("usertable", 1, core.Update{Cols: []int{1, 2, 3, 4}, Vals: rowOf(1, 4096)[1:]})
	}) {
		t.Fatalf("%s: an update that quadruples a row fitted into a full arena", f.Name)
	}
	// Space comes back, and the engine uses it.
	do(t, e.Begin())
	do(t, e.Delete("usertable", k-1))
	do(t, e.Commit())
	do(t, e.Begin())
	do(t, e.Insert("usertable", k, rowOf(k, 2048)))
	do(t, e.Commit())
	if _, ok, err := e.Get("usertable", k); err != nil || !ok {
		t.Fatalf("%s: insert after space was released: found=%v err=%v", f.Name, ok, err)
	}
}

// sameColsAsGet compares core.GetCols of every subset of the users table's
// columns against the projection of Get: same verdict on existence, schema
// width, the named columns equal, every other column the zero Value (nil S
// included, which is what the wire codec tells an int from a string by).
func sameColsAsGet(t *testing.T, when string, e core.Engine, key uint64) {
	t.Helper()
	want, wantOK, err := e.Get("users", key)
	do(t, err)
	width := len(testSchema()[0].Columns)
	for mask := 0; mask < 1<<width; mask++ {
		var cols []int
		for c := width - 1; c >= 0; c-- { // descending: order must not matter
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		got, ok, err := core.GetCols(e, "users", key, cols)
		if err != nil || ok != wantOK {
			t.Fatalf("%s: GetCols(users/%d, %v) found=%v err=%v, Get found=%v", when, key, cols, ok, err, wantOK)
		}
		var exp []core.Value // the projection of Get; nil when the key is missing
		if ok {
			exp = make([]core.Value, width)
			for _, c := range cols {
				exp[c] = want[c]
			}
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: GetCols(users/%d, %v) = %+v, projection of Get is %+v", when, key, cols, got, exp)
		}
	}
}

// RunColReader is the conformance of core.GetCols, the read a wire RMW's
// pre-image goes through: it must equal the projection of Get on committed
// tuples, inside a transaction after Update and Delete, after Abort, on a
// missing key and after crash + recovery — natively (native: the engine must
// be a core.ColReader) or through the fallback.
func RunColReader(t *testing.T, f Factory, native bool) {
	env := newEnv(t)
	opts := core.Options{MemTableCap: 16, GroupCommitSize: 1}
	e := mustEngine(t, f, env, opts)
	if _, ok := e.(core.ColReader); ok != native {
		t.Fatalf("%s: implements core.ColReader = %v, want %v", f.Name, ok, native)
	}
	const n = 40
	do(t, e.Begin())
	for k := uint64(1); k <= n; k++ {
		do(t, e.Insert("users", k, userRow(int64(k))))
	}
	do(t, e.Insert("users", n+1, []core.Value{core.IntVal(n + 1), core.IntVal(0), core.StrVal(""), core.StrVal("")}))
	do(t, e.Commit())
	all := func(when string, e core.Engine) {
		t.Helper()
		for k := uint64(1); k <= n+1; k++ {
			sameColsAsGet(t, when, e, k)
		}
		sameColsAsGet(t, when+", missing key", e, 9999)
	}
	all("committed", e)

	upd := core.Update{Cols: []int{1, 3}, Vals: []core.Value{core.IntVal(777), core.StrVal("rewritten bio")}}
	do(t, e.Begin())
	do(t, e.Update("users", 3, upd))
	do(t, e.Delete("users", 4))
	sameColsAsGet(t, "in txn after Update", e, 3)
	sameColsAsGet(t, "in txn after Delete", e, 4)
	if row, ok, _ := core.GetCols(e, "users", 3, []int{1}); !ok || row[1].I != 777 {
		t.Fatalf("%s: a transaction does not read its own update through GetCols: %v %v", f.Name, row, ok)
	}
	do(t, e.Abort())
	all("after Abort", e)
	if row, ok, _ := core.GetCols(e, "users", 3, []int{1}); !ok || row[1].I != 3 {
		t.Fatalf("%s: GetCols after Abort: %v %v, want the old balance", f.Name, row, ok)
	}
	do(t, e.Begin())
	do(t, e.Update("users", 3, upd))
	do(t, e.Delete("users", 4))
	do(t, e.Commit())
	all("after Commit", e)

	do(t, e.Flush())
	all("after crash + recovery", reopen(t, f, env, opts))
}
