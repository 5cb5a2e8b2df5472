package mvcc

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"nstore/internal/core"
)

var propSeed = flag.Int64("seed", 1, "base seed for the randomized store schedules")

// PropSeed hands the -seed flag to the engine-driven property tests
// (prop_test.go, package mvcc_test).
var PropSeed = propSeed

func testSchemas() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "v", Type: core.TInt},
		},
		Secondary: []core.IndexSpec{{
			Name:   "by_v",
			SecKey: func(row []core.Value) uint32 { return uint32(row[1].I) },
			Cols:   []int{1},
		}},
	}}
}

func row(id, v int64) []core.Value {
	return []core.Value{core.IntVal(id), core.IntVal(v)}
}

// memEngine is a map-backed engine over one Store: the newest version of
// every row lives in rows, as it would on the device, and each write stages
// its pre-image. It takes the exclusion like the real engines (core.Base).
// Commits publish when durable is set, otherwise at Flush. With wholeRow set,
// an update stages the whole old row instead of the updated columns.
type memEngine struct {
	core.Base
	s        *Store
	rows     map[string]map[uint64][]core.Value
	saved    map[string]map[uint64][]core.Value // the rows at Begin, for Abort
	durable  bool
	wholeRow bool
}

func newMem(schemas []*core.Schema, floor uint64) *memEngine {
	e := &memEngine{rows: map[string]map[uint64][]core.Value{}, durable: true}
	e.InitBase(nil, schemas)
	for _, sc := range schemas {
		e.rows[sc.Name] = map[uint64][]core.Value{}
	}
	e.s = NewStore(e, schemas, floor)
	return e
}

func (e *memEngine) Name() string { return "mem" }

func (e *memEngine) Begin() error {
	if err := e.BeginTx(); err != nil {
		return err
	}
	e.saved = map[string]map[uint64][]core.Value{}
	for t, m := range e.rows {
		e.saved[t] = map[uint64][]core.Value{}
		for k, r := range m {
			e.saved[t][k] = r
		}
	}
	return nil
}

func (e *memEngine) Commit() error {
	e.s.CommitStaged(e.TxnID, e.durable)
	return e.EndTx()
}

func (e *memEngine) Abort() error {
	e.rows = e.saved
	e.s.DropStaged()
	return e.EndTx()
}

func (e *memEngine) Insert(table string, key uint64, r []core.Value) error {
	if _, ok := e.rows[table][key]; ok {
		return core.ErrKeyExists
	}
	e.rows[table][key] = core.CloneRow(r)
	e.s.StageInsert(table, key)
	return nil
}

func (e *memEngine) Update(table string, key uint64, upd core.Update) error {
	old, ok := e.rows[table][key]
	if !ok {
		return core.ErrKeyNotFound
	}
	now := core.CloneRow(old)
	core.ApplyDelta(now, core.Update{Cols: upd.Cols, Vals: core.CloneRow(upd.Vals)})
	e.rows[table][key] = now
	if e.wholeRow {
		e.s.StageUpdate(table, key, nil, old)
		return nil
	}
	pre := make([]core.Value, len(upd.Cols))
	for j, c := range upd.Cols {
		pre[j] = old[c]
	}
	e.s.StageUpdate(table, key, upd.Cols, pre)
	return nil
}

func (e *memEngine) Delete(table string, key uint64) error {
	old, ok := e.rows[table][key]
	if !ok {
		return core.ErrKeyNotFound
	}
	delete(e.rows[table], key)
	e.s.StageDelete(table, key, old)
	return nil
}

func (e *memEngine) Get(table string, key uint64) ([]core.Value, bool, error) {
	r, ok := e.rows[table][key]
	return core.CloneRow(r), ok, nil
}

func (e *memEngine) sorted(table string) []uint64 {
	var keys []uint64
	for k := range e.rows[table] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (e *memEngine) ScanRange(table string, from, to uint64, fn func(uint64, []core.Value) bool) error {
	for _, k := range e.sorted(table) {
		if k >= from && k < to && !fn(k, core.CloneRow(e.rows[table][k])) {
			break
		}
	}
	return nil
}

func (e *memEngine) ScanSecondary(table, index string, sec uint32, fn func(uint64) bool) error {
	tm, err := e.Table(table)
	if err != nil {
		return err
	}
	j, _ := tm.SecPos(index)
	for _, k := range e.sorted(table) {
		if tm.Schema.Secondary[j].SecKey(e.rows[table][k]) == sec && !fn(k) {
			break
		}
	}
	return nil
}

func (e *memEngine) Flush() error {
	defer e.Exclude()()
	e.s.PublishDurable()
	return nil
}

func (e *memEngine) Footprint() core.Footprint { return core.Footprint{} }

// put commits one insert-or-update of key to v.
func (e *memEngine) put(t *testing.T, key uint64, v int64) {
	t.Helper()
	e.txn(t, func() error {
		if _, ok := e.rows["t"][key]; ok {
			return e.Update("t", key, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(v)}})
		}
		return e.Insert("t", key, row(int64(key), v))
	})
}

func (e *memEngine) del(t *testing.T, key uint64) {
	t.Helper()
	e.txn(t, func() error { return e.Delete("t", key) })
}

func (e *memEngine) txn(t *testing.T, fn func() error) {
	t.Helper()
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestViewPinsSnapshot(t *testing.T) {
	e := newMem(testSchemas(), 0)
	e.put(t, 10, 100)
	v1 := e.s.NewView()
	defer v1.Close()
	e.put(t, 10, 200)

	got, ok, err := v1.Get("t", 10)
	if err != nil || !ok || got[1].I != 100 {
		t.Fatalf("pinned view: got %v ok=%v err=%v, want v=100", got, ok, err)
	}
	v2 := e.s.NewView()
	defer v2.Close()
	got, ok, _ = v2.Get("t", 10)
	if !ok || got[1].I != 200 {
		t.Fatalf("fresh view: got %v ok=%v, want v=200", got, ok)
	}
	if v1.Ts() != 1 || v2.Ts() != 2 {
		t.Fatalf("view ts: %d, %d", v1.Ts(), v2.Ts())
	}
}

func TestUnpublishedCommitInvisible(t *testing.T) {
	e := newMem(testSchemas(), 0)
	e.durable = false // committed but parked at the barrier
	e.put(t, 1, 10)
	v := e.s.NewView()
	if _, ok, _ := v.Get("t", 1); ok {
		t.Fatal("unpublished commit visible to a snapshot")
	}
	if v.Ts() != 0 {
		t.Fatalf("ts advanced past an unpublished commit: %d", v.Ts())
	}
	v.Close()

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	v = e.s.NewView()
	defer v.Close()
	if got, ok, _ := v.Get("t", 1); !ok || got[1].I != 10 {
		t.Fatalf("published commit not visible: %v ok=%v", got, ok)
	}
}

func TestAbortDropsStaged(t *testing.T) {
	e := newMem(testSchemas(), 0)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("t", 1, row(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(); err != nil {
		t.Fatal(err)
	}
	e.txn(t, func() error { return nil })
	v := e.s.NewView()
	defer v.Close()
	if _, ok, _ := v.Get("t", 1); ok {
		t.Fatal("aborted write visible")
	}
	if n := e.s.UndoStats().Records; n != 0 {
		t.Fatalf("aborted write left %d pre-images", n)
	}
}

func TestDeleteAndSecondary(t *testing.T) {
	e := newMem(testSchemas(), 0)
	e.put(t, 1, 7)
	e.put(t, 2, 7)
	old := e.s.NewView()
	defer old.Close()

	e.del(t, 1)
	e.put(t, 2, 9) // moves 2 out of sec bucket 7

	collect := func(v core.ReadView, sec uint32) []uint64 {
		var pks []uint64
		if err := v.ScanSecondary("t", "by_v", sec, func(pk uint64) bool {
			pks = append(pks, pk)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return pks
	}
	if got := collect(old, 7); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("old view sec scan: %v, want [1 2]", got)
	}
	if got := collect(old, 9); len(got) != 0 {
		t.Fatalf("old view sec bucket 9: %v, want empty", got)
	}
	now := e.s.NewView()
	defer now.Close()
	if got := collect(now, 7); len(got) != 0 {
		t.Fatalf("new view sec bucket 7: %v, want empty", got)
	}
	if got := collect(now, 9); len(got) != 1 || got[0] != 2 {
		t.Fatalf("new view sec bucket 9: %v, want [2]", got)
	}
	if _, ok, _ := now.Get("t", 1); ok {
		t.Fatal("deleted key visible in new view")
	}
	if got, ok, _ := old.Get("t", 1); !ok || got[1].I != 7 {
		t.Fatalf("deleted key in the old view: %v ok=%v", got, ok)
	}
}

func TestScanRangeSnapshot(t *testing.T) {
	e := newMem(testSchemas(), 0)
	for i := uint64(1); i <= 5; i++ {
		e.put(t, i, int64(i)*10)
	}
	v := e.s.NewView()
	defer v.Close()
	e.put(t, 3, 999) // after the view: rolled back
	e.del(t, 2)      // after the view: the engine no longer has it
	e.put(t, 6, 60)  // after the view: invisible
	var keys []uint64
	var vals []int64
	if err := v.ScanRange("t", 2, 7, func(pk uint64, r []core.Value) bool {
		keys = append(keys, pk)
		vals = append(vals, r[1].I)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys[0] != 2 || keys[1] != 3 || keys[2] != 4 || keys[3] != 5 {
		t.Fatalf("scan keys %v, want [2 3 4 5]", keys)
	}
	if vals[0] != 20 || vals[1] != 30 {
		t.Fatalf("scan saw post-snapshot writes: %v", vals)
	}
	keys = keys[:0]
	if err := v.ScanRange("t", 0, 10, func(pk uint64, _ []core.Value) bool {
		keys = append(keys, pk)
		return len(keys) < 2
	}); err != nil || len(keys) != 2 || keys[1] != 2 {
		t.Fatalf("a scan stopped after two rows gave %v (err %v), want [1 2]", keys, err)
	}
}

func TestGCRespectsWatermark(t *testing.T) {
	e := newMem(testSchemas(), 0)
	e.s.GCEvery = 0 // manual GC only
	for i := int64(1); i <= 10; i++ {
		e.put(t, 1, i)
	}
	// Pin a view, write past it, GC: the pinned view's pre-images survive.
	vOld := e.s.NewView() // ts 10
	for i := int64(11); i <= 15; i++ {
		e.put(t, 1, i)
	}
	if reclaimed := e.s.GC(); reclaimed != 10 {
		t.Fatalf("GC reclaimed %d pre-images, want the 10 at or below the watermark", reclaimed)
	}
	if got, ok, _ := vOld.Get("t", 1); !ok || got[1].I != 10 {
		t.Fatalf("GC reclaimed a pre-image the pinned view needs: %v ok=%v", got, ok)
	}
	vNew := e.s.NewView()
	if got, ok, _ := vNew.Get("t", 1); !ok || got[1].I != 15 {
		t.Fatalf("newest version damaged by GC: %v ok=%v", got, ok)
	}
	vNew.Close()
	vOld.Close()

	// With no view pinned, nothing is left to roll back.
	e.s.GC()
	if n := e.s.UndoStats().Records; n != 0 {
		t.Fatalf("post-GC pre-images = %d, want 0", n)
	}
}

// TestGCReplacesGrownMaps: Go never shrinks a map, so a table whose pre-images
// once covered a bulk load would hold that map for good. GC replaces a table's
// undo map when it empties it after it grew past 1 024 keys, and keeps
// smaller ones.
func TestGCReplacesGrownMaps(t *testing.T) {
	maps := func(e *memEngine) uintptr {
		return reflect.ValueOf(e.s.tables[0].undo).Pointer()
	}
	for _, keys := range []uint64{shrinkPast, shrinkPast + 1} {
		e := newMem(testSchemas(), 0)
		e.s.GCEvery = 0
		before := maps(e)
		e.txn(t, func() error {
			for k := uint64(1); k <= keys; k++ {
				if err := e.Insert("t", k, row(int64(k), 1)); err != nil {
					return err
				}
			}
			return nil
		})
		if n := e.s.GC(); n != int(keys) {
			t.Fatalf("GC dropped %d pre-images, want %d", n, keys)
		}
		if replaced := maps(e) != before; replaced != (keys > shrinkPast) {
			t.Errorf("%d keys written and dropped: map replaced = %v", keys, replaced)
		}
		e.put(t, 1, 2)
		v := e.s.NewView()
		if got, ok, _ := v.Get("t", 1); !ok || got[1].I != 2 {
			t.Errorf("after GC: key 1 = %v ok=%v, want v=2", got, ok)
		}
		v.Close()
	}
}

func TestGCRemovesDeadChains(t *testing.T) {
	e := newMem(testSchemas(), 0)
	e.s.GCEvery = 0
	e.put(t, 1, 10)
	e.del(t, 1)
	e.s.GC()
	if n := e.s.UndoStats().Records; n != 0 {
		t.Fatalf("a deleted key's pre-images survived GC: %d", n)
	}
	v := e.s.NewView()
	defer v.Close()
	if _, ok, _ := v.Get("t", 1); ok {
		t.Fatal("reclaimed key visible")
	}
	if err := v.ScanRange("t", 0, ^uint64(0), func(uint64, []core.Value) bool {
		t.Fatal("reclaimed key surfaced in scan")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersRace: readers pin views and read while the owner
// commits, some commits parked at the barrier. Each row's value is the
// timestamp of the commit that wrote it, so nothing newer than the view may
// surface, and a key's value never goes back below what the view saw.
func TestConcurrentReadersRace(t *testing.T) {
	e := newMem(testSchemas(), 0)
	const writers = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := e.s.NewView()
				ts := v.Ts()
				_ = v.ScanRange("t", 0, ^uint64(0), func(pk uint64, r []core.Value) bool {
					if uint64(r[1].I) > ts {
						t.Errorf("view ts %d observed commit %d", ts, r[1].I)
						return false
					}
					return true
				})
				if r, ok, _ := v.Get("t", 3); ok && uint64(r[1].I) > ts {
					t.Errorf("view ts %d read commit %d", ts, r[1].I)
				}
				_ = v.ScanSecondary("t", "by_v", 1, func(uint64) bool { return true })
				v.Close()
			}
		}()
	}
	for i := uint64(1); i <= writers; i++ {
		e.durable = i%3 != 0 // mix deferred and immediate publishes
		e.put(t, i%8, int64(i))
		if i%3 == 0 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestCaptureOnlyWhilePinned: an engine that publishes at commit learns from
// Capture whether a write needs its pre-image, and each yes is counted.
func TestCaptureOnlyWhilePinned(t *testing.T) {
	e := newMem(testSchemas(), 0)
	if e.s.Capture() {
		t.Fatal("Capture with no view pinned")
	}
	v := e.s.NewView()
	if !e.s.Capture() || !e.s.Capture() {
		t.Fatal("no Capture with a view pinned")
	}
	v.Close()
	if e.s.Capture() {
		t.Fatal("Capture after the view closed")
	}
	if n := e.s.UndoStats().Captures; n != 2 {
		t.Fatalf("captures = %d, want 2", n)
	}
}

// TestRetiredEngineTurnsReadersAway: once the engine is retired (its device
// power-cycled), views fail with the retryable core.ErrRetired.
func TestRetiredEngineTurnsReadersAway(t *testing.T) {
	e := newMem(testSchemas(), 0)
	e.put(t, 1, 10)
	v := e.s.NewView()
	defer v.Close()
	e.Retire()
	if _, _, err := v.Get("t", 1); !core.IsRetryable(err) {
		t.Fatalf("Get on a retired engine: %v, want core.ErrRetired", err)
	}
	if err := e.s.ReadSnapshot(func(core.ReadView) error { return nil }); err != core.ErrRetired {
		t.Fatalf("ReadSnapshot on a retired engine: %v", err)
	}
	if _, _, err := e.s.NewView().Get("t", 1); err != core.ErrRetired {
		t.Fatalf("a view pinned after Retire read: %v", err)
	}
}

// deltaSchemas has one index that declares the column it reads and one that
// declares nothing ("any column"), and a string column.
func deltaSchemas() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TInt},
			{Name: "s", Type: core.TString, Size: 16},
		},
		Secondary: []core.IndexSpec{
			{Name: "by_a", SecKey: func(row []core.Value) uint32 { return uint32(row[1].I & 3) }, Cols: []int{1}},
			{Name: "by_b", SecKey: func(row []core.Value) uint32 { return uint32(row[2].I & 3) }},
		},
	}}
}

// dump renders what a view over deltaSchemas shows — rows in key order and
// both indexes' membership — from a view, or from a model when v is nil.
func dump(v core.ReadView, model map[uint64][]core.Value) (string, error) {
	sc := deltaSchemas()[0]
	var out []byte
	var keys []uint64
	rows := map[uint64][]core.Value{}
	if v == nil {
		for k, r := range model {
			keys, rows[k] = append(keys, k), r
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	} else if err := v.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		keys, rows[pk] = append(keys, pk), row
		return true
	}); err != nil {
		return "", err
	}
	for _, k := range keys {
		r := rows[k]
		out = append(out, fmt.Sprintf("%d=(%d,%d,%d,%s) ", k, r[0].I, r[1].I, r[2].I, r[3].S)...)
	}
	for _, ix := range sc.Secondary {
		for sec := uint32(0); sec < 4; sec++ {
			out = append(out, fmt.Sprintf("%s[%d]:", ix.Name, sec)...)
			if v == nil {
				for _, k := range keys {
					if ix.SecKey(rows[k]) == sec {
						out = append(out, fmt.Sprintf("%d,", k)...)
					}
				}
				continue
			}
			if err := v.ScanSecondary("t", ix.Name, sec, func(pk uint64) bool {
				out = append(out, fmt.Sprintf("%d,", pk)...)
				return true
			}); err != nil {
				return "", err
			}
		}
	}
	return string(out), nil
}

func cloneModel(m map[uint64][]core.Value) map[uint64][]core.Value {
	out := make(map[uint64][]core.Value, len(m))
	for k, v := range m {
		out[k] = core.CloneRow(v)
	}
	return out
}

// runPreImageEquivalence runs one seeded schedule on two engines — updates
// staging the updated columns' old values in one, the whole old row in the
// other — and checks every view pinned along the way, after every
// transaction, against the serial model: the committed state as of the last
// publish before the pin. The schedule has several updates of one key in a
// transaction, inserts and deletes around them, aborts, commits parked at
// the barrier, and GC every third publish.
func runPreImageEquivalence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	schemas := deltaSchemas()
	byCols, byRow := newMem(schemas, 0), newMem(schemas, 0)
	byRow.wholeRow = true
	engines := []*memEngine{byCols, byRow}
	for _, e := range engines {
		e.s.GCEvery = 3
	}
	committed := map[uint64][]core.Value{} // the engines' state, parked commits included
	published := map[uint64][]core.Value{}
	type pin struct {
		v     [2]core.ReadView
		model map[uint64][]core.Value
	}
	var pins []pin
	defer func() {
		for _, p := range pins {
			p.v[0].Close()
			p.v[1].Close()
		}
	}()
	check := func(when string) error {
		for n, p := range pins {
			want, _ := dump(nil, p.model)
			for i, v := range p.v {
				got, err := dump(v, nil)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("%s: view %d (ts %d) on engine %d:\n  got  %s\n  want %s", when, n, v.Ts(), i, got, want)
				}
			}
		}
		return nil
	}
	each := func(fn func(e *memEngine) error) error {
		for _, e := range engines {
			if err := fn(e); err != nil {
				return err
			}
		}
		return nil
	}
	for ts := uint64(1); ts <= 120; ts++ {
		if err := each(func(e *memEngine) error { return e.Begin() }); err != nil {
			return err
		}
		txn := cloneModel(committed)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			k := uint64(rng.Intn(6))
			var err error
			switch cur := txn[k]; {
			case cur == nil:
				r := []core.Value{core.IntVal(int64(k)), core.IntVal(rng.Int63n(8)), core.IntVal(rng.Int63n(8)), core.StrVal("new")}
				txn[k] = r
				err = each(func(e *memEngine) error { return e.Insert("t", k, r) })
			case rng.Intn(6) == 0:
				delete(txn, k)
				err = each(func(e *memEngine) error { return e.Delete("t", k) })
			default:
				var upd core.Update
				for _, c := range [][]int{{1}, {2}, {3}, {1, 3}, {2, 1}}[rng.Intn(5)] {
					upd.Cols = append(upd.Cols, c)
					if c == 3 {
						upd.Vals = append(upd.Vals, core.StrVal(fmt.Sprintf("s%d", ts)))
					} else {
						upd.Vals = append(upd.Vals, core.IntVal(rng.Int63n(8)))
					}
				}
				now := core.CloneRow(cur)
				core.ApplyDelta(now, upd)
				txn[k] = now
				err = each(func(e *memEngine) error { return e.Update("t", k, upd) })
			}
			if err != nil {
				return err
			}
		}
		if rng.Intn(5) == 0 {
			if err := each(func(e *memEngine) error { return e.Abort() }); err != nil {
				return err
			}
		} else {
			durable := rng.Intn(3) == 0
			if err := each(func(e *memEngine) error { e.durable = durable; return e.Commit() }); err != nil {
				return err
			}
			committed = txn
			if durable {
				published = cloneModel(committed)
			}
		}
		if rng.Intn(8) == 0 {
			if err := each(func(e *memEngine) error { return e.Flush() }); err != nil {
				return err
			}
			published = cloneModel(committed)
		}
		if len(pins) >= 6 { // let the watermark, and GC behind it, advance
			pins[0].v[0].Close()
			pins[0].v[1].Close()
			pins = pins[1:]
		}
		pins = append(pins, pin{v: [2]core.ReadView{byCols.s.NewView(), byRow.s.NewView()}, model: cloneModel(published)})
		if err := check(fmt.Sprintf("after txn %d", ts)); err != nil {
			return err
		}
	}
	if err := each(func(e *memEngine) error { return e.Flush() }); err != nil {
		return err
	}
	pins = append(pins, pin{v: [2]core.ReadView{byCols.s.NewView(), byRow.s.NewView()}, model: committed})
	return check("after the last barrier")
}

// TestStageUpdateEquivalence: an update's pre-image staged as the updated
// columns' old values and staged as the whole old row give the same views,
// and both the serial model's, at every timestamp. Replay one seed with
// -seed=N.
func TestStageUpdateEquivalence(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 10
	}
	for s := int64(0); s < n; s++ {
		if err := runPreImageEquivalence(*propSeed + s); err != nil {
			t.Fatalf("seed %d: %v", *propSeed+s, err)
		}
	}
}

// preImages is a PreImager over a map from reference to the row it stands
// for.
type preImages map[uint64][]core.Value

func (p preImages) PreImage(table string, key, ref uint64) ([]core.Value, error) {
	return core.CloneRow(p[ref]), nil
}

// TestLazyPreImagesKeepWriteOrder: lazy records and a pre-image captured
// between them, all in groups still waiting for their fsync, join a key's
// list in write order when a view pins — the view rolls back to the value
// before the first — and the view keeps them past the publish. Records no
// view materialized are dropped at the publish.
func TestLazyPreImagesKeepWriteOrder(t *testing.T) {
	e := newMem(testSchemas(), 0)
	pre := preImages{}
	e.s.pre = pre
	e.durable = false
	e.put(t, 1, 10)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// lazy writes key 1 to v, staging the row it replaces as reference ref.
	lazy := func(v int64, ref uint64) {
		e.txn(t, func() error {
			pre[ref] = e.rows["t"][1]
			e.rows["t"][1] = row(1, v)
			e.s.StageLazy("t", 1, ref)
			return nil
		})
	}
	lazy(20, 7)
	e.put(t, 1, 30) // captured: 20
	lazy(40, 8)

	v := e.s.NewView()
	defer v.Close()
	get := func(v core.ReadView) int64 {
		t.Helper()
		r, ok, err := v.Get("t", 1)
		if err != nil || !ok {
			t.Fatalf("Get = %v, %v, %v", r, ok, err)
		}
		return r[1].I
	}
	if got := get(v); got != 10 {
		t.Fatalf("a view pinned before the group's fsync reads %d, want 10", got)
	}
	if us := e.s.UndoStats(); us.Materialized != 2 || us.Records != 3 {
		t.Fatalf("undo stats %+v, want 2 materialized of 3 records", us)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := get(v); got != 10 {
		t.Fatalf("after the publish the view reads %d, want 10", got)
	}
	v.Close()

	lazy(50, 9)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	w := e.s.NewView()
	defer w.Close()
	if got := get(w); got != 50 {
		t.Fatalf("a view pinned after the publish reads %d, want 50", got)
	}
	if us := e.s.UndoStats(); us.Materialized != 2 || len(e.s.lazy) != 0 {
		t.Fatalf("undo stats %+v with %d lazy records left: the unmaterialized record must go at the publish", us, len(e.s.lazy))
	}
}
