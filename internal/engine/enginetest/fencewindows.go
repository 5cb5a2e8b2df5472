package enginetest

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// The fence-window schedules: where the conformance batteries sample crash
// points, nvm.WalkFences visits every one a short transaction has, and
// recovers every outcome of the lines behind each fence. These are the
// transactions it walks on each NVM engine and the checks it makes of each
// crash state. The last window is the one after the transaction has
// returned: whatever its un-fenced lines do, a committed transaction is
// whole.

// windowsSchema is a users table wide enough for a ten-string row.
func windowsSchema() []*core.Schema {
	cols := []core.Column{{Name: "id", Type: core.TInt}, {Name: "balance", Type: core.TInt}}
	for i := 0; i < 10; i++ {
		cols = append(cols, core.Column{Name: fmt.Sprintf("s%d", i), Type: core.TString, Size: 100})
	}
	return []*core.Schema{{
		Name:    "users",
		Columns: cols,
		Secondary: []core.IndexSpec{{
			Name:   "by_balance",
			SecKey: func(row []core.Value) uint32 { return uint32(row[1].I) },
			Cols:   []int{1},
		}},
	}}
}

func windowsRow(key uint64, salt int) []core.Value {
	row := []core.Value{core.IntVal(int64(key)), core.IntVal(int64(key%7) + int64(salt))}
	for i := 0; i < 10; i++ {
		row = append(row, core.StrVal(fmt.Sprintf("%d/%d/%d:%0*d", key, i, salt, 10+7*i, 0)))
	}
	return row
}

const windowsKeys = 8 // the table before the transaction: keys 1..windowsKeys

// windowOp is one operation of the transaction under test: a delete, an
// insert of row (cols nil), or an update of cols to row's values.
type windowOp struct {
	key  uint64
	cols []int
	row  []core.Value
	del  bool
}

func (o windowOp) apply(e core.Engine, mod model) error {
	m := mod["users"]
	switch {
	case o.del:
		delete(m, o.key)
		return e.Delete("users", o.key)
	case o.cols == nil:
		m[o.key] = core.CloneRow(o.row)
		return e.Insert("users", o.key, o.row)
	}
	upd := core.Update{Cols: o.cols}
	for _, c := range o.cols {
		upd.Vals = append(upd.Vals, o.row[c])
	}
	row := core.CloneRow(m[o.key])
	core.ApplyDelta(row, upd)
	m[o.key] = row
	return e.Update("users", o.key, upd)
}

// windowSchedule is one transaction: its operations, then Commit or Abort.
// A prior transaction, if there is one, runs to its end — committed, or
// aborted if priorAbort is set — before the one walked, which starts from
// its effects.
type windowSchedule struct {
	name       string
	prior      []windowOp
	priorAbort bool
	ops        []windowOp
	abort      bool
	// rewrite: the walked put must replace a node of the MemTable, where
	// the factory names one (Factory.MemTable).
	rewrite bool
}

// windowSchedules are the one-transaction schedules the walk covers.
func windowSchedules() []windowSchedule {
	str := func(key uint64, col int) windowOp {
		return windowOp{key: key, cols: []int{col}, row: windowsRow(key, 100)}
	}
	insert := windowOp{key: 50, row: windowsRow(50, 0)}
	wide := func(key uint64) windowOp {
		return windowOp{key: key, cols: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, row: windowsRow(key, 100)}
	}
	return []windowSchedule{
		{name: "update-string", ops: []windowOp{str(3, 5)}},
		{name: "update-indexed-int", ops: []windowOp{{key: 4, cols: []int{1}, row: windowsRow(4, 100)}}},
		{name: "insert-ten-strings", ops: []windowOp{insert}},
		{name: "delete", ops: []windowOp{{key: 6, del: true}}},
		{name: "three-ops", ops: []windowOp{str(2, 11), insert, {key: 7, del: true}}},
		{name: "abort", ops: []windowOp{str(5, 2), insert}, abort: true},
		// An update of the indexed int and every string, after the same
		// update of another key: an undo log's entry spans two lines or more
		// and streams over the chunk of the committed one's, so a crash
		// inside its append's fence interval can keep any one line alone
		// over the old entry's others — a torn entry, which recovery must not
		// undo.
		{name: "update-multiline-entry", prior: []windowOp{wide(3)}, ops: []windowOp{wide(4)}},
		// The same update as the committed transaction before it, of another
		// key: an undo log's entry streams over the chunk that transaction's
		// entry was freed to and kept aside still marked persisted
		// (pmalloc.Arena.FreeStreamed). A crash that loses the new lines
		// leaves the old entry whole, which recovery must not undo.
		{name: "over-freed-entry", prior: []windowOp{str(2, 5)}, ops: []windowOp{str(3, 5)}},
		// The operations an aborted transaction undid, again: recovery must
		// undo this transaction's entries, and only those.
		{name: "after-abort", prior: []windowOp{str(5, 2), insert}, priorAbort: true, ops: []windowOp{str(5, 2), insert}},
		// An update that finds its MemTable leaf full: an LSM engine's put
		// rewrites the leaf and swaps the new one in behind the rewrite's
		// journal, where every other schedule's put appends to the leaf and
		// publishes the entry with its count. The prior transaction fills the
		// leaf, the load's keys and one entry per update.
		{name: "full-memtable-leaf", prior: fillLeaf(str), ops: []windowOp{str(3, 5)}, rewrite: true},
	}
}

// fillLeaf returns the updates that fill an LSM engine's MemTable leaf, a
// node of windowsOpts' size, from the load's windowsKeys entries: each adds
// an entry, a newer version of key 1's row.
func fillLeaf(str func(key uint64, col int) windowOp) []windowOp {
	ops := make([]windowOp, nvbtree.Capacity(windowsOpts.BTreeNodeSize)-windowsKeys)
	for i := range ops {
		ops[i] = str(1, 2+i%10)
	}
	return ops
}

var windowsOpts = core.Options{GroupCommitSize: 1}

// windowsEngine builds the table the transaction starts from, and runs the
// schedule's prior transaction. Everything the load left in the cache is
// evicted — legal at any time — so that every un-fenced line at the crash is
// the transaction's own. drop >= 0 deletes that fence of the transaction.
func windowsEngine(f Factory, sc windowSchedule, drop int) (*core.Env, core.Engine, model, error) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 4 << 20, FSExtent: 64 << 10})
	e, err := f.New(env, windowsSchema(), windowsOpts)
	if err != nil {
		return nil, nil, nil, err
	}
	m := model{"users": {}}
	for k := uint64(1); k <= windowsKeys; k++ {
		if m, err = runTxn(e, m, []windowOp{{key: k, row: windowsRow(k, 0)}}, false); err != nil {
			return nil, nil, nil, err
		}
	}
	if sc.prior != nil {
		if m, err = runTxn(e, m, sc.prior, sc.priorAbort); err != nil {
			return nil, nil, nil, fmt.Errorf("prior transaction: %w", err)
		}
	}
	env.Dev.EvictAll()
	if drop >= 0 {
		env.Dev.DropFence(drop)
	}
	return env, e, m, nil
}

// runTxn runs ops in one transaction that commits, or aborts if abort is
// set, and returns the model after it.
func runTxn(e core.Engine, m model, ops []windowOp, abort bool) (model, error) {
	if err := e.Begin(); err != nil {
		return nil, err
	}
	after := m.clone()
	for _, o := range ops {
		if err := o.apply(e, after); err != nil {
			return nil, err
		}
	}
	if abort {
		return m, e.Abort()
	}
	return after, e.Commit()
}

// windowsTxn runs the schedule's transaction, mirroring it in m, and returns
// the number of fences it had issued when it called Commit or Abort.
func windowsTxn(env *core.Env, e core.Engine, m model, sc windowSchedule) (ending int, err error) {
	start := env.Dev.Stats().Fences
	if err = e.Begin(); err != nil {
		return
	}
	for _, o := range sc.ops {
		if err = o.apply(e, m); err != nil {
			return
		}
	}
	ending = int(env.Dev.Stats().Fences - start)
	if sc.abort {
		err = e.Abort()
	} else {
		err = e.Commit()
	}
	return
}

// RunFenceWindows walks each schedule's transaction with nvm.WalkFences: it
// crashes it at every fence, and once more after it has returned, and, for
// each outcome of the un-fenced lines — all lost, all kept, each kept alone —
// recovers a copy of the medium and checks: the table before the transaction
// is there exactly; the transaction is absent, or, once Commit was running,
// absent or whole, and once Commit has returned, whole; f.Leaks finds no
// allocator chunk persisted yet unreachable; and the engine takes another
// transaction. A failure names the schedule, the fence and the surviving
// lines.
func RunFenceWindows(t *testing.T, f Factory) {
	for _, sc := range windowSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			if _, _, err := walkSchedule(f, sc, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// RunFenceWindowsCatchesDroppedFence is the walk's self-test: with one fence of
// the named schedule's transaction deleted (nvm.Device.DropFence) — the
// fromEnd-th from its last, so 1 is the commit point itself — the walk must
// report a failure. The engine's test names a fence whose loss some crash
// state exposes.
func RunFenceWindowsCatchesDroppedFence(t *testing.T, f Factory, schedule string, fromEnd int) {
	for _, sc := range windowSchedules() {
		if sc.name != schedule {
			continue
		}
		fences, _, err := walkSchedule(f, sc, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fromEnd < 1 || fromEnd > fences {
			t.Fatalf("%s/%s has %d fences, none is number %d from the end", f.Name, schedule, fences, fromEnd)
		}
		if _, _, err = walkSchedule(f, sc, fences-fromEnd); err == nil {
			t.Fatalf("%s/%s: the walk did not notice that fence %d of %d was removed", f.Name, schedule, fences-fromEnd, fences)
		}
		t.Logf("caught as expected: %v", err)
		return
	}
	t.Fatalf("no fence-window schedule %q", schedule)
}

// RunDropEachFence sweeps the walk over deleted fences: on each schedule (the
// first alone under -short) it deletes each fence of the transaction in turn
// (nvm.Device.DropFence), from the last back to the first, walks the schedule
// and logs the crash state that caught the loss, or that none did. A fence no
// state misses orders nothing the schedules can see: it is redundant, or a
// schedule is missing. The first fence Commit issues makes an undo-log
// engine's commit line durable before Commit returns, the commit point, and
// the walk must catch its loss on every committing schedule.
func RunDropEachFence(t *testing.T, f Factory) {
	schedules := windowSchedules()
	if testing.Short() {
		schedules = schedules[:1]
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			fences, ending, err := walkSchedule(f, sc, -1)
			if err != nil {
				t.Fatal(err)
			}
			for fromEnd := 1; fromEnd <= fences; fromEnd++ {
				drop := fences - fromEnd
				if _, _, err := walkSchedule(f, sc, drop); err != nil {
					msg := err.Error() // the crash state, then the check it failed
					if len(msg) > 240 {
						msg = msg[:240] + "…"
					}
					t.Logf("fence %d from the end (%d of %d) dropped: caught: %s", fromEnd, drop, fences, msg)
					continue
				}
				t.Logf("fence %d from the end (%d of %d) dropped: not caught", fromEnd, drop, fences)
				if drop == ending && !sc.abort {
					t.Errorf("%s/%s: the commit point's fence, %d of %d, was dropped and no crash state noticed", f.Name, sc.name, drop, fences)
				}
			}
		})
	}
}

// walkSchedule runs one schedule uninterrupted and checks it, then walks it,
// and returns the number of fences its transaction has and the number it had
// issued when it called Commit or Abort. drop >= 0 deletes that fence of the
// transaction in every pass, and the walk starts behind it: the callers have
// walked the crashes before it with every fence.
func walkSchedule(f Factory, sc windowSchedule, drop int) (fences, ending int, err error) {
	fail := func(err error) (int, int, error) {
		return fences, ending, fmt.Errorf("%s/%s: %w", f.Name, sc.name, err)
	}
	env, e, before, err := windowsEngine(f, sc, drop)
	if err != nil {
		return fail(err)
	}
	after := before.clone()
	nodes := memNodes(f, sc, e)
	if ending, err = windowsTxn(env, e, after, sc); err != nil {
		return fail(fmt.Errorf("uninterrupted: %w", err))
	}
	if nodes != nil && maps.Equal(nodes, memNodes(f, sc, e)) {
		return fail(errors.New("the walked put replaced no MemTable node"))
	}
	if sc.abort {
		after = before
	}
	if err := checkModel(e, windowsSchema(), after); err != nil {
		return fail(fmt.Errorf("uninterrupted: %w", err))
	}
	fences, err = nvm.WalkFences(func() (*nvm.Device, func() error, error) {
		env, e, m, err := windowsEngine(f, sc, drop)
		if err != nil {
			return nil, nil, err
		}
		return env.Dev, func() error {
			_, err := windowsTxn(env, e, m, sc)
			return err
		}, nil
	}, func(k, fences int, dev *nvm.Device) error {
		return checkRecovered(f, dev, k == fences, !sc.abort && k >= ending, before, after)
	})
	if err != nil {
		return fail(fmt.Errorf("Commit starts at fence %d: %w", ending, err))
	}
	return fences, ending, nil
}

// memNodes returns the nodes of the factory's MemTable if the schedule must
// rewrite one of them, and nil if it need not or the factory names none.
func memNodes(f Factory, sc windowSchedule, e core.Engine) map[pmalloc.Ptr]bool {
	if !sc.rewrite || f.MemTable == nil {
		return nil
	}
	nodes := map[pmalloc.Ptr]bool{}
	f.MemTable(e).Nodes(func(p pmalloc.Ptr) { nodes[p] = true })
	return nodes
}

// checkRecovered recovers f's engine from dev and checks it: once the
// transaction had returned it is whole; before that it is absent, or, once
// Commit was running, absent or whole. f.Leaks finds nothing, and the
// engine takes another transaction.
func checkRecovered(f Factory, dev *nvm.Device, returned, inCommit bool, before, after model) error {
	schemas := windowsSchema()
	e, err := crashOpen(f, &core.Env{Dev: dev}, schemas, windowsOpts)
	if err != nil {
		return err
	}
	if returned {
		if err := checkModel(e, schemas, after); err != nil {
			return fmt.Errorf("the transaction had returned, yet it is not whole: %w", err)
		}
	} else if err := checkAtomic(e, schemas, before, after, inCommit); err != nil {
		return err
	}
	if f.Leaks != nil {
		if err := f.Leaks(e); err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
	}
	return probe(e, "users", windowsRow(probeKey, 1))
}
