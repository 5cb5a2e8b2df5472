package enginetest

import (
	"fmt"
	"maps"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/txn2pc"
)

// The fence-window walk: where the conformance batteries sample crash points,
// this visits every one a short transaction has. A transaction is a sequence
// of fence intervals, and a crash can only matter between two fences: at each
// fence k the lines written since fence k-1 are the un-fenced set, any subset
// of which may have reached the medium. The walk tries three subsets per
// window — none, all, and each line alone, which is what an engine that
// assumed an order between two lines of one interval cannot survive. The
// last window is the one after the transaction has returned: whatever its
// un-fenced lines do, a committed transaction is whole.

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
		row := windowsRow(k, 0)
		if err := txn2pc.Run(e, func() error { return e.Insert("users", k, row) }); err != nil {
			return nil, nil, nil, err
		}
		m["users"][k] = row
	}
	if sc.prior != nil {
		if err := e.Begin(); err != nil {
			return nil, nil, nil, err
		}
		after := m.clone()
		for _, o := range sc.prior {
			if err := o.apply(e, after); err != nil {
				return nil, nil, nil, fmt.Errorf("prior transaction: %w", err)
			}
		}
		if sc.priorAbort {
			err = e.Abort()
		} else {
			err, m = e.Commit(), after
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("prior transaction: %w", err)
		}
	}
	env.Dev.EvictAll()
	if drop >= 0 {
		env.Dev.DropFence(drop)
	}
	return env, e, m, nil
}

// windowsTxn runs the schedule's transaction and returns the fence counts at
// its start, when it called Commit or Abort, and at its end.
func windowsTxn(env *core.Env, e core.Engine, m model, sc windowSchedule) (start, end, done uint64, err error) {
	start = env.Dev.Stats().Fences
	if err = e.Begin(); err != nil {
		return
	}
	for _, o := range sc.ops {
		if err = o.apply(e, m); err != nil {
			return
		}
	}
	end = env.Dev.Stats().Fences
	if sc.abort {
		err = e.Abort()
	} else {
		err = e.Commit()
	}
	done = env.Dev.Stats().Fences
	return
}

type keptLine struct {
	line int64
	data [nvm.LineSize]byte
}

// RunFenceWindows crashes each one-transaction schedule at every fence of the
// transaction, and once more after it has returned, and, for each of three
// outcomes of the un-fenced lines — all lost, all kept, exactly one kept —
// recovers a copy of the medium and checks: the table before the transaction
// is there exactly; the transaction is absent, or, once Commit was running,
// absent or whole, and once Commit has returned, whole; the engine takes
// another transaction; and f.Leaks finds no allocator chunk persisted yet
// unreachable. A failure names the schedule, the fence and the surviving
// lines.
func RunFenceWindows(t *testing.T, f Factory) {
	for _, sc := range windowSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			if _, _, err := checkFenceWindows(f, sc, -1); err != nil {
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
		fences, _, err := checkFenceWindows(f, sc, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fromEnd < 1 || fromEnd > fences {
			t.Fatalf("%s/%s has %d fences, none is number %d from the end", f.Name, schedule, fences, fromEnd)
		}
		if _, _, err = checkFenceWindows(f, sc, fences-fromEnd); err == nil {
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
			fences, ending, err := checkFenceWindows(f, sc, -1)
			if err != nil {
				t.Fatal(err)
			}
			for fromEnd := 1; fromEnd <= fences; fromEnd++ {
				drop := fences - fromEnd
				if _, _, err := checkFenceWindows(f, sc, drop); err != nil {
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

// checkFenceWindows walks one schedule and returns the number of fences its
// transaction has and the number it had issued when it called Commit or
// Abort. drop >= 0 deletes that fence of the transaction in every pass, and
// the walk starts behind it.
func checkFenceWindows(f Factory, sc windowSchedule, drop int) (fences, ending int, err error) {
	env, e, before, err := windowsEngine(f, sc, drop)
	if err != nil {
		return 0, 0, err
	}
	after := before.clone()
	nodes := memNodes(f, sc, e)
	start, end, done, err := windowsTxn(env, e, after, sc)
	if err != nil {
		return 0, 0, fmt.Errorf("%s/%s: uninterrupted: %w", f.Name, sc.name, err)
	}
	if nodes != nil && maps.Equal(nodes, memNodes(f, sc, e)) {
		return 0, 0, fmt.Errorf("%s/%s: the walked put replaced no MemTable node", f.Name, sc.name)
	}
	if sc.abort {
		after = before
	}
	if err := checkModel(e, windowsSchema(), after); err != nil {
		return 0, 0, fmt.Errorf("%s/%s: uninterrupted: %w", f.Name, sc.name, err)
	}
	fences, ending = int(done-start), int(end-start)
	// A crash at the deleted fence or before it leaves what the walk with
	// every fence leaves, which the callers have checked first.
	for k := drop + 1; k <= fences; k++ {
		if err := fenceWindow(f, sc, drop, k, fences, ending, before, after); err != nil {
			return fences, ending, fmt.Errorf("%s/%s: crash at fence %d of %d (Commit starts at %d): %w", f.Name, sc.name, k, fences, ending, err)
		}
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

// fenceWindow crashes one pass at fence k of the transaction's fences, or
// after the transaction if k is fences, and recovers every outcome of the
// un-fenced lines. The transaction calls Commit or Abort at fence ending.
func fenceWindow(f Factory, sc windowSchedule, drop, k, fences, ending int, before, after model) error {
	env, e, m, err := windowsEngine(f, sc, drop)
	if err != nil {
		return err
	}
	env.Dev.InjectFaults(nvm.FaultPlan{Mode: nvm.FaultLoseAll, CrashAfterFences: k})
	crashed, err := crashing(func() error {
		_, _, _, err := windowsTxn(env, e, m, sc)
		return err
	})
	if err != nil {
		return err
	}
	switch {
	case k < fences && !crashed:
		return fmt.Errorf("the transaction ended before its fence %d", k)
	case k == fences && crashed:
		return fmt.Errorf("the transaction ran past its %d fences", fences)
	}
	schemas := windowsSchema()
	return CrashOutcomes(env.Dev, func(dev *nvm.Device) error {
		e, err := crashOpen(f, &core.Env{Dev: dev}, schemas, windowsOpts)
		if err != nil {
			return err
		}
		if k == fences {
			if err := checkModel(e, schemas, after); err != nil {
				return fmt.Errorf("the transaction had returned, yet it is not whole: %w", err)
			}
		} else if err := checkAtomic(e, schemas, before, after, !sc.abort && k >= ending); err != nil {
			return err
		}
		if f.Leaks != nil {
			if err := f.Leaks(e); err != nil {
				return fmt.Errorf("after recovery: %w", err)
			}
		}
		return probe(e, "users", windowsRow(probeKey, 1))
	})
}

// CrashOutcomes walks the outcomes of the crash d was stopped at by an injected
// fault: the un-fenced lines all lost, all kept, and each kept alone. For each
// it calls check with a fresh device holding the medium plus the kept lines; a
// panic inside check is that outcome's failure. A failure names the surviving
// lines.
func CrashOutcomes(d *nvm.Device, check func(dev *nvm.Device) error) error {
	var unfenced []keptLine
	d.Unfenced(func(line int64, buf []byte) {
		kl := keptLine{line: line}
		copy(kl.data[:], buf)
		unfenced = append(unfenced, kl)
	})
	medium := d.CloneMedium()
	outcomes := [][]keptLine{nil, unfenced}
	for i := range unfenced {
		outcomes = append(outcomes, unfenced[i:i+1])
	}
	for _, kept := range outcomes {
		if err := checkOutcome(medium, kept, check); err != nil {
			lines := make([]string, len(kept))
			for i, kl := range kept {
				lines[i] = fmt.Sprintf("%#x", kl.line)
			}
			return fmt.Errorf("surviving %d of %d un-fenced lines %v: %w", len(kept), len(unfenced), lines, err)
		}
	}
	return nil
}

// checkOutcome copies the medium, applies the kept lines and runs check.
func checkOutcome(medium *nvm.Device, kept []keptLine, check func(dev *nvm.Device) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panicked: %v", r)
		}
	}()
	dev := medium.CloneMedium()
	for _, kl := range kept {
		dev.Write(kl.line, kl.data[:])
		dev.Sync(kl.line, nvm.LineSize)
	}
	return check(dev)
}
