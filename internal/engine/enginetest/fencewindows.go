package enginetest

import (
	"fmt"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/txn2pc"
)

// The fence-window walk: where the conformance batteries sample crash points,
// this visits every one a short transaction has. A transaction is a sequence
// of fence intervals, and a crash can only matter between two fences: at each
// fence k the lines written since fence k-1 are the un-fenced set, any subset
// of which may have reached the medium. The walk tries three subsets per
// window — none, all, and each line alone, which is what an engine that
// assumed an order between two lines of one interval cannot survive.

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
type windowSchedule struct {
	name  string
	ops   []windowOp
	abort bool
}

// windowSchedules are the one-transaction schedules the walk covers.
func windowSchedules() []windowSchedule {
	str := func(key uint64, col int) windowOp {
		return windowOp{key: key, cols: []int{col}, row: windowsRow(key, 100)}
	}
	insert := windowOp{key: 50, row: windowsRow(50, 0)}
	return []windowSchedule{
		{name: "update-string", ops: []windowOp{str(3, 5)}},
		{name: "update-indexed-int", ops: []windowOp{{key: 4, cols: []int{1}, row: windowsRow(4, 100)}}},
		{name: "insert-ten-strings", ops: []windowOp{insert}},
		{name: "delete", ops: []windowOp{{key: 6, del: true}}},
		{name: "three-ops", ops: []windowOp{str(2, 11), insert, {key: 7, del: true}}},
		{name: "abort", ops: []windowOp{str(5, 2), insert}, abort: true},
	}
}

var windowsOpts = core.Options{GroupCommitSize: 1}

// windowsEngine builds the table the transaction starts from. Everything the
// load left in the cache is evicted — legal at any time — so that every
// un-fenced line at the crash is the transaction's own. drop >= 0 deletes
// that fence of the transaction.
func windowsEngine(f Factory, drop int) (*core.Env, core.Engine, model, error) {
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
// transaction and, for each of three outcomes of the un-fenced lines — all
// lost, all kept, exactly one kept — recovers a copy of the medium and checks:
// the table before the transaction is there exactly; the transaction is absent,
// or, once Commit was running, absent or whole; the engine takes another
// transaction; and f.Leaks finds no allocator chunk persisted yet unreachable.
// A failure names the schedule, the fence and the surviving lines.
func RunFenceWindows(t *testing.T, f Factory) {
	for _, sc := range windowSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			if _, err := checkFenceWindows(f, sc, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// RunFenceWindowsCatchesDroppedFence is the walk's self-test: with one fence of
// the named schedule's transaction deleted (nvm.Device.DropFence) — the
// fromEnd-th from its last, so 1 is the commit point itself — the walk must
// report a failure. The engine's test names the fence that orders its undo
// record's link before the write the record undoes.
func RunFenceWindowsCatchesDroppedFence(t *testing.T, f Factory, schedule string, fromEnd int) {
	for _, sc := range windowSchedules() {
		if sc.name != schedule {
			continue
		}
		fences, err := checkFenceWindows(f, sc, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fromEnd < 1 || fromEnd > fences {
			t.Fatalf("%s/%s has %d fences, none is number %d from the end", f.Name, schedule, fences, fromEnd)
		}
		if _, err = checkFenceWindows(f, sc, fences-fromEnd); err == nil {
			t.Fatalf("%s/%s: the walk did not notice that fence %d of %d was removed", f.Name, schedule, fences-fromEnd, fences)
		}
		t.Logf("caught as expected: %v", err)
		return
	}
	t.Fatalf("no fence-window schedule %q", schedule)
}

// checkFenceWindows walks one schedule and returns the number of fences its
// transaction has. drop >= 0 deletes that fence of the transaction in every
// pass.
func checkFenceWindows(f Factory, sc windowSchedule, drop int) (int, error) {
	env, e, before, err := windowsEngine(f, drop)
	if err != nil {
		return 0, err
	}
	after := before.clone()
	start, end, done, err := windowsTxn(env, e, after, sc)
	if err != nil {
		return 0, fmt.Errorf("%s/%s: uninterrupted: %w", f.Name, sc.name, err)
	}
	if sc.abort {
		after = before
	}
	if err := checkModel(e, windowsSchema(), after); err != nil {
		return 0, fmt.Errorf("%s/%s: uninterrupted: %w", f.Name, sc.name, err)
	}
	fences := int(done - start)
	for k := 0; k < fences; k++ {
		inCommit := !sc.abort && k >= int(end-start)
		if err := fenceWindow(f, sc, drop, k, before, after, inCommit); err != nil {
			return fences, fmt.Errorf("%s/%s: crash at fence %d of %d (Commit starts at %d): %w", f.Name, sc.name, k, fences, end-start, err)
		}
	}
	return fences, nil
}

// fenceWindow crashes one pass at fence k of the transaction and recovers every
// outcome of the un-fenced lines.
func fenceWindow(f Factory, sc windowSchedule, drop, k int, before, after model, inCommit bool) error {
	env, e, m, err := windowsEngine(f, drop)
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
	if !crashed {
		return fmt.Errorf("the transaction ended before its fence %d", k)
	}
	schemas := windowsSchema()
	return CrashOutcomes(env.Dev, func(dev *nvm.Device) error {
		e, err := crashOpen(f, &core.Env{Dev: dev}, schemas, windowsOpts)
		if err != nil {
			return err
		}
		if err := checkAtomic(e, schemas, before, after, inCommit); err != nil {
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
