// Property test for the watermark/GC contract, driven through real engines:
// nvm-inp and nvm-log publish at commit and read a pre-image only while a
// view is pinned; cow publishes a group of three at its barrier and stages the old
// tuple it copies; log publishes a group of three at its fsync and stages a
// pointer its first view pinned before the fsync materializes. Randomized interleavings of writes, view pins/releases,
// barriers and GC passes must never drop a pre-image a pinned view still
// rolls back through — every view reads exactly the serial model's state as
// of the last publish before it pinned — and a power cycle after arbitrary
// GC must recover exactly the committed state. A failing sequence is
// ddmin-shrunk before being reported.
package mvcc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/cow"
	"nstore/internal/engine/logeng"
	"nstore/internal/engine/nvminp"
	"nstore/internal/mvcc"
)

var propSeed = mvcc.PropSeed

// propEngine builds (or, with reopen, recovers) one engine under test and
// returns its version store.
type propEngine struct {
	name     string
	volatile bool // the traditional engine reformats its arena at reopen
	build    func(env *core.Env, schemas []*core.Schema, opts core.Options, reopen bool) (core.Engine, *mvcc.Store, error)
}

var propEngines = []propEngine{
	{name: "nvm-inp", build: func(env *core.Env, schemas []*core.Schema, opts core.Options, reopen bool) (core.Engine, *mvcc.Store, error) {
		open := nvminp.New
		if reopen {
			open = nvminp.Open
		}
		e, err := open(env, schemas, opts)
		if err != nil {
			return nil, nil, err
		}
		return e, e.MV, nil
	}},
	{name: "nvm-log", build: func(env *core.Env, schemas []*core.Schema, opts core.Options, reopen bool) (core.Engine, *mvcc.Store, error) {
		open := logeng.NewNVM
		if reopen {
			open = logeng.OpenNVM
		}
		e, err := open(env, schemas, opts)
		if err != nil {
			return nil, nil, err
		}
		return e, e.MV, nil
	}},
	{name: "log", volatile: true, build: func(env *core.Env, schemas []*core.Schema, opts core.Options, reopen bool) (core.Engine, *mvcc.Store, error) {
		open := logeng.New
		if reopen {
			open = logeng.Open
		}
		e, err := open(env, schemas, opts)
		if err != nil {
			return nil, nil, err
		}
		return e, e.MV, nil
	}},
	{name: "cow", volatile: true, build: func(env *core.Env, schemas []*core.Schema, opts core.Options, reopen bool) (core.Engine, *mvcc.Store, error) {
		open := cow.New
		if reopen {
			open = cow.Open
		}
		e, err := open(env, schemas, opts)
		if err != nil {
			return nil, nil, err
		}
		return e, e.MV, nil
	}},
}

// propOp is one step of a randomized store workload.
type propOp struct {
	kind byte // 'p' put, 'd' delete, 'v' pin view, 'r' release view, 'f' flush, 'g' GC
	k    uint64
	val  int64
}

func (o propOp) String() string {
	switch o.kind {
	case 'p':
		return fmt.Sprintf("Put(%d,%d)", o.k, o.val)
	case 'd':
		return fmt.Sprintf("Delete(%d)", o.k)
	case 'v':
		return "PinView()"
	case 'r':
		return "ReleaseView()"
	case 'f':
		return "Flush()"
	default:
		return "GC()"
	}
}

func genProp(rng *rand.Rand, n int) []propOp {
	ops := make([]propOp, n)
	for i := range ops {
		k := uint64(rng.Intn(24))
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // bias toward writes so chains grow
			ops[i] = propOp{kind: 'p', k: k, val: rng.Int63n(1 << 30)}
		case 4:
			ops[i] = propOp{kind: 'd', k: k}
		case 5, 6:
			ops[i] = propOp{kind: 'v'}
		case 7:
			ops[i] = propOp{kind: 'r'}
		case 8:
			ops[i] = propOp{kind: 'f'}
		default:
			ops[i] = propOp{kind: 'g'}
		}
	}
	return ops
}

// propSchemas has two tables: "t" holds the even keys and an index on v that
// declares it reads v, so an update of w needs no old row for the index;
// "u" holds the odd keys and no index, so a delete needs none either. Those
// are the writes on which nvm-inp reads a pre-image only for a pinned view.
func propSchemas() []*core.Schema {
	cols := []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TInt}, {Name: "w", Type: core.TInt}}
	return []*core.Schema{{
		Name:    "t",
		Columns: cols,
		Secondary: []core.IndexSpec{{
			Name:   "by_v",
			SecKey: func(row []core.Value) uint32 { return uint32(row[1].I & 7) },
			Cols:   []int{1},
		}},
	}, {Name: "u", Columns: cols}}
}

// tableOf is the table a key lives in.
func tableOf(k uint64) string {
	if k%2 == 0 {
		return "t"
	}
	return "u"
}

// pin is one held view plus the published model at pin time — exactly what
// the view must keep reading no matter how much GC runs after it.
type pin struct {
	v     core.ReadView
	model map[uint64][]core.Value
}

// runProp replays one op sequence on one engine and checks the GC/watermark
// contract at every GC boundary and the recovery contract at the end.
func runProp(pe propEngine, ops []propOp) error {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, FSExtent: 64 << 10})
	schemas := propSchemas()
	opts := core.Options{BTreeNodeSize: 128, GroupCommitSize: 3, MemTableCap: 16, LSMGrowth: 2}
	e, mv, err := pe.build(env, schemas, opts, false)
	if err != nil {
		return fmt.Errorf("New: %w", err)
	}
	mv.GCEvery = 0 // GC only where the sequence says so
	committed := map[uint64][]core.Value{}
	published := map[uint64][]core.Value{}
	var pins []pin
	defer func() {
		for _, p := range pins {
			p.v.Close()
		}
	}()

	txn := func(fn func() error) error {
		if err := e.Begin(); err != nil {
			return err
		}
		if err := fn(); err != nil {
			_ = e.Abort()
			return err
		}
		before := mv.Oracle().ReadTs()
		if err := e.Commit(); err != nil {
			return err
		}
		if mv.Oracle().ReadTs() != before { // the barrier passed: all of it is visible
			published = nil
		}
		return nil
	}
	settle := func() {
		if published == nil {
			published = cloneModel(committed)
		}
	}

	for i, o := range ops {
		switch o.kind {
		case 'p':
			// A new key gets (k, val, val); an existing one val in v or w.
			row := []core.Value{core.IntVal(int64(o.k)), core.IntVal(o.val), core.IntVal(o.val)}
			old, exists := committed[o.k]
			col := 1 + int(o.val&1)
			if exists {
				row = core.CloneRow(old)
				row[col] = core.IntVal(o.val)
			}
			committed[o.k] = row
			err := txn(func() error {
				if exists {
					return e.Update(tableOf(o.k), o.k, core.Update{Cols: []int{col}, Vals: []core.Value{core.IntVal(o.val)}})
				}
				return e.Insert(tableOf(o.k), o.k, row)
			})
			if err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
		case 'd':
			if _, exists := committed[o.k]; !exists {
				continue
			}
			delete(committed, o.k)
			if err := txn(func() error { return e.Delete(tableOf(o.k), o.k) }); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
		case 'v':
			if len(pins) >= 4 { // bound held views; oldest out first
				pins[0].v.Close()
				pins = pins[1:]
			}
			pins = append(pins, pin{v: mv.NewView(), model: cloneModel(published)})
		case 'r':
			if len(pins) > 0 {
				pins[0].v.Close()
				pins = pins[1:]
			}
		case 'f':
			if err := e.Flush(); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			published = nil
		case 'g':
			mv.GC()
			// The watermark is the oldest pinned view's timestamp: nothing
			// any pinned view rolls back through may have been dropped.
			for pi, p := range pins {
				if err := checkPin(p); err != nil {
					return fmt.Errorf("op %d %v: pinned view %d (ts %d): %w", i, o, pi, p.v.Ts(), err)
				}
			}
		}
		settle()
	}
	for pi, p := range pins {
		if err := checkPin(p); err != nil {
			return fmt.Errorf("final: pinned view %d (ts %d): %w", pi, p.v.Ts(), err)
		}
	}

	// Release everything, publish and GC to the frontier, and power cycle:
	// recovery must rebuild exactly the committed state for fresh views.
	for _, p := range pins {
		p.v.Close()
	}
	pins = nil
	if err := e.Flush(); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	mv.GC()
	if n := mv.UndoStats().Records; n != 0 {
		return fmt.Errorf("%d pre-images left with no view pinned and nothing unpublished", n)
	}
	env.Dev.Crash()
	reopen := env.Reopen
	if pe.volatile {
		reopen = env.ReopenVolatile
	}
	env2, err := reopen()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	_, mv2, err := pe.build(env2, schemas, opts, true)
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	v := mv2.NewView()
	defer v.Close()
	if err := checkPin(pin{v: v, model: committed}); err != nil {
		return fmt.Errorf("post-recovery snapshot: %w", err)
	}
	return nil
}

// checkPin asserts the view reads exactly its recorded model: full scans of
// both tables (order, completeness, values), point reads, and secondary
// membership.
func checkPin(p pin) error {
	n := 0
	var bad error
	for _, sc := range propSchemas() {
		if err := p.v.ScanRange(sc.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			n++
			want, ok := p.model[pk]
			if !ok || tableOf(pk) != sc.Name {
				bad = fmt.Errorf("phantom key %s/%d", sc.Name, pk)
				return false
			}
			if !core.RowsEqual(sc, row, want) {
				bad = fmt.Errorf("key %d: got %v want %v", pk, row, want)
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
	}
	if n != len(p.model) {
		return fmt.Errorf("scans saw %d rows, model has %d (GC dropped a pre-image a view needs?)", n, len(p.model))
	}
	for k, want := range p.model {
		row, ok, err := p.v.Get(tableOf(k), k)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("key %d invisible (GC dropped a pre-image a view needs?)", k)
		}
		if !core.RowsEqual(propSchemas()[0], row, want) {
			return fmt.Errorf("key %d point read mismatch: got %v want %v", k, row, want)
		}
		if tableOf(k) != "t" {
			continue
		}
		sec := uint32(want[1].I & 7)
		found := false
		if err := p.v.ScanSecondary("t", "by_v", sec, func(pk uint64) bool {
			found = found || pk == k
			return !found
		}); err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("key %d missing from secondary bucket %d", k, sec)
		}
	}
	return nil
}

func cloneModel(m map[uint64][]core.Value) map[uint64][]core.Value {
	out := make(map[uint64][]core.Value, len(m))
	for k, v := range m {
		out[k] = core.CloneRow(v)
	}
	return out
}

// shrinkProp greedily removes chunks of a failing sequence while the
// failure reproduces (ddmin-style), replaying each candidate fresh.
func shrinkProp(pe propEngine, ops []propOp) []propOp {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= len(ops); {
			cand := append(append([]propOp(nil), ops[:lo]...), ops[lo+chunk:]...)
			if runProp(pe, cand) != nil {
				ops = cand // failure survives without this chunk — keep it out
			} else {
				lo += chunk
			}
		}
	}
	return ops
}

// TestGCTombstoneAtWatermark pins the GC edge where a key's newest write is
// a delete sitting EXACTLY at the watermark: a key is deleted, a view is
// pinned at the delete's commit timestamp (so the watermark equals it, not
// exceeds it), and GC runs. Getting the boundary wrong either resurrects the
// key for the pinned view (phantom) or loses an older view's row. Each
// seeded sequence buries the edge under a randomized prefix so histories
// vary, and runProp's epilogue power-cycles after GC and asserts the key
// stays deleted through recovery.
func TestGCTombstoneAtWatermark(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 3
	}
	for _, pe := range propEngines {
		t.Run(pe.name, func(t *testing.T) {
			for s := int64(0); s < int64(n); s++ {
				seed := *propSeed + 9000 + s
				rng := rand.New(rand.NewSource(seed))
				// Randomized prefix grows histories; no GC yet, so the doomed
				// key's pre-images are all still there when the edge fires.
				ops := genProp(rng, 60)
				prefix := ops[:0]
				for _, o := range ops {
					if o.kind != 'g' && o.kind != 'd' {
						prefix = append(prefix, o)
					}
				}
				k := uint64(rng.Intn(24))
				edge := []propOp{
					{kind: 'p', k: k, val: rng.Int63n(1 << 30)}, // ensure the key exists
					{kind: 'r'}, {kind: 'r'}, {kind: 'r'}, {kind: 'r'}, // drop stale pins
					{kind: 'd', k: k}, // the delete is the key's newest write
					{kind: 'f'},       // published, on the group-commit engine too
					{kind: 'v'},       // pin at the delete's ts: watermark == its ts
					{kind: 'g'},       // GC decides exactly on the boundary
				}
				if err := runProp(pe, append(prefix, edge...)); err != nil {
					t.Fatalf("seed %d: %v\nreplay: go test -run TestGCTombstoneAtWatermark -seed=%d", seed, err, *propSeed)
				}
			}
		})
	}
}

// TestGCWatermarkProperty drives seeded op sequences through runProp on each
// engine; a failure is shrunk to a minimal reproduction before reporting.
func TestGCWatermarkProperty(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	for _, pe := range propEngines {
		t.Run(pe.name, func(t *testing.T) {
			for s := int64(0); s < int64(n); s++ {
				seed := *propSeed + s
				rng := rand.New(rand.NewSource(seed))
				ops := genProp(rng, 250)
				if err := runProp(pe, ops); err != nil {
					min := shrinkProp(pe, ops)
					t.Fatalf("seed %d: %v\nminimal reproduction (%d ops): %v", seed, err, len(min), min)
				}
			}
		})
	}
}
