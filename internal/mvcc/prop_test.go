// Property test for the watermark/GC contract, driven through a real engine
// (nvminp: durable-at-commit, so every commit publishes immediately):
// randomized interleavings of writes, view pins/releases and GC passes must
// never reclaim a version any pinned view can still observe, and a power
// cycle after arbitrary GC must recover exactly the committed state. A
// failing sequence is ddmin-shrunk before being reported.
package mvcc_test

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/nvminp"
	"nstore/internal/mvcc"
)

var propSeed = flag.Int64("seed", 1, "base seed for the GC property sequences")

// propOp is one step of a randomized store workload.
type propOp struct {
	kind byte // 'p' put, 'd' delete, 'v' pin view, 'r' release view, 'g' GC
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
		default:
			ops[i] = propOp{kind: 'g'}
		}
	}
	return ops
}

func propSchemas() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "v", Type: core.TInt},
		},
		Secondary: []core.IndexSpec{{
			Name:   "by_v",
			SecKey: func(row []core.Value) uint32 { return uint32(row[1].I & 7) },
		}},
	}}
}

// pin is one held view plus the committed model at pin time — exactly what
// the view must keep reading no matter how much GC runs after it.
type pin struct {
	v     core.ReadView
	model map[uint64][]core.Value
}

// runProp replays one op sequence and checks the GC/watermark contract at
// every GC boundary and the recovery contract at the end.
func runProp(ops []propOp) error {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, FSExtent: 64 << 10})
	schemas := propSchemas()
	opts := core.Options{BTreeNodeSize: 128, GroupCommitSize: 1}
	e, err := nvminp.New(env, schemas, opts)
	if err != nil {
		return fmt.Errorf("New: %w", err)
	}
	e.MV.GCEvery = 0 // GC only where the sequence says so
	sch := schemas[0]
	committed := map[uint64][]core.Value{}
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
		return e.Commit()
	}

	for i, o := range ops {
		switch o.kind {
		case 'p':
			row := []core.Value{core.IntVal(int64(o.k)), core.IntVal(o.val)}
			_, exists := committed[o.k]
			err := txn(func() error {
				if exists {
					return e.Update("t", o.k, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(o.val)}})
				}
				return e.Insert("t", o.k, row)
			})
			if err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			committed[o.k] = row
		case 'd':
			if _, exists := committed[o.k]; !exists {
				continue
			}
			if err := txn(func() error { return e.Delete("t", o.k) }); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			delete(committed, o.k)
		case 'v':
			if len(pins) >= 4 { // bound held views; oldest out first
				pins[0].v.Close()
				pins = pins[1:]
			}
			pins = append(pins, pin{v: e.SnapshotView(), model: cloneModel(committed)})
		case 'r':
			if len(pins) > 0 {
				pins[0].v.Close()
				pins = pins[1:]
			}
		case 'g':
			e.MV.GC()
			// The watermark is the oldest pinned view's timestamp: nothing
			// any pinned view can observe may have been reclaimed.
			for pi, p := range pins {
				if err := checkPin(sch, p); err != nil {
					return fmt.Errorf("op %d %v: pinned view %d (ts %d): %w", i, o, pi, p.v.Ts(), err)
				}
			}
		}
	}
	for pi, p := range pins {
		if err := checkPin(sch, p); err != nil {
			return fmt.Errorf("final: pinned view %d (ts %d): %w", pi, p.v.Ts(), err)
		}
	}

	// Release everything, GC to the frontier, and power cycle: recovery
	// must rebuild exactly the committed state for fresh views.
	for _, p := range pins {
		p.v.Close()
	}
	pins = nil
	e.MV.GC()
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e2, err := nvminp.Open(env2, schemas, opts)
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	v := e2.SnapshotView()
	defer v.Close()
	if err := checkPin(sch, pin{v: v, model: committed}); err != nil {
		return fmt.Errorf("post-recovery snapshot: %w", err)
	}
	return nil
}

// checkPin asserts the view reads exactly its recorded model: full scan
// (order, completeness, values), point reads, and secondary membership.
func checkPin(sch *core.Schema, p pin) error {
	n := 0
	var bad error
	if err := p.v.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		n++
		want, ok := p.model[pk]
		if !ok {
			bad = fmt.Errorf("phantom key %d", pk)
			return false
		}
		if !core.RowsEqual(sch, row, want) {
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
	if n != len(p.model) {
		return fmt.Errorf("scan saw %d rows, model has %d (GC reclaimed a visible version?)", n, len(p.model))
	}
	for k, want := range p.model {
		row, ok, err := p.v.Get("t", k)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("key %d invisible (GC reclaimed a visible version?)", k)
		}
		if !core.RowsEqual(sch, row, want) {
			return fmt.Errorf("key %d point read mismatch", k)
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
func shrinkProp(ops []propOp) []propOp {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= len(ops); {
			cand := append(append([]propOp(nil), ops[:lo]...), ops[lo+chunk:]...)
			if runProp(cand) != nil {
				ops = cand // failure survives without this chunk — keep it out
			} else {
				lo += chunk
			}
		}
	}
	return ops
}

// TestGCTombstoneAtWatermark pins the GC edge where a chain's surviving
// head is a tombstone sitting EXACTLY at the watermark: a key is deleted, a
// view is pinned at the tombstone's commit timestamp (so the watermark
// equals it, not exceeds it), and GC runs. The truncation decision for
// "fully dead" chains fires right on the boundary; getting it wrong either
// resurrects the key for the pinned view (phantom) or leaks the chain. Each
// seeded sequence buries the edge under a randomized prefix so chain shapes
// vary, and runProp's epilogue power-cycles after GC and asserts the key
// stays deleted through recovery.
func TestGCTombstoneAtWatermark(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 3
	}
	for s := int64(0); s < int64(n); s++ {
		seed := *propSeed + 9000 + s
		rng := rand.New(rand.NewSource(seed))
		// Randomized prefix grows chains; no GC yet, so the doomed key's
		// chain still holds every version when the edge fires.
		ops := genProp(rng, 60)
		prefix := ops[:0]
		for _, o := range ops {
			if o.kind != 'g' && o.kind != 'd' {
				prefix = append(prefix, o)
			}
		}
		k := uint64(rng.Intn(24))
		edge := []propOp{
			{kind: 'p', k: k, val: rng.Int63n(1 << 30)}, // ensure the chain exists
			{kind: 'r'}, {kind: 'r'}, {kind: 'r'}, {kind: 'r'}, // drop stale pins
			{kind: 'd', k: k}, // tombstone becomes the chain head
			{kind: 'v'},       // pin at the tombstone's ts: watermark == tombstone ts
			{kind: 'g'},       // truncate decides exactly on the boundary
		}
		if err := runProp(append(prefix, edge...)); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test -run TestGCTombstoneAtWatermark -seed=%d", seed, err, *propSeed)
		}
	}
}

// TestGCWatermarkProperty drives seeded op sequences through runProp; a
// failure is shrunk to a minimal reproduction before reporting.
func TestGCWatermarkProperty(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	for s := int64(0); s < int64(n); s++ {
		seed := *propSeed + s
		rng := rand.New(rand.NewSource(seed))
		ops := genProp(rng, 250)
		if err := runProp(ops); err != nil {
			min := shrinkProp(ops)
			t.Fatalf("seed %d: %v\nminimal reproduction (%d ops): %v", seed, err, len(min), min)
		}
	}
}

// deltaSchemas has one index that declares the column it reads and one that
// declares nothing ("any column"), so a staged delta takes both the path that
// skips the secondary diff and the one that runs it.
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

// viewDump is everything a view can show: rows in key order and both indexes'
// membership.
func viewDump(v core.ReadView) (string, error) {
	var out []byte
	if err := v.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		out = append(out, fmt.Sprintf("%d=(%d,%d,%d,%s) ", pk, row[0].I, row[1].I, row[2].I, row[3].S)...)
		return true
	}); err != nil {
		return "", err
	}
	for _, ix := range []string{"by_a", "by_b"} {
		for sec := uint32(0); sec < 4; sec++ {
			out = append(out, fmt.Sprintf("%s[%d]:", ix, sec)...)
			if err := v.ScanSecondary("t", ix, sec, func(pk uint64) bool {
				out = append(out, fmt.Sprintf("%d,", pk)...)
				return true
			}); err != nil {
				return "", err
			}
		}
	}
	return string(out), nil
}

// runDeltaEquivalence stages one seeded schedule into two stores — updates as
// column deltas (StageUpdate) in one, as materialised after-images
// (StageUpsert) in the other — and compares what a view pinned after every
// transaction shows, at the end as well as when it was pinned. The schedule
// has several updates of one key in a transaction, inserts and deletes around
// them, aborts, and commits that wait in pending groups for the barrier.
func runDeltaEquivalence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	schemas := deltaSchemas()
	byDelta, byImage := mvcc.NewStore(schemas, 0), mvcc.NewStore(schemas, 0)
	byDelta.GCEvery, byImage.GCEvery = 3, 3
	committed := map[uint64][]core.Value{} // the engine's state, pending groups included
	type pair struct{ d, i core.ReadView }
	var pins []pair
	defer func() {
		for _, p := range pins {
			p.d.Close()
			p.i.Close()
		}
	}()
	compare := func(when string) error {
		for n, p := range pins {
			d, err := viewDump(p.d)
			if err != nil {
				return err
			}
			i, err := viewDump(p.i)
			if err != nil {
				return err
			}
			if p.d.Ts() != p.i.Ts() || d != i {
				return fmt.Errorf("%s: view %d (ts %d / %d) differs:\n  deltas: %s\n  images: %s", when, n, p.d.Ts(), p.i.Ts(), d, i)
			}
		}
		return nil
	}
	for ts := uint64(1); ts <= 120; ts++ {
		txn := map[uint64][]core.Value{} // this transaction's writes; nil = deleted
		current := func(k uint64) []core.Value {
			if row, ok := txn[k]; ok {
				return row
			}
			return committed[k]
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			k := uint64(rng.Intn(6))
			row := current(k)
			switch {
			case row == nil:
				row = []core.Value{core.IntVal(int64(k)), core.IntVal(rng.Int63n(8)), core.IntVal(rng.Int63n(8)), core.StrVal("new")}
				byDelta.StageUpsert("t", k, row)
				byImage.StageUpsert("t", k, row)
				txn[k] = row
			case rng.Intn(6) == 0:
				byDelta.StageDelete("t", k)
				byImage.StageDelete("t", k)
				txn[k] = nil
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
				now := core.CloneRow(row)
				core.ApplyDelta(now, upd)
				byDelta.StageUpdate("t", k, upd)
				byImage.StageUpsert("t", k, now)
				txn[k] = now
				upd.Vals[0] = core.IntVal(-1) // the store keeps its own copy
			}
		}
		if rng.Intn(5) == 0 {
			byDelta.DropStaged()
			byImage.DropStaged()
		} else {
			durable := rng.Intn(3) == 0
			byDelta.CommitStaged(ts, durable)
			byImage.CommitStaged(ts, durable)
			for k, row := range txn {
				if row == nil {
					delete(committed, k)
				} else {
					committed[k] = row
				}
			}
		}
		if rng.Intn(8) == 0 {
			byDelta.PublishDurable()
			byImage.PublishDurable()
		}
		if len(pins) >= 6 { // let the watermark, and GC behind it, advance
			pins[0].d.Close()
			pins[0].i.Close()
			pins = pins[1:]
		}
		pins = append(pins, pair{byDelta.NewView(), byImage.NewView()})
		if err := compare(fmt.Sprintf("after txn %d", ts)); err != nil {
			return err
		}
	}
	byDelta.PublishDurable()
	byImage.PublishDurable()
	pins = append(pins, pair{byDelta.NewView(), byImage.NewView()})
	if err := compare("after the last barrier"); err != nil {
		return err
	}
	// The newest view is the engine's state.
	last := pins[len(pins)-1].d
	n := 0
	var bad error
	if err := last.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		n++
		if want, ok := committed[pk]; !ok || !core.RowsEqual(schemas[0], row, want) {
			bad = fmt.Errorf("key %d: view has %v, the schedule committed %v", pk, row, want)
		}
		return bad == nil
	}); err != nil {
		return err
	}
	if bad == nil && n != len(committed) {
		bad = fmt.Errorf("view has %d rows, the schedule committed %d", n, len(committed))
	}
	if bad == nil && byDelta.Versions() != byImage.Versions() {
		bad = fmt.Errorf("stores hold %d and %d versions", byDelta.Versions(), byImage.Versions())
	}
	return bad
}

// TestStageUpdateEquivalence: a schedule staged with column deltas and the
// same schedule staged with materialised after-images give identical views at
// every timestamp. Replay one seed with -seed=N.
func TestStageUpdateEquivalence(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 10
	}
	for s := int64(0); s < n; s++ {
		if err := runDeltaEquivalence(*propSeed + s); err != nil {
			t.Fatalf("seed %d: %v", *propSeed+s, err)
		}
	}
}
