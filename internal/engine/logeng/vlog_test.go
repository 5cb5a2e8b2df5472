package logeng

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nstore/internal/core"
)

var vlogSeed = flag.Int64("vlogseed", 1, "base seed for the vlog GC property sequences")

func bigSchema() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TString, Size: 2048},
		},
	}}
}

// bigRow builds a row whose encoded size is controlled by n: n >= the
// separation threshold goes to the value log, smaller stays inline.
func bigRow(i int64, n int) []core.Value {
	pat := strings.Repeat(string(rune('a'+i%26)), n)
	return []core.Value{core.IntVal(i), core.IntVal(i * 2), core.StrVal(pat)}
}

func put1(t *testing.T, e *Engine, i int64, n int) {
	t.Helper()
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("t", uint64(i), bigRow(i, n)); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
}

// scanAll snapshots table t as key -> row for digest comparison.
func scanAll(t *testing.T, e *Engine) map[uint64][]core.Value {
	t.Helper()
	out := map[uint64][]core.Value{}
	err := e.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		out[pk] = core.CloneRow(row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameState(sch *core.Schema, a, b map[uint64][]core.Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a), len(b))
	}
	for k, ra := range a {
		rb, ok := b[k]
		if !ok {
			return fmt.Errorf("key %d missing", k)
		}
		if !core.RowsEqual(sch, ra, rb) {
			return fmt.Errorf("key %d differs", k)
		}
	}
	return nil
}

// TestVlogSeparationOracle runs one workload through a separating engine and
// a vlog-disabled oracle and requires byte-identical visible state at every
// checkpoint, including after a power cycle of both.
func TestVlogSeparationOracle(t *testing.T) {
	sch := bigSchema()
	opts := func(thresh int) core.Options {
		return core.Options{MemTableCap: 32, GroupCommitSize: 1, VlogThreshold: thresh}
	}
	envA := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	envB := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	ea, err := New(envA, sch, opts(256))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := New(envB, sch, opts(-1)) // oracle: separation disabled
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	model := map[uint64]bool{}
	both := func(fn func(e *Engine) error) {
		t.Helper()
		if err := fn(ea); err != nil {
			t.Fatal(err)
		}
		if err := fn(eb); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 400; step++ {
		k := int64(rng.Intn(120))
		switch op := rng.Intn(10); {
		case op < 5: // insert or full overwrite via delete+insert
			n := 16
			if rng.Intn(2) == 0 {
				n = 300 + rng.Intn(1200) // separated in engine A
			}
			row := bigRow(k, n)
			both(func(e *Engine) error {
				if err := e.Begin(); err != nil {
					return err
				}
				if model[uint64(k)] {
					if err := e.Delete("t", uint64(k)); err != nil {
						return err
					}
				}
				if err := e.Insert("t", uint64(k), row); err != nil {
					return err
				}
				return e.Commit()
			})
			model[uint64(k)] = true
		case op < 7: // delta update lands on top of separated full images
			if !model[uint64(k)] {
				continue
			}
			v := rng.Int63n(1 << 20)
			both(func(e *Engine) error {
				if err := e.Begin(); err != nil {
					return err
				}
				if err := e.Update("t", uint64(k), core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(v)}}); err != nil {
					return err
				}
				return e.Commit()
			})
		case op < 8:
			if !model[uint64(k)] {
				continue
			}
			both(func(e *Engine) error {
				if err := e.Begin(); err != nil {
					return err
				}
				if err := e.Delete("t", uint64(k)); err != nil {
					return err
				}
				return e.Commit()
			})
			delete(model, uint64(k))
		case op < 9:
			both(func(e *Engine) error { return e.FlushMemTable() })
		default:
			if err := ea.GCVlog(); err != nil { // oracle has no log to GC
				t.Fatal(err)
			}
		}
		if step%100 == 99 {
			if err := sameState(sch[0], scanAll(t, ea), scanAll(t, eb)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if st := ea.FlushStats(); st.VlogBytes == 0 && st.VlogReclaimed == 0 {
		t.Fatal("workload never separated a value; oracle test is vacuous")
	}

	// Power-cycle both and compare again: recovery must converge to the
	// same state whether values live in SSTables or behind pointers.
	envA.Dev.Crash()
	envB.Dev.Crash()
	envA2, err := envA.ReopenVolatile()
	if err != nil {
		t.Fatal(err)
	}
	envB2, err := envB.ReopenVolatile()
	if err != nil {
		t.Fatal(err)
	}
	ea2, err := Open(envA2, sch, opts(256))
	if err != nil {
		t.Fatal(err)
	}
	eb2, err := Open(envB2, sch, opts(-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameState(sch[0], scanAll(t, ea2), scanAll(t, eb2)); err != nil {
		t.Fatalf("post-recovery: %v", err)
	}
}

// TestCommitSurfacesFlushFailure pins the satellite contract: when the flush
// pipeline fails AFTER the group-commit barrier, Commit surfaces the error
// but the acked transaction is durable — its WAL segment is retained until a
// successful install, so a crash before the retry loses nothing.
func TestCommitSurfacesFlushFailure(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	opts := core.Options{MemTableCap: 8, GroupCommitSize: 1, VlogThreshold: 256}
	e, err := New(env, bigSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The first flush will build "sst-000001"; occupying the name makes the
	// build stage fail deterministically (pmfs Create refuses to clobber).
	if _, err := env.FS.Create("sst-000001"); err != nil {
		t.Fatal(err)
	}
	var commitErr error
	for i := int64(1); i <= 8; i++ {
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert("t", uint64(i), bigRow(i, 600)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			commitErr = err
		}
	}
	if commitErr == nil {
		t.Fatal("flush failure never surfaced through Commit")
	}
	if st := e.FlushStats(); st.Failures == 0 {
		t.Fatal("failure not counted in flush stats")
	}
	// The failed-flush rows are still readable (frozen memtable is live).
	for i := int64(1); i <= 8; i++ {
		if _, ok, err := e.Get("t", uint64(i)); !ok || err != nil {
			t.Fatalf("key %d unreadable after flush failure: %v", i, err)
		}
	}

	// Crash NOW, with the flush still failed: the WAL segment behind the
	// frozen memtable was never released, so every acked commit recovers.
	env.Dev.Crash()
	env2, err := env.ReopenVolatile()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(env2, bigSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		r, ok, err := e2.Get("t", uint64(i))
		if err != nil || !ok || r[1].I != i*2 {
			t.Fatalf("acked commit %d lost across flush-failure crash: %v %v", i, ok, err)
		}
	}
}

// TestFlushFailureRetries is the non-crash half: after a failed build the
// frozen memtable stays pending, the next Commit retries it before anything
// else freezes, and the pipeline completes with no frozen memtable left.
func TestFlushFailureRetries(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	opts := core.Options{MemTableCap: 8, GroupCommitSize: 1, VlogThreshold: 256}
	e, err := New(env, bigSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.FS.Create("sst-000001"); err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := int64(1); i <= 9; i++ { // 9th commit retries the failed flush
		e.Begin()
		if err := e.Insert("t", uint64(i), bigRow(i, 600)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("expected at least one surfaced flush failure")
	}
	if err := e.FlushMemTable(); err != nil {
		t.Fatalf("retried flush still failing: %v", err)
	}
	installed := len(e.l0) > 0 || func() bool {
		for _, r := range e.levels {
			if r != nil {
				return true
			}
		}
		return false
	}()
	if !installed || e.imm != nil {
		t.Fatalf("retry did not install (installed=%v, frozen memtable pending=%v)", installed, e.imm != nil)
	}
	for i := int64(1); i <= 9; i++ {
		if _, ok, err := e.Get("t", uint64(i)); !ok || err != nil {
			t.Fatalf("key %d lost across flush retry: %v", i, err)
		}
	}
}

// TestCrashAfterPrepareBeforeInstall freezes the memtable (the prepare
// stage: WAL segment sealed, fresh memtable swapped in) and crashes before
// build/install ever run; the sealed segment must replay everything. The
// second variant also runs the build stage — SSTable written, values
// separated into the log — and crashes before the manifest install: the
// orphaned SSTable must be removed and the value-log head rolled back.
func TestCrashAfterPrepareBeforeInstall(t *testing.T) {
	for _, variant := range []string{"after-prepare", "after-build"} {
		t.Run(variant, func(t *testing.T) {
			env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
			opts := core.Options{MemTableCap: 1 << 30, GroupCommitSize: 1, VlogThreshold: 256}
			e, err := New(env, bigSchema(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 50; i++ {
				put1(t, e, i, 600)
			}
			err = e.freeze()
			if err == nil && variant == "after-build" {
				_, err = e.buildSST(e.imm)
			}
			if err != nil {
				t.Fatal(err)
			}

			env.Dev.Crash()
			env2, err := env.ReopenVolatile()
			if err != nil {
				t.Fatal(err)
			}
			e2, err := Open(env2, bigSchema(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 50; i++ {
				r, ok, err := e2.Get("t", uint64(i))
				if err != nil || !ok || r[1].I != i*2 {
					t.Fatalf("key %d lost (%s crash): ok=%v err=%v", i, variant, ok, err)
				}
			}
			if variant == "after-build" {
				// The built-but-never-installed SSTable is an orphan; recovery
				// must have deleted it (the manifest references nothing).
				for _, name := range env2.FS.List() {
					if strings.HasPrefix(name, "sst-") {
						t.Fatalf("orphan %s survived recovery", name)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Seeded GC property test with ddmin shrinking.

// vlogOp is one step of the randomized separation/GC workload.
type vlogOp struct {
	kind byte // 'p' put big, 's' put small, 'd' delete, 'f' flush, 'g' gc
	k    uint64
	n    int
}

func (o vlogOp) String() string {
	switch o.kind {
	case 'p':
		return fmt.Sprintf("PutBig(%d,%dB)", o.k, o.n)
	case 's':
		return fmt.Sprintf("PutSmall(%d)", o.k)
	case 'd':
		return fmt.Sprintf("Delete(%d)", o.k)
	case 'f':
		return "FlushMemTable()"
	default:
		return "GCVlog()"
	}
}

func genVlogOps(rng *rand.Rand, n int) []vlogOp {
	ops := make([]vlogOp, n)
	for i := range ops {
		k := uint64(rng.Intn(40))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			ops[i] = vlogOp{kind: 'p', k: k, n: 300 + rng.Intn(1200)}
		case 4, 5:
			ops[i] = vlogOp{kind: 's', k: k, n: 16}
		case 6:
			ops[i] = vlogOp{kind: 'd', k: k}
		case 7, 8:
			ops[i] = vlogOp{kind: 'f'}
		default:
			ops[i] = vlogOp{kind: 'g'}
		}
	}
	return ops
}

// runVlogProp replays one op sequence, checking after every GC pass that all
// live pointers resolve to the modeled values and the reclaimed counter is
// monotone, then power-cycles and requires digest equality with the model.
func runVlogProp(ops []vlogOp) error {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	sch := bigSchema()
	opts := core.Options{MemTableCap: 24, GroupCommitSize: 1, VlogThreshold: 256, VlogSegSize: 8 << 10}
	e, err := New(env, sch, opts)
	if err != nil {
		return err
	}
	model := map[uint64][]core.Value{}
	var lastReclaimed int64

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
	checkModel := func(eng *Engine) error {
		n := 0
		var bad error
		err := eng.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			n++
			want, ok := model[pk]
			if !ok {
				bad = fmt.Errorf("phantom key %d", pk)
				return false
			}
			if !core.RowsEqual(sch[0], row, want) {
				bad = fmt.Errorf("key %d: wrong row", pk)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
		if n != len(model) {
			return fmt.Errorf("scan saw %d rows, model has %d", n, len(model))
		}
		for k, want := range model {
			row, ok, err := eng.Get("t", k)
			if err != nil {
				return fmt.Errorf("key %d: %w (dangling value-log pointer?)", k, err)
			}
			if !ok || !core.RowsEqual(sch[0], row, want) {
				return fmt.Errorf("key %d: point read mismatch (ok=%v)", k, ok)
			}
		}
		return nil
	}

	for i, o := range ops {
		switch o.kind {
		case 'p', 's':
			row := bigRow(int64(o.k), o.n)
			err := txn(func() error {
				if _, exists := model[o.k]; exists {
					if err := e.Delete("t", o.k); err != nil {
						return err
					}
				}
				return e.Insert("t", o.k, row)
			})
			if err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			model[o.k] = row
		case 'd':
			if _, exists := model[o.k]; !exists {
				continue
			}
			if err := txn(func() error { return e.Delete("t", o.k) }); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			delete(model, o.k)
		case 'f':
			if err := e.FlushMemTable(); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
		case 'g':
			if err := e.GCVlog(); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			st := e.FlushStats()
			if st.VlogReclaimed < lastReclaimed {
				return fmt.Errorf("op %d: reclaimed regressed %d -> %d", i, lastReclaimed, st.VlogReclaimed)
			}
			lastReclaimed = st.VlogReclaimed
			if err := checkModel(e); err != nil {
				return fmt.Errorf("op %d after GC: %w", i, err)
			}
		}
	}
	if err := checkModel(e); err != nil {
		return fmt.Errorf("final: %w", err)
	}

	// Power-cycle epilogue: recovery must rebuild exactly the model, with
	// every surviving pointer resolving (condemned-but-not-yet-deleted
	// segments, restricted heads, repointed records — all of it).
	env.Dev.Crash()
	env2, err := env.ReopenVolatile()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e2, err := Open(env2, sch, opts)
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	if err := checkModel(e2); err != nil {
		return fmt.Errorf("post-recovery: %w", err)
	}
	return nil
}

// shrinkVlogOps greedily removes chunks of a failing sequence while the
// failure reproduces (ddmin-style).
func shrinkVlogOps(ops []vlogOp) []vlogOp {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= len(ops); {
			cand := append(append([]vlogOp(nil), ops[:lo]...), ops[lo+chunk:]...)
			if runVlogProp(cand) != nil {
				ops = cand
			} else {
				lo += chunk
			}
		}
	}
	return ops
}

// TestVlogGCProperty drives seeded separation/GC sequences; a failure is
// shrunk to a minimal reproduction before reporting.
func TestVlogGCProperty(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 3
	}
	for s := int64(0); s < int64(n); s++ {
		seed := *vlogSeed + s
		rng := rand.New(rand.NewSource(seed))
		ops := genVlogOps(rng, 200)
		if err := runVlogProp(ops); err != nil {
			min := shrinkVlogOps(ops)
			t.Fatalf("seed %d: %v\nminimal reproduction (%d ops): %v\nreplay: go test -run TestVlogGCProperty -vlogseed=%d",
				seed, err, len(min), min, seed)
		}
	}
}

// TestVlogSeparationWriteBytes is the performance fact value separation
// exists for, in exact device counters: one seeded insert+overwrite schedule
// over a small memtable (many flushes and compactions), run with separation
// on and off. Reads cannot tell the two apart, and at 16 KB values — written
// once to the value log instead of again by every compaction that carries
// them — separation writes less than half the bytes; 64 B values sit below
// the threshold, so there it must cost nothing.
func TestVlogSeparationWriteBytes(t *testing.T) {
	run := func(size, thresh int) (map[uint64][]core.Value, uint64) {
		sch := bigSchema()
		sch[0].Columns[2].Size = size
		env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
		e, err := New(env, sch, core.Options{MemTableCap: 16, GroupCommitSize: 1, VlogThreshold: thresh})
		if err != nil {
			t.Fatal(err)
		}
		const keys = 512
		rng := rand.New(rand.NewSource(11))
		for _, k := range rng.Perm(keys) {
			put1(t, e, int64(k), size)
		}
		for _, k := range rng.Perm(keys)[:keys/2] {
			if err := e.Begin(); err != nil {
				t.Fatal(err)
			}
			up := core.Update{Cols: []int{1, 2}, Vals: bigRow(int64(k)+1, size)[1:]}
			if err := e.Update("t", uint64(k), up); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.FlushMemTable(); err != nil {
			t.Fatal(err)
		}
		if sep := e.FlushStats().VlogBytes > 0; sep != (thresh > 0 && size >= thresh) {
			t.Fatalf("%d B values, threshold %d: separated = %v", size, thresh, sep)
		}
		return scanAll(t, e), env.Dev.Stats().BytesWritten
	}
	for _, size := range []int{64, 16384} {
		onState, on := run(size, 512)
		offState, off := run(size, -1)
		if err := sameState(bigSchema()[0], onState, offState); err != nil {
			t.Fatalf("%d B values: separation changed visible state: %v", size, err)
		}
		// Sized at 0.494x and 1.000x; both runs are exact. The bytes include
		// the block cache's fills: in filesystem bytes alone the 16 KB
		// ratio is 0.525x.
		ratio := float64(on) / float64(off)
		if size >= 512 && ratio > 0.5 {
			t.Errorf("%d B values: separation wrote %d bytes, %.3fx of the %d without; want <= 0.5x", size, on, ratio, off)
		}
		if size < 512 && (ratio < 0.9 || ratio > 1.1) {
			t.Errorf("%d B values: separation wrote %d bytes, %.3fx of the %d without; want ~1x below the threshold", size, on, ratio, off)
		}
	}
}
