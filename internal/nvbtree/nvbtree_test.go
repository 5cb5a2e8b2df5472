package nvbtree

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

func newTree(t testing.TB, nodeSize int) (*nvm.Device, *pmalloc.Arena, *Tree) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(64 << 20))
	arena := pmalloc.Format(dev, 0, 64<<20)
	tr, err := Create(arena, nodeSize)
	if err != nil {
		t.Fatal(err)
	}
	return dev, arena, tr
}

func put(tb testing.TB, tr *Tree, k, v uint64) {
	tb.Helper()
	if err := tr.Put(k, v); err != nil {
		tb.Fatal(err)
	}
}

func del(tb testing.TB, tr *Tree, k uint64) bool {
	tb.Helper()
	ok, err := tr.Delete(k)
	if err != nil {
		tb.Fatal(err)
	}
	return ok
}

func TestPutGetDelete(t *testing.T) {
	_, _, tr := newTree(t, 0)
	put(t, tr, 5, 50)
	if v, ok := tr.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	put(t, tr, 5, 51)
	if v, _ := tr.Get(5); v != 51 {
		t.Errorf("value after replace = %d", v)
	}
	if !del(t, tr, 5) {
		t.Error("Delete missed existing key")
	}
	if _, ok := tr.Get(5); ok {
		t.Error("deleted key still present")
	}
	if del(t, tr, 5) {
		t.Error("second delete succeeded")
	}
}

func TestManyKeys(t *testing.T) {
	_, _, tr := newTree(t, 0)
	rng := rand.New(rand.NewSource(2))
	keys := rng.Perm(20000)
	for _, k := range keys {
		put(t, tr, uint64(k)+1, uint64(k)*5)
	}
	for _, k := range keys {
		if v, ok := tr.Get(uint64(k) + 1); !ok || v != uint64(k)*5 {
			t.Fatalf("Get(%d) = %d,%v", k+1, v, ok)
		}
	}
	if tr.Count() != 20000 {
		t.Errorf("Count = %d", tr.Count())
	}
}

func TestIterOrdered(t *testing.T) {
	_, _, tr := newTree(t, 256)
	for i := 0; i < 3000; i++ {
		put(t, tr, uint64(i*13%3000)+1, uint64(i))
	}
	var got []uint64
	tr.Iter(0, func(k, v uint64) bool { got = append(got, k); return true })
	if len(got) != 3000 {
		t.Fatalf("iterated %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("iteration out of order")
	}
	// Range start mid-tree.
	var ranged []uint64
	tr.Iter(1500, func(k, v uint64) bool {
		if k >= 1600 {
			return false
		}
		ranged = append(ranged, k)
		return true
	})
	if len(ranged) != 100 {
		t.Fatalf("range scan found %d keys, want 100", len(ranged))
	}
}

func TestSurvivesCleanCrash(t *testing.T) {
	dev, arena, tr := newTree(t, 0)
	for i := uint64(1); i <= 5000; i++ {
		put(t, tr, i, i*2)
	}
	hdr := tr.Header()
	arena.SetRoot(0, hdr)
	dev.Crash()
	arena2, err := pmalloc.Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(arena2, arena2.Root(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5000; i++ {
		if v, ok := tr2.Get(i); !ok || v != i*2 {
			t.Fatalf("Get(%d) = %d,%v after crash", i, v, ok)
		}
	}
}

func TestDeletesSurviveCrash(t *testing.T) {
	dev, arena, tr := newTree(t, 128)
	for i := uint64(1); i <= 1000; i++ {
		put(t, tr, i, i)
	}
	for i := uint64(1); i <= 1000; i += 2 {
		del(t, tr, i)
	}
	arena.SetRoot(0, tr.Header())
	dev.Crash()
	arena2, _ := pmalloc.Open(dev, 0)
	tr2, err := Open(arena2, arena2.Root(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 1000; i++ {
		_, ok := tr2.Get(i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("key %d present=%v after crash, want %v", i, ok, want)
		}
	}
}

func TestNodeSizes(t *testing.T) {
	for _, ns := range []int{128, 256, 512, 1024, 4096} {
		_, _, tr := newTree(t, ns)
		for i := uint64(1); i <= 3000; i++ {
			put(t, tr, i, i+7)
		}
		for i := uint64(1); i <= 3000; i++ {
			if v, ok := tr.Get(i); !ok || v != i+7 {
				t.Fatalf("nodeSize %d: Get(%d) = %d,%v", ns, i, v, ok)
			}
		}
	}
}

func TestTombstoneValuePanics(t *testing.T) {
	_, _, tr := newTree(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("Put with tombstone bit did not panic")
		}
	}()
	_ = tr.Put(1, 1<<63)
}

func TestOpenRejectsGarbage(t *testing.T) {
	_, arena, _ := newTree(t, 0)
	p, _ := arena.Alloc(64, pmalloc.TagOther)
	if _, err := Open(arena, p); err == nil {
		t.Fatal("Open accepted a non-tree chunk")
	}
}

// Put must return an error — not panic, not corrupt the tree — when the
// arena can no longer hold a node rewrite.
func TestPutReturnsErrorWhenArenaFull(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	arena := pmalloc.Format(dev, 0, 1<<20)
	tr, err := Create(arena, 128)
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	model := make(map[uint64]uint64)
	for i := uint64(1); i <= 1<<20; i++ {
		if err := tr.Put(i, i); err != nil {
			failed = true
			break
		}
		model[i] = i
	}
	if !failed {
		t.Fatal("arena never filled up")
	}
	// Every previously inserted key must still read back correctly.
	for k, v := range model {
		if got, ok := tr.Get(k); !ok || got != v {
			t.Fatalf("after alloc failure: Get(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func TestRelease(t *testing.T) {
	_, arena, tr := newTree(t, 256)
	for i := uint64(1); i <= 2000; i++ {
		put(t, tr, i, i)
	}
	before := arena.Allocated()
	tr.Release()
	if arena.Allocated() >= before {
		t.Errorf("Release freed nothing: %d -> %d", before, arena.Allocated())
	}
}

// Property: tree matches a map model under arbitrary operation sequences,
// across clean restarts.
func TestQuickAgainstMapWithRestarts(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(256 << 20))
	arena := pmalloc.Format(dev, 0, 256<<20)
	tr, err := Create(arena, 128)
	if err != nil {
		t.Fatal(err)
	}
	arena.SetRoot(0, tr.Header())
	model := make(map[uint64]uint64)
	steps := 0

	fn := func(k, v uint64, del bool) bool {
		k = k%4000 + 1
		v &^= 1 << 63
		if del {
			_, inModel := model[k]
			removed, err := tr.Delete(k)
			if err != nil || removed != inModel {
				return false
			}
			delete(model, k)
		} else {
			if tr.Put(k, v) != nil {
				return false
			}
			model[k] = v
		}
		steps++
		if steps%500 == 0 {
			// Clean crash + reopen mid-sequence.
			dev.Crash()
			var err error
			arena, err = pmalloc.Open(dev, 0)
			if err != nil {
				return false
			}
			tr, err = Open(arena, arena.Root(0))
			if err != nil {
				return false
			}
		}
		got, ok := tr.Get(k)
		want, inModel := model[k]
		return ok == inModel && (!ok || got == want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	// Full ordered scan against the model.
	var keys []uint64
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var got []uint64
	tr.Iter(0, func(k, v uint64) bool { got = append(got, k); return true })
	if len(got) != len(keys) {
		t.Fatalf("scan found %d keys, model has %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], keys[i])
		}
	}
}

// Property: a crash injected at ANY fence boundary leaves the tree
// consistent: every operation that completed before the crash is fully
// visible; the interrupted operation is atomic (either fully applied or
// absent); and the tree remains usable.
func TestQuickCrashInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 120; iter++ {
		dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
		arena := pmalloc.Format(dev, 0, 32<<20)
		tr, err := Create(arena, 128)
		if err != nil {
			t.Fatal(err)
		}
		arena.SetRoot(0, tr.Header())
		model := make(map[uint64]uint64)

		// Arm a crash at a random fence within the workload.
		dev.InjectFaults(nvm.FaultPlan{Mode: nvm.FaultLoseAll, CrashAfterFences: rng.Intn(600)})
		var inflightKey uint64
		var inflightDel bool
		crashed, err := nvm.Crashed(func() error {
			for i := 0; i < 400; i++ {
				k := uint64(rng.Intn(500)) + 1
				if rng.Intn(4) == 0 {
					inflightKey, inflightDel = k, true
					if _, err := tr.Delete(k); err != nil {
						return err
					}
					delete(model, k)
				} else {
					v := uint64(rng.Intn(1 << 20))
					inflightKey, inflightDel = k, false
					if err := tr.Put(k, v); err != nil {
						return err
					}
					model[k] = v
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		dev.Crash()
		arena2, err := pmalloc.Open(dev, 0)
		if err != nil {
			t.Fatalf("iter %d: arena open: %v", iter, err)
		}
		tr2, err := Open(arena2, arena2.Root(0))
		if err != nil {
			t.Fatalf("iter %d: tree open: %v", iter, err)
		}
		for k := uint64(1); k <= 500; k++ {
			got, ok := tr2.Get(k)
			want, inModel := model[k]
			if crashed && k == inflightKey {
				// The interrupted op may or may not have applied; both the
				// pre- and post-states are acceptable, but the read must not
				// return garbage.
				if ok && !inflightDel && got != want && got != 0 {
					// Value must be either the new value (applied) or the
					// previous one; we didn't track the previous, so only
					// assert it's not a torn/corrupt value by re-reading.
					if got2, ok2 := tr2.Get(k); got2 != got || ok2 != ok {
						t.Fatalf("iter %d: unstable read for in-flight key", iter)
					}
				}
				continue
			}
			if ok != inModel || (ok && got != want) {
				t.Fatalf("iter %d (crashed=%v): key %d = (%d,%v), model (%d,%v)",
					iter, crashed, k, got, ok, want, inModel)
			}
		}
		// Tree must remain fully usable after recovery.
		if err := tr2.Put(9999, 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := tr2.Get(9999); !ok {
			t.Fatalf("iter %d: tree unusable after recovery", iter)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 30))
	tr, err := Create(pmalloc.Format(dev, 0, 1<<30), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i)+1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 30))
	tr, err := Create(pmalloc.Format(dev, 0, 1<<30), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(1); i <= 1<<20; i++ {
		if err := tr.Put(i, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i)%(1<<20) + 1)
	}
}

// A child pointer that cycles back on itself (what a fence-less image can
// hold after a reordering crash) ends every descent by key at maxDepth instead
// of spinning — Put and Delete report ErrCorrupt, Get reports nothing — and
// ends a walk at the node it names again: Iter, Count and Nodes read the root
// once and return nothing past it, and Release frees it once.
func TestCyclicChildPointerEndsDescents(t *testing.T) {
	dev, arena, tr := newTree(t, 256)
	for k := uint64(1); k <= 200; k++ {
		put(t, tr, k, k)
	}
	root := tr.root()
	if tr.isLeaf(root) {
		t.Fatal("200 keys in 256-byte nodes left a leaf root")
	}
	for i := 0; i < tr.count(root); i++ {
		dev.WriteU64(int64(root)+int64(tr.ents)+int64(i)*entSize+8, root)
	}
	if err := tr.Put(7, 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Put = %v, want ErrCorrupt", err)
	}
	if ok, err := tr.Delete(7); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Delete = %v, %v, want false, ErrCorrupt", ok, err)
	}
	if v, ok := tr.Get(7); ok {
		t.Fatalf("Get found %d under a cyclic root", v)
	}
	// The root word, then the root's flag byte, count word and entries.
	once := uint64(8 + 1 + 8 + tr.count(root)*entSize)
	var keys int
	var nodes []pmalloc.Ptr
	for _, w := range []struct {
		name string
		run  func()
	}{
		{"Iter", func() { tr.Iter(0, func(k, v uint64) bool { keys++; return true }) }},
		{"Count", func() { keys += tr.Count() }},
		{"Nodes", func() { tr.Nodes(func(p pmalloc.Ptr) { nodes = append(nodes, p) }) }},
	} {
		st := dev.Stats()
		w.run()
		if got := dev.Stats().Sub(st).BytesRead; got != once {
			t.Errorf("%s read %d bytes under a cyclic root, one visit of it reads %d", w.name, got, once)
		}
	}
	if keys != 0 {
		t.Errorf("Iter and Count emitted %d keys under a cyclic root", keys)
	}
	if want := []pmalloc.Ptr{tr.Header(), pmalloc.Ptr(root)}; !slices.Equal(nodes, want) {
		t.Errorf("Nodes = %v under a cyclic root, want the header and the root %v", nodes, want)
	}
	tr.Release() // a second free of the root panics
	if st := arena.StateOf(pmalloc.Ptr(root)); st != pmalloc.StateFree {
		t.Errorf("Release left the cyclic root in state %v", st)
	}
}

// scanTree is the 20 000-key tree of 512-byte nodes the full-scan test and
// benchmark walk.
func scanTree(tb testing.TB) (*nvm.Device, *Tree) {
	dev, _, tr := newTree(tb, 512)
	for k := uint64(1); k <= 20000; k++ {
		put(tb, tr, k*7919%100003, k)
	}
	return dev, tr
}

// TestIterReadsEachNodeOnce: a full scan reads the header's root word and each
// node's flag byte, count word and committed entries once — no re-descent
// from the root between leaves.
func TestIterReadsEachNodeOnce(t *testing.T) {
	dev, tr := scanTree(t)
	bound := uint64(8)
	tr.Nodes(func(p pmalloc.Ptr) {
		if p != tr.Header() {
			bound += uint64(1 + 8 + tr.count(uint64(p))*entSize)
		}
	})
	st := dev.Stats()
	n, last := 0, uint64(0)
	tr.Iter(0, func(k, v uint64) bool {
		if n > 0 && k <= last {
			t.Fatalf("key %d after %d", k, last)
		}
		n, last = n+1, k
		return true
	})
	got := dev.Stats().Sub(st).BytesRead
	if n != 20000 {
		t.Errorf("Iter emitted %d keys, want 20000", n)
	}
	if got > bound {
		t.Errorf("a full scan read %d bytes; the root word and each node once are %d", got, bound)
	}
	t.Logf("a full scan read %d bytes (bound %d)", got, bound)
}

// TestIterAllocatesPerWalk: a full scan resolves each node into scratch the
// tree kept from the walk before, not into a map and slices of its own, so
// what it allocates does not grow with the tree: the same small bound holds
// for a tree of 20 000 keys and one of a few hundred (8 644 and 141
// allocations while each node resolved into fresh ones).
func TestIterAllocatesPerWalk(t *testing.T) {
	_, big := scanTree(t)
	_, _, small := newTree(t, 512)
	for k := uint64(1); k <= 300; k++ {
		put(t, small, k*7919%100003, k)
	}
	for _, c := range []struct {
		name string
		tr   *Tree
	}{{"20 000 keys", big}, {"300 keys", small}} {
		allocs := testing.AllocsPerRun(5, func() { c.tr.Iter(0, func(k, v uint64) bool { return true }) })
		t.Logf("a full scan of %s: %.0f allocations", c.name, allocs)
		if allocs > 4 {
			t.Errorf("a full scan of %s made %.0f allocations, want at most 4", c.name, allocs)
		}
	}
}

// BenchmarkIter times a full scan of scanTree.
func BenchmarkIter(b *testing.B) {
	dev, tr := scanTree(b)
	st := dev.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Iter(0, func(k, v uint64) bool { return true })
	}
	b.ReportMetric(float64(dev.Stats().Sub(st).BytesRead)/float64(b.N), "B-read/op")
}

// TestCapacityFillsALeaf: Capacity distinct keys fill an empty tree's one
// leaf in place, and the next put rewrites it — at the default node size
// (Capacity(0)) and at others.
func TestCapacityFillsALeaf(t *testing.T) {
	for _, size := range []int{0, 256, 512, 1024} {
		_, _, tr := newTree(t, size)
		root := tr.root()
		for k := 0; k < Capacity(size); k++ {
			put(t, tr, uint64(k), 1)
		}
		if got := tr.root(); got != root {
			t.Errorf("node size %d: %d puts rewrote the leaf", size, Capacity(size))
		}
		put(t, tr, uint64(Capacity(size)), 1)
		if got := tr.root(); got == root {
			t.Errorf("node size %d: put %d found room in a leaf of capacity %d", size, Capacity(size)+1, Capacity(size))
		}
	}
}
