package cowbtree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

func newFilePagerTree(t testing.TB) (*nvm.Device, *pmfs.FS, *Tree) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(256 << 20))
	fs := pmfs.Format(dev, 0, 256<<20, pmfs.Config{ExtentSize: 1 << 20})
	pg, err := CreateFilePager(fs, "cow.db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs, tr
}

func newArenaPagerTree(t testing.TB) (*nvm.Device, *pmalloc.Arena, *Tree) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(256 << 20))
	arena := pmalloc.Format(dev, 0, 256<<20)
	pg, err := CreateArenaPager(arena, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, arena, tr
}

func val(i uint64, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i + uint64(j))
	}
	return b
}

func testPutGetDelete(t *testing.T, tr *Tree) {
	if err := tr.Put(7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(7); !ok || string(v) != "seven" {
		t.Fatalf("Get(7) = %q,%v", v, ok)
	}
	if err := tr.Put(7, []byte("SEVEN!")); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Get(7); string(v) != "SEVEN!" {
		t.Errorf("after replace: %q", v)
	}
	if ok, err := tr.Delete(7); !ok || err != nil {
		t.Fatalf("Delete = %v,%v", ok, err)
	}
	if _, ok := tr.Get(7); ok {
		t.Error("deleted key still present")
	}
	if ok, _ := tr.Delete(7); ok {
		t.Error("second delete succeeded")
	}
}

func TestPutGetDeleteFile(t *testing.T)  { _, _, tr := newFilePagerTree(t); testPutGetDelete(t, tr) }
func TestPutGetDeleteArena(t *testing.T) { _, _, tr := newArenaPagerTree(t); testPutGetDelete(t, tr) }

func testManyKeys(t *testing.T, tr *Tree) {
	rng := rand.New(rand.NewSource(3))
	keys := rng.Perm(10000)
	for _, k := range keys {
		if err := tr.Put(uint64(k)+1, val(uint64(k), 40+k%100)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		v, ok := tr.Get(uint64(k) + 1)
		if !ok || !bytes.Equal(v, val(uint64(k), 40+k%100)) {
			t.Fatalf("Get(%d) wrong (ok=%v)", k+1, ok)
		}
	}
	if tr.Count() != 10000 {
		t.Errorf("Count = %d", tr.Count())
	}
	if tr.Depth() < 2 {
		t.Errorf("tree never split (depth %d)", tr.Depth())
	}
}

func TestManyKeysFile(t *testing.T)  { _, _, tr := newFilePagerTree(t); testManyKeys(t, tr) }
func TestManyKeysArena(t *testing.T) { _, _, tr := newArenaPagerTree(t); testManyKeys(t, tr) }

func TestIterOrdered(t *testing.T) {
	_, _, tr := newFilePagerTree(t)
	for i := 0; i < 5000; i++ {
		k := uint64(i*37%5000) + 1
		tr.Put(k, val(k, 64))
	}
	var got []uint64
	tr.Iter(0, func(k uint64, v []byte) bool { got = append(got, k); return true })
	if len(got) != 5000 {
		t.Fatalf("iterated %d", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("iteration out of order")
	}
	var ranged int
	tr.Iter(1000, func(k uint64, v []byte) bool {
		if k >= 1100 {
			return false
		}
		ranged++
		return true
	})
	if ranged != 100 {
		t.Errorf("range scan found %d, want 100", ranged)
	}
}

func TestLargeValueRejected(t *testing.T) {
	_, _, tr := newFilePagerTree(t)
	if err := tr.Put(1, make([]byte, 5000)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("got %v, want ErrValueTooLarge", err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	_, _, tr := newFilePagerTree(t)
	tr.Put(1, []byte("committed"))
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	tr.Begin()
	tr.Put(1, []byte("doomed"))
	tr.Put(2, []byte("also doomed"))
	tr.Abort()
	if v, _ := tr.Get(1); string(v) != "committed" {
		t.Errorf("after abort: %q", v)
	}
	if _, ok := tr.Get(2); ok {
		t.Error("aborted insert visible")
	}
}

func TestAbortAfterOtherBatchTxns(t *testing.T) {
	_, _, tr := newFilePagerTree(t)
	tr.Begin()
	tr.Put(1, []byte("batch txn 1"))
	tr.Commit()
	tr.Begin()
	tr.Put(2, []byte("doomed"))
	tr.Put(1, []byte("overwrite doomed"))
	tr.Abort()
	// Txn 1's changes survive even though neither is persisted yet.
	if v, ok := tr.Get(1); !ok || string(v) != "batch txn 1" {
		t.Errorf("batch txn 1 lost: %q,%v", v, ok)
	}
	if _, ok := tr.Get(2); ok {
		t.Error("aborted insert visible")
	}
}

// TestReplaceInPlaceNeverSplits: a replace that does not grow the value
// overwrites it in the leaf, so a leaf too full to take one more value even
// after compaction neither compacts nor splits, and Abort restores the old
// value from the batch's image.
func TestReplaceInPlaceNeverSplits(t *testing.T) {
	for _, arenaPager := range []bool{false, true} {
		tr := (*Tree)(nil)
		if arenaPager {
			_, _, tr = newArenaPagerTree(t)
		} else {
			_, _, tr = newFilePagerTree(t)
		}
		const w = 100
		tr.Begin()
		for k := uint64(1); leafFree(tr.page(tr.root)) >= leafSlot+w; k++ {
			if err := tr.Put(k, val(k, w)); err != nil {
				t.Fatal(err)
			}
		}
		tr.Commit()
		leaf := tr.page(tr.root)
		if !isLeaf(leaf) || leafFree(leaf) >= w {
			t.Fatalf("arena=%v: setup: root leaf=%v with %d bytes free, want a leaf with under %d", arenaPager, isLeaf(leaf), leafFree(leaf), w)
		}
		root, allocs := tr.root, tr.named

		tr.Begin()
		if err := tr.Put(5, val(99, w)); err != nil {
			t.Fatal(err)
		}
		if tr.named != allocs || tr.root != root {
			t.Fatalf("arena=%v: a same-length replace made %d pages, root %d -> %d", arenaPager, tr.named-allocs, root, tr.root)
		}
		if v, _ := tr.Get(5); !bytes.Equal(v, val(99, w)) {
			t.Fatalf("arena=%v: Get after the replace returned the old value", arenaPager)
		}
		tr.Abort()
		if v, _ := tr.Get(5); !bytes.Equal(v, val(5, w)) {
			t.Fatalf("arena=%v: Abort left %v, want the old value", arenaPager, v[:4])
		}
	}
}

func TestCrashBeforePersistLosesBatch(t *testing.T) {
	dev, fs, tr := newFilePagerTree(t)
	tr.Put(1, []byte("durable"))
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	tr.Put(2, []byte("volatile"))
	// No Persist: crash loses the batch, master still points at old root.
	dev.Crash()
	pg, err := OpenFilePager(fs, "cow.db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := Attach(pg)
	if v, ok := tr2.Get(1); !ok || string(v) != "durable" {
		t.Fatalf("durable key lost: %q,%v", v, ok)
	}
	if _, ok := tr2.Get(2); ok {
		t.Error("unpersisted key survived crash")
	}
}

func TestCrashAfterPersistKeepsBatch(t *testing.T) {
	dev, arena, tr := newArenaPagerTree(t)
	for i := uint64(1); i <= 2000; i++ {
		tr.Put(i, val(i, 30))
	}
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	arena2, err := pmalloc.Open(arena.Device(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := OpenArenaPager(arena2, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := Attach(pg)
	for i := uint64(1); i <= 2000; i++ {
		if v, ok := tr2.Get(i); !ok || !bytes.Equal(v, val(i, 30)) {
			t.Fatalf("key %d wrong after crash (ok=%v)", i, ok)
		}
	}
}

func TestGetCommittedIgnoresDirty(t *testing.T) {
	_, _, tr := newFilePagerTree(t)
	tr.Put(1, []byte("old"))
	tr.Persist()
	tr.Put(1, []byte("new"))
	if v, _ := tr.Get(1); string(v) != "new" {
		t.Errorf("dirty read = %q", v)
	}
	if v, _ := tr.GetCommitted(1); string(v) != "old" {
		t.Errorf("committed read = %q", v)
	}
	tr.Persist()
	if v, _ := tr.GetCommitted(1); string(v) != "new" {
		t.Errorf("committed read after persist = %q", v)
	}
}

func TestPageReuseAfterPersist(t *testing.T) {
	dev, fs, tr := newFilePagerTree(t)
	_ = dev
	for round := 0; round < 30; round++ {
		for i := uint64(1); i <= 200; i++ {
			tr.Put(i, val(i+uint64(round), 100))
		}
		if err := tr.Persist(); err != nil {
			t.Fatal(err)
		}
	}
	// With page recycling, the file must stay far below the no-reuse bound.
	size, _ := fs.FileSize("cow.db")
	noReuse := int64(30) * 200 * 4096
	if size >= noReuse/4 {
		t.Errorf("file grew to %d bytes; page reuse appears broken", size)
	}
}

func TestReachableSweepAfterCrash(t *testing.T) {
	dev, fs, tr := newFilePagerTree(t)
	for i := uint64(1); i <= 500; i++ {
		tr.Put(i, val(i, 50))
	}
	tr.Persist()
	// Lose a dirty directory.
	for i := uint64(1); i <= 500; i++ {
		tr.Put(i, val(i+7, 50))
	}
	dev.Crash()
	pg, err := OpenFilePager(fs, "cow.db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := Attach(pg)
	used := map[uint64]bool{}
	tr2.Reachable(func(id uint64) { used[id] = true }, nil)
	pg.InitFree(used)
	// All data still correct and the tree still writable.
	for i := uint64(1); i <= 500; i++ {
		if v, ok := tr2.Get(i); !ok || !bytes.Equal(v, val(i, 50)) {
			t.Fatalf("key %d wrong after sweep", i)
		}
	}
	for i := uint64(501); i <= 1000; i++ {
		if err := tr2.Put(i, val(i, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr2.Persist(); err != nil {
		t.Fatal(err)
	}
}

// Property: tree matches a map model under arbitrary put/delete/abort
// sequences with periodic persists.
func TestQuickAgainstModel(t *testing.T) {
	_, _, tr := newArenaPagerTree(t)
	model := make(map[uint64]string)
	steps := 0

	fn := func(k uint64, raw []byte, del, abort bool) bool {
		k = k%3000 + 1
		if len(raw) > 500 {
			raw = raw[:500]
		}
		tr.Begin()
		if del {
			if _, ok := model[k]; ok {
				if err := tr.del(k); err != nil {
					return false
				}
			}
		} else {
			if err := tr.put(k, raw); err != nil {
				return false
			}
		}
		if abort {
			tr.Abort()
		} else {
			tr.Commit()
			if del {
				delete(model, k)
			} else {
				model[k] = string(raw)
			}
		}
		steps++
		if steps%200 == 0 {
			if err := tr.Persist(); err != nil {
				return false
			}
		}
		got, ok := tr.Get(k)
		want, inModel := model[k]
		return ok == inModel && (!ok || string(got) == want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != len(model) {
		t.Fatalf("Count = %d, model = %d", tr.Count(), len(model))
	}
}

// Property: after a crash at any injected fence, Attach always yields the
// last persisted state exactly.
func TestQuickCrashInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 40; iter++ {
		dev := nvm.NewDevice(nvm.DefaultConfig(64 << 20))
		fs := pmfs.Format(dev, 0, 64<<20, pmfs.Config{ExtentSize: 256 << 10})
		pg, err := CreateFilePager(fs, "cow.db", 4096)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Create(pg)
		if err != nil {
			t.Fatal(err)
		}
		persisted := make(map[uint64]string)
		working := make(map[uint64]string)

		dev.FailAfterFences(rng.Intn(200))
		func() {
			defer func() {
				if r := recover(); r != nil && r != nvm.ErrInjectedCrash {
					panic(r)
				}
			}()
			for i := 0; i < 300; i++ {
				k := uint64(rng.Intn(200)) + 1
				v := fmt.Sprintf("v%d-%d", k, i)
				if err := tr.Put(k, []byte(v)); err != nil {
					t.Error(err)
					return
				}
				working[k] = v
				if i%25 == 24 {
					if err := tr.Persist(); err != nil {
						t.Error(err)
						return
					}
					persisted = make(map[uint64]string, len(working))
					for kk, vv := range working {
						persisted[kk] = vv
					}
				}
			}
		}()
		dev.Crash()
		pg2, err := OpenFilePager(fs, "cow.db", 4096)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		tr2 := Attach(pg2)
		for k := uint64(1); k <= 200; k++ {
			got, ok := tr2.Get(k)
			want, inModel := persisted[k]
			// The crash may have hit inside a Persist; then either the old
			// or the new master is valid. Accept the working state too in
			// that single ambiguous window by checking against both.
			if ok != inModel || (ok && string(got) != want) {
				w2, in2 := working[k]
				if ok == in2 && (!ok || string(got) == w2) {
					continue
				}
				t.Fatalf("iter %d: key %d = (%q,%v); persisted (%q,%v)",
					iter, k, got, ok, want, inModel)
			}
		}
	}
}

func BenchmarkCowPut(b *testing.B) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 30))
	fs := pmfs.Format(dev, 0, 1<<30, pmfs.Config{ExtentSize: 4 << 20})
	pg, _ := CreateFilePager(fs, "cow.db", 4096)
	tr, _ := Create(pg)
	v := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(uint64(i%100000)+1, v)
		if i%64 == 63 {
			tr.Persist()
		}
	}
}
