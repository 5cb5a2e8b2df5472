package cowbtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// Pager-level tests: the double-buffered, checksummed master record is the
// crash-atomicity core of both CoW engines.

func TestFilePagerMetaPingPong(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	fs := pmfs.Format(dev, 0, 32<<20, pmfs.Config{ExtentSize: 256 << 10})
	pg, err := CreateFilePager(fs, "db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := pg.Persist(i*100, i); err != nil {
			t.Fatal(err)
		}
		root, meta := pg.Committed()
		if root != i*100 || meta != i {
			t.Fatalf("commit %d: got (%d,%d)", i, root, meta)
		}
	}
	dev.Crash()
	pg2, err := OpenFilePager(fs, "db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	root, meta := pg2.Committed()
	if root != 1000 || meta != 10 {
		t.Fatalf("reopened master = (%d,%d), want (1000,10)", root, meta)
	}
}

func TestFilePagerTornMetaFallsBack(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	fs := pmfs.Format(dev, 0, 32<<20, pmfs.Config{ExtentSize: 256 << 10})
	pg, _ := CreateFilePager(fs, "db", 4096)
	pg.Persist(111, 1)
	pg.Persist(222, 2)
	// Corrupt the slot holding the newest record (seq 3 would go to slot
	// 3%2=1; seq 2's record went to slot 0... the newest valid is seq 3
	// after this persist). Instead: scribble over one slot and verify Open
	// still finds a valid record.
	f, _ := fs.OpenFile("db")
	f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}, 64) // slot 1
	f.Sync()
	dev.Crash()
	pg2, err := OpenFilePager(fs, "db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := pg2.Committed()
	// Slot 1 held seq 3 (seq starts at 1 on create, persist->2, persist->3;
	// 3%2=1). After corruption the valid slot is seq 2 -> root 111.
	if root != 111 && root != 222 {
		t.Fatalf("fell back to invalid root %d", root)
	}
}

func TestFilePagerBothMetasCorruptFails(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	fs := pmfs.Format(dev, 0, 32<<20, pmfs.Config{ExtentSize: 256 << 10})
	CreateFilePager(fs, "db", 4096)
	f, _ := fs.OpenFile("db")
	garbage := make([]byte, 128)
	for i := range garbage {
		garbage[i] = 0x5a
	}
	f.WriteAt(garbage, 0)
	f.Sync()
	if _, err := OpenFilePager(fs, "db", 4096); err == nil {
		t.Fatal("accepted a file with no valid master record")
	}
}

func TestArenaPagerMasterSurvivesCrash(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	arena := pmalloc.Format(dev, 0, 32<<20)
	pg, err := CreateArenaPager(arena, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	id, err := pg.WritePage(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Persist(id, 77); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	arena2, err := pmalloc.Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg2, err := OpenArenaPager(arena2, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	root, meta := pg2.Committed()
	if root != id || meta != 77 {
		t.Fatalf("master = (%d,%d), want (%d,77)", root, meta, id)
	}
}

// TestArenaPagerUnpersistedPagesReclaimed: a page written but never persisted
// is one no committed tree reaches. A crash leaves its chunk free, or
// persisted for the owner's reachability sweep, which frees it.
func TestArenaPagerUnpersistedPagesReclaimed(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	arena := pmalloc.Format(dev, 0, 32<<20)
	pg, err := CreateArenaPager(arena, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := pg.WritePage(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	arena2, err := pmalloc.Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg2, err := OpenArenaPager(arena2, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	reach := map[uint64]bool{}
	Attach(pg2).Reachable(func(id uint64) { reach[id] = true }, nil)
	if !reach[tr.Root()] {
		t.Fatalf("the committed root %d is not reached after the crash", tr.Root())
	}
	if reach[id] {
		t.Fatalf("the unpersisted page %d is reached after the crash", id)
	}
	// The owner's sweep: persisted page chunks the committed tree does not
	// reach are freed.
	var orphans []pmalloc.Ptr
	arena2.Chunks(func(p pmalloc.Ptr, _ int, tag pmalloc.Tag, st pmalloc.State) {
		if tag == pmalloc.TagTable && st == pmalloc.StatePersisted && !reach[p] {
			orphans = append(orphans, p)
		}
	})
	for _, p := range orphans {
		arena2.Free(p)
	}
	if st := arena2.StateOf(id); st != pmalloc.StateFree {
		t.Fatalf("the unpersisted page is %v after recovery and the sweep, want free", st)
	}
	if st := arena2.StateOf(tr.Root()); st != pmalloc.StatePersisted {
		t.Fatalf("the committed root is %v after the sweep", st)
	}
}

// TestArenaPagerMalformedLeafFailsPersist: a leaf whose image's count
// overruns the page reads as an empty leaf, and the next Persist refuses to
// install a master record over it.
func TestArenaPagerMalformedLeafFailsPersist(t *testing.T) {
	dev, _, tr := newArenaPagerTree(t)
	for k := uint64(1); k <= 20; k++ {
		if err := tr.Put(k, val(k, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	root := int64(tr.Root())
	if dev.ReadU8(root) != imgLeaf|imgFOR {
		t.Fatal("a leaf of 8-byte values was not written frame-of-reference coded")
	}
	dev.Write(root+2, []byte{0xff, 0xff}) // the image's count
	dev.Sync(root, imgFixed)
	if _, ok := tr.Get(3); ok {
		t.Fatal("Get found a key in a leaf whose header overruns the page")
	}
	if err := tr.Put(3, val(3, 8)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Persist(); err == nil {
		t.Fatal("Persist committed over a malformed page image")
	}
}

// TestOversizedCountFailsPersist: on either pager, an inner page whose count
// runs past the page's end reads as an empty leaf — Get finds nothing instead
// of indexing out of the page — and the next Persist refuses to commit.
func TestOversizedCountFailsPersist(t *testing.T) {
	for _, arenaPager := range []bool{false, true} {
		var tr *Tree
		var corrupt func(id uint64)
		if arenaPager {
			dev, _, atr := newArenaPagerTree(t)
			tr = atr
			corrupt = func(id uint64) {
				dev.Write(int64(id)+2, []byte{0xff, 0xff}) // the image's count
				dev.Sync(int64(id), imgFixed)
			}
		} else {
			_, fs, ftr := newFilePagerTree(t)
			tr = ftr
			corrupt = func(id uint64) {
				f, err := fs.OpenFile("cow.db")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt([]byte{0xff, 0xff}, ftr.pg.(*FilePager).PageOffset(id)+pCount); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := uint64(1); k <= 2000; k++ {
			if err := tr.Put(k, val(k, 30)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Persist(); err != nil {
			t.Fatal(err)
		}
		if tr.Depth() < 2 {
			t.Fatalf("arena=%v: depth %d, the root is no inner page", arenaPager, tr.Depth())
		}
		corrupt(tr.Root())
		if _, ok := tr.Get(1000); ok {
			t.Fatalf("arena=%v: Get found a key below an inner page whose count overruns it", arenaPager)
		}
		if err := tr.Put(1000, val(1, 30)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Persist(); err == nil {
			t.Fatalf("arena=%v: Persist committed over an inner page whose count overruns it", arenaPager)
		}
	}
}

// overruns states the decoder's checks afresh: whether img's header names no
// page, or a width, a shift or a count no page of psize bytes holds — as an
// image, or in the tree's buffer, decoded. If not, size is the image's length
// as its header and length column state it.
func overruns(img []byte, psize int) (size int, bad bool) {
	flags, kw, n := img[0], int(img[1]), int(binary.LittleEndian.Uint16(img[2:]))
	vw, shift := int(binary.LittleEndian.Uint16(img[4:])), int(img[6])
	coded, lens := flags&imgFOR != 0, flags&imgLens != 0
	switch {
	case flags != imgFOR && flags != imgLeaf && flags != imgLeaf|imgFOR && flags != imgLeaf|imgLens:
		return 0, true
	case kw > 8 || (coded || lens) && vw > 8 || coded && shift >= 64:
		return 0, true
	}
	head := 16
	if coded {
		head = 24
	}
	size, decoded := head+n*(kw+vw), pHdr+n*innerEnt
	switch {
	case flags == imgLeaf|imgFOR:
		decoded = pHdr + n*(leafSlot+8)
	case flags == imgLeaf:
		decoded = pHdr + n*(leafSlot+vw)
	case lens && size <= psize:
		decoded = pHdr + n*leafSlot
		for i := 0; i < n; i++ {
			var l uint64
			for j := 0; j < vw; j++ {
				l |= uint64(img[head+n*kw+i*vw+j]) << (8 * j)
			}
			if l > uint64(psize) {
				return 0, true
			}
			size, decoded = size+int(l), decoded+int(l)
		}
	}
	return size, size > psize || decoded > psize
}

// indexable reports a decoded page whose count, value heap or value slots
// reach past its end: no page a pager returns may be one.
func indexable(buf []byte) error {
	n := count(buf)
	if !isLeaf(buf) {
		if pHdr+n*innerEnt > len(buf) {
			return fmt.Errorf("%d inner entries overrun a %d-byte page", n, len(buf))
		}
		return nil
	}
	if pHdr+n*leafSlot > dataEnd(buf) || dataEnd(buf) > len(buf) {
		return fmt.Errorf("%d leaf slots and a heap at %d overrun a %d-byte page", n, dataEnd(buf), len(buf))
	}
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint16(buf[pHdr+i*leafSlot+8:]))
		if ln := int(binary.LittleEndian.Uint16(buf[pHdr+i*leafSlot+10:])); off+ln > len(buf) {
			return fmt.Errorf("leaf value %d at [%d,%d) overruns a %d-byte page", i, off, off+ln, len(buf))
		}
	}
	return nil
}

// FuzzArenaPageImage: whatever a page chunk holds, ReadPage neither panics nor
// returns a page the tree can index out of, and it records a header exactly
// when the header overruns the page; and every kind of page the tree makes —
// a leaf of one value width, a leaf of mixed widths, an inner page — comes back
// from the arena pager with the same entries, having read exactly its image's
// bytes and written them in a chunk sized to them.
func FuzzArenaPageImage(f *testing.F) {
	const psize = 4096
	dev := nvm.NewDevice(nvm.DefaultConfig(4 << 20))
	pg, err := CreateArenaPager(pmalloc.Format(dev, 0, 4<<20), 0, psize)
	if err != nil {
		f.Fatal(err)
	}
	tr := &Tree{pg: pg, psize: psize}
	id, err := pg.arena.Alloc(psize, pmalloc.TagTable) // a chunk for the fuzzed bytes
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte, kind uint8, seed int64) {
		img := make([]byte, psize)
		copy(img, raw)
		dev.Write(int64(id), img)
		buf := make([]byte, psize)
		pg.ioErr = nil
		pg.ReadPage(id, buf)
		if _, bad := overruns(img, psize); bad != (pg.ioErr != nil) {
			t.Fatalf("header %x: overruns %v, pager recorded %v", img[:24], bad, pg.ioErr)
		}
		if err := indexable(buf); err != nil {
			t.Fatalf("header %x decoded into a page the tree indexes out of: %v", img[:24], err)
		}
		for i := 0; i < count(buf); i++ {
			if isLeaf(buf) {
				leafVal(buf, i) // panics on a value outside the page
			} else {
				innerChild(buf, i)
			}
		}
		pg.ioErr = nil

		// The page chunk goes to a fresh arena's fresh memory, so what
		// writing it costs is known exactly.
		wdev := nvm.NewDevice(nvm.DefaultConfig(64 << 10))
		warena := pmalloc.Format(wdev, 0, 64<<10)
		wpg, err := CreateArenaPager(warena, 0, psize)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, psize)
		randomPage(rand.New(rand.NewSource(seed)), tr, want, int(kind)%pageKinds)
		shape, size := imageSize(want)
		s0, heap := wdev.Stats(), warena.HeapBytes()
		rid, err := wpg.WritePage(want)
		if err != nil {
			t.Fatal(err)
		}
		s1 := wdev.Stats()
		got := make([]byte, psize)
		wpg.ReadPage(rid, got)
		s2 := wdev.Stats()
		if !samePage(got, want) || wpg.ioErr != nil {
			t.Fatalf("a %s page of %d entries did not round-trip (%v)", shape, count(want), wpg.ioErr)
		}
		if err := checkStreamed(warena, rid, size, int(s1.BytesWritten-s0.BytesWritten), warena.HeapBytes()-heap); err != nil {
			t.Fatalf("a %s page of %d entries: %v", shape, count(want), err)
		}
		if rd := s2.BytesRead - s1.BytesRead; rd != uint64(size) {
			t.Fatalf("a %s page of %d entries: read %d bytes, the image has %d", shape, count(want), rd, size)
		}
	})
}

// TestArenaPagerScatteredArenaFailsTheTransaction: on a heap whose free bytes
// lie mostly in chunks too small for a page, the put whose batch the arena
// cannot surely fit is refused — its transaction can abort — though the free
// bytes would hold it; and the Persist after it commits the batch before it.
func TestArenaPagerScatteredArenaFailsTheTransaction(t *testing.T) {
	const size = 1 << 20
	dev := nvm.NewDevice(nvm.DefaultConfig(size))
	arena := pmalloc.Format(dev, 0, size)
	pg, err := CreateArenaPager(arena, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 40; k++ {
		if err := tr.Put(k*100, val(k, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	// One free 24 KB chunk, and every other chunk of 192 bytes free behind it
	// to the end of the heap.
	big, err := arena.StreamPersisted(pmalloc.TagOther, make([]byte, 24<<10))
	if err != nil {
		t.Fatal(err)
	}
	var small []pmalloc.Ptr
	for {
		p, err := arena.StreamPersisted(pmalloc.TagOther, make([]byte, 150))
		if err != nil {
			break
		}
		small = append(small, p)
	}
	for i := 0; i < len(small); i += 2 {
		arena.Free(small[i])
	}
	arena.Free(big)
	scattered := int64(len(small)/2) * 192

	want := map[uint64][]byte{}
	for k := uint64(0); k < 40; k++ {
		want[k*100] = val(k, 300)
	}
	committed, refused := 0, false
	for k := uint64(0); k < 40 && !refused; k++ {
		key, v := k*100+1, val(k+7, 300)
		tr.Begin()
		switch err := tr.Put(key, v); {
		case errors.Is(err, pmalloc.ErrOutOfMemory):
			tr.Abort()
			refused = true
		case err != nil:
			t.Fatal(err)
		default:
			tr.Commit()
			want[key] = v
			committed++
		}
	}
	if !refused || committed == 0 {
		t.Fatalf("%d puts committed before one was refused (%v), with %d bytes free in 192-byte chunks", committed, refused, scattered)
	}
	if scattered < 32<<10 {
		t.Fatalf("only %d bytes free in 192-byte chunks: the heap is not scattered enough to test", scattered)
	}
	if err := tr.Persist(); err != nil {
		t.Fatalf("Persist of %d committed puts after the refused one: %v", committed, err)
	}
	for k, v := range want {
		if got, ok := tr.Get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d after the Persist: %v", k, ok)
		}
	}
}

func TestOpenArenaPagerEmptySlot(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	arena := pmalloc.Format(dev, 0, 32<<20)
	if _, err := OpenArenaPager(arena, 9, 4096); err == nil {
		t.Fatal("opened a pager from an empty root slot")
	}
}

// BenchmarkArenaPagerReadPage and BenchmarkArenaPagerWritePage time the
// decode and the encode of a page image — the wall-clock cost the arena pager
// adds to every page a lookup reads and a Persist writes — on a 100-entry leaf
// of 8-byte tuple pointers and on an inner page of 100 children.
func BenchmarkArenaPagerReadPage(b *testing.B)  { benchPager(b, false) }
func BenchmarkArenaPagerWritePage(b *testing.B) { benchPager(b, true) }

func benchPager(b *testing.B, write bool) {
	for _, leaf := range []bool{true, false} {
		name := "inner"
		if leaf {
			name = "leaf"
		}
		b.Run(name, func(b *testing.B) {
			dev := nvm.NewDevice(nvm.DefaultConfig(4 << 20))
			pg, err := CreateArenaPager(pmalloc.Format(dev, 0, 4<<20), 0, 4096)
			if err != nil {
				b.Fatal(err)
			}
			// Keys as a table's primary keys pack them; tuple chunks of ~200
			// bytes and page chunks of 4 KB, scattered over a few megabytes.
			rng := rand.New(rand.NewSource(1))
			page := make([]byte, 4096)
			initPage(page, leaf, 4096)
			tr := &Tree{pg: pg, psize: 4096}
			for i := 0; i < 100; i++ {
				k := uint64(3)<<40 | uint64(1000+3*i)
				if leaf {
					ptr := binary.LittleEndian.AppendUint64(nil, 1<<20+208*uint64(rng.Intn(16000)))
					tr.leafPlace(page, i, false, k, ptr)
				} else {
					setInner(page, i, k, 1<<20+4112*uint64(rng.Intn(800)))
				}
			}
			if !leaf {
				setCount(page, 100)
			}
			id, err := pg.WritePage(page)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !write {
					pg.ReadPage(id, buf)
				} else if id, err = pg.WritePage(page); err != nil {
					b.Fatal(err)
				} else {
					pg.FreePage(id)
				}
			}
		})
	}
}
