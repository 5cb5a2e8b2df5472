package cowbtree

import (
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
	id, err := pg.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	pg.WritePage(id, make([]byte, 4096))
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

func TestArenaPagerUnpersistedPagesReclaimed(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	arena := pmalloc.Format(dev, 0, 32<<20)
	pg, _ := CreateArenaPager(arena, 0, 4096)
	// Pages written but never persisted stay in the allocated state.
	id, _ := pg.AllocPage()
	pg.WritePage(id, make([]byte, 4096))
	dev.Crash()
	arena2, _ := pmalloc.Open(dev, 0)
	if st := arena2.StateOf(id); st != pmalloc.StateFree {
		t.Fatalf("unpersisted page state = %v after recovery", st)
	}
}

// TestArenaPagerMalformedLeafFailsPersist: a packed leaf whose header
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
	if dev.ReadU32(root)&0xff != packedLeaf {
		t.Fatal("a leaf of 8-byte values was not written packed")
	}
	dev.Write(root+pCount, []byte{0xff, 0xff})
	dev.Sync(root, pHdr)
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

// FuzzArenaLeafImage: whatever a page chunk holds, ReadPage neither panics
// nor decodes a leaf whose values leave the page, and reports a packed header
// that overruns the page; and any leaf whose values share one width comes
// back from the arena pager with the same entries, having moved 8 + n × (8 +
// w) bytes each way.
func FuzzArenaLeafImage(f *testing.F) {
	const psize = 4096
	dev := nvm.NewDevice(nvm.DefaultConfig(4 << 20))
	pg, err := CreateArenaPager(pmalloc.Format(dev, 0, 4<<20), 0, psize)
	if err != nil {
		f.Fatal(err)
	}
	tr := &Tree{pg: pg, psize: psize}
	id, err := pg.AllocPage()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte, width uint16, seed int64) {
		img := make([]byte, psize)
		copy(img, raw)
		dev.Write(int64(id), img)
		buf := make([]byte, psize)
		pg.ioErr = nil
		pg.ReadPage(id, buf)
		if img[pFlags] == packedLeaf {
			_, _, bad := packedShape(img, psize)
			if (bad != nil) != (pg.ioErr != nil) {
				t.Fatalf("header %x: shape error %v, pager recorded %v", img[:pHdr], bad, pg.ioErr)
			}
			if !isLeaf(buf) || pHdr+count(buf)*leafSlot > dataEnd(buf) || dataEnd(buf) > psize {
				t.Fatalf("header %x decoded into a page with count %d, heap at %d", img[:pHdr], count(buf), dataEnd(buf))
			}
			for i := 0; i < count(buf); i++ {
				leafVal(buf, i) // panics on a value outside the page
			}
		}
		pg.ioErr = nil

		rng := rand.New(rand.NewSource(seed))
		w := int(width) % (tr.maxValue() + 1)
		want := make([]byte, psize)
		initPage(want, true, psize)
		for k := uint64(1); leafFree(want) >= leafSlot+w && rng.Intn(40) != 0; k += 1 + uint64(rng.Intn(1000)) {
			v := make([]byte, w)
			rng.Read(v)
			if leafFree(want) >= 2*leafSlot+2*w && rng.Intn(3) == 0 {
				tr.leafPlace(want, count(want), false, k, make([]byte, rng.Intn(w+1)))
				tr.leafPlace(want, count(want)-1, true, k, v) // the first value stays in the heap, dead
				continue
			}
			tr.leafPlace(want, count(want), false, k, v)
		}
		moved := uint64(pHdr + count(want)*(8+w))
		s0 := dev.Stats()
		pg.WritePage(id, want)
		s1 := dev.Stats()
		got := make([]byte, psize)
		pg.ReadPage(id, got)
		s2 := dev.Stats()
		if !sameEntries(got, want) || pg.ioErr != nil {
			t.Fatalf("%d entries of width %d did not round-trip (%v)", count(want), w, pg.ioErr)
		}
		if wr, rd := s1.BytesWritten-s0.BytesWritten, s2.BytesRead-s1.BytesRead; wr != moved || rd != moved {
			t.Fatalf("%d entries of width %d: wrote %d and read %d bytes, the image has %d", count(want), w, wr, rd, moved)
		}
	})
}

func TestOpenArenaPagerEmptySlot(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	arena := pmalloc.Format(dev, 0, 32<<20)
	if _, err := OpenArenaPager(arena, 9, 4096); err == nil {
		t.Fatal("opened a pager from an empty root slot")
	}
}
