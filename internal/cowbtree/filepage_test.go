package cowbtree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"nstore/internal/nvm"
	"nstore/internal/pmfs"
)

// fileImageLen states the file pager's page image afresh: an inner page's
// header and entries; a leaf's header and slot directory, and its value heap
// to the end of the page, dead values included.
func fileImageLen(buf []byte) int {
	if isLeaf(buf) {
		return pHdr + count(buf)*leafSlot + len(buf) - dataEnd(buf)
	}
	return pHdr + count(buf)*innerEnt
}

// fileImageBad states the file pager's checks afresh: whether a slot holding
// raw, read through an id whose length is n, must be refused — a length below
// the header or above the page, a length the header does not imply, a heap
// that overlaps the slots or leaves the page, or a value outside the page.
func fileImageBad(raw []byte, n, psize int) bool {
	if n < pHdr || n > psize {
		return true
	}
	c := int(binary.LittleEndian.Uint16(raw[pCount:]))
	if raw[pFlags] != 1 {
		return pHdr+c*innerEnt != n
	}
	slots, heap := pHdr+c*leafSlot, int(binary.LittleEndian.Uint32(raw[pDataEnd:]))
	if slots > heap || heap > psize || slots+psize-heap != n {
		return true
	}
	for i := 0; i < c; i++ {
		s := raw[pHdr+i*leafSlot:]
		if int(binary.LittleEndian.Uint16(s[8:]))+int(binary.LittleEndian.Uint16(s[10:])) > psize {
			return true
		}
	}
	return false
}

// FuzzFilePageImage: whatever a page's slot of the file holds, and whatever
// length its id carries, ReadPage neither panics nor returns a page the tree
// can index out of, records an error exactly when the file pager's checks
// refuse the image, and the next Persist then refuses to commit; and every
// kind of page the tree makes — leaves with replaced and deleted values,
// compacted or not, and inner pages — comes back from the file pager with the
// same entries under an id that carries its image's length, having been
// written as that image padded to whole lines. An id whose length is short,
// oversized or disagrees with the leaf's heap ends in a refused Persist.
func FuzzFilePageImage(f *testing.F) {
	const psize = 4096
	dev := nvm.NewDevice(nvm.DefaultConfig(8 << 20))
	fs := pmfs.Format(dev, 0, 8<<20, pmfs.Config{ExtentSize: 1 << 20})
	pg, err := CreateFilePager(fs, "cow.db", psize)
	if err != nil {
		f.Fatal(err)
	}
	file, err := fs.OpenFile("cow.db")
	if err != nil {
		f.Fatal(err)
	}
	tr := &Tree{pg: pg, psize: psize}
	empty := make([]byte, psize)
	initPage(empty, true, psize)
	rawID, err := pg.WritePage(empty) // the slot the fuzzed bytes go to
	if err != nil {
		f.Fatal(err)
	}
	spare, err := pg.WritePage(empty) // the slot every round trip reuses
	if err != nil {
		f.Fatal(err)
	}
	pg.FreePage(spare)

	leaf := func(n, heap int) []byte {
		b := make([]byte, pHdr)
		b[pFlags] = 1
		binary.LittleEndian.PutUint16(b[pCount:], uint16(n))
		return binary.LittleEndian.AppendUint32(b[:pDataEnd], uint32(heap))
	}
	f.Add([]byte(nil), uint16(pHdr), uint8(innerPage), int64(1))
	f.Add(leaf(0, psize), uint16(pHdr), uint8(uniformLeaf), int64(2))
	f.Add(leaf(2, psize-10), uint16(pHdr+2*leafSlot+10), uint8(mixedLeaf), int64(3))
	f.Add(leaf(2, psize-10), uint16(pHdr+2*leafSlot+9), uint8(mixedLeaf|4), int64(4))
	f.Add(leaf(0xffff, psize), uint16(psize), uint8(uniformLeaf|4), int64(5))
	f.Add([]byte{0, 0, 0xff, 0xff}, uint16(psize), uint8(innerPage), int64(6))
	f.Add([]byte(nil), uint16(psize+1), uint8(mixedLeaf), int64(7))
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, kind uint8, seed int64) {
		slot := make([]byte, psize)
		copy(slot, raw)
		if _, err := file.WriteAt(slot, pg.PageOffset(rawID)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, psize)
		pg.ReadPage(rawID&pageMask|uint64(n)<<idLenShift, buf)
		bad := fileImageBad(slot, int(n), psize)
		if bad != (pg.Err() != nil) {
			t.Fatalf("header %x through a %d-byte id: refused %v, pager recorded %v", slot[:pHdr], n, bad, pg.Err())
		}
		if err := checkSlotted(buf); err != nil {
			t.Fatalf("header %x through a %d-byte id decoded into a page the tree indexes out of: %v", slot[:pHdr], n, err)
		}
		for i := 0; i < count(buf); i++ {
			if isLeaf(buf) {
				leafVal(buf, i) // panics on a value outside the page
			} else {
				innerChild(buf, i)
			}
		}
		if bad && pg.Persist(pg.root, pg.meta) == nil {
			t.Fatalf("header %x through a %d-byte id: Persist committed over a refused image", slot[:pHdr], n)
		}

		rng := rand.New(rand.NewSource(seed))
		want := make([]byte, psize)
		randomPage(rng, tr, want, int(kind&3)%pageKinds)
		if isLeaf(want) && kind&4 != 0 {
			tr.compactLeaf(want)
		}
		lo, hi := deadGap(want)
		for i := lo; i < hi; i++ {
			want[i] = byte(rng.Int()) // the gap may hold anything
		}
		size := fileImageLen(want)
		before := dev.Stats().BytesWritten
		id, err := pg.WritePage(want)
		if err != nil {
			t.Fatal(err)
		}
		if id&pageMask != spare&pageMask || int(id>>idLenShift) != size {
			t.Fatalf("a page with a %d-byte image written as page %d of %d bytes, want page %d", size, id&pageMask, id>>idLenShift, spare&pageMask)
		}
		if wrote, lines := dev.Stats().BytesWritten-before, (size+nvm.LineSize-1)&^(nvm.LineSize-1); wrote != uint64(lines) {
			t.Fatalf("a %d-byte image into a recycled slot wrote %d bytes, want its %d bytes of lines", size, wrote, lines)
		}
		got := bytes.Repeat([]byte{0xA5}, psize)
		pg.ReadPage(id, got)
		if !samePage(got, want) || pg.Err() != nil {
			t.Fatalf("a page of %d entries (leaf %v) did not round-trip (%v)", count(want), isLeaf(want), pg.Err())
		}
		mismatch := pHdr + rng.Intn(psize-pHdr+1)
		if mismatch == size {
			mismatch = size + 1
		}
		for _, n := range []int{rng.Intn(pHdr), psize + 1 + rng.Intn(psize), mismatch} {
			pg.ReadPage(id&pageMask|uint64(n)<<idLenShift, got)
			if pg.Persist(pg.root, pg.meta) == nil {
				t.Fatalf("a %d-byte image read through a %d-byte id: Persist committed", size, n)
			}
		}
		pg.FreePage(id)
	})
}

// TestFilePagerColdReadCost: a ReadPage of a page none of whose lines is
// cached loads exactly the lines of its image and charges one filesystem
// call that copies the image's bytes — on a slot the file grew by and on a
// recycled one.
func TestFilePagerColdReadCost(t *testing.T) {
	dev, _, tr := newFilePagerTree(t)
	dev.SetLatency(nvm.ProfileLowNVM)
	miss := dev.Config().ReadMissExtra
	pg := tr.pg.(*FilePager)
	rng := rand.New(rand.NewSource(*batchSeed))
	got := make([]byte, pg.PageSize())
	for i := 0; i < 200; i++ {
		want := make([]byte, pg.PageSize())
		randomPage(rng, tr, want, i%pageKinds)
		id, err := pg.WritePage(want) // streamed: it leaves no line of the slot cached
		if err != nil {
			t.Fatal(err)
		}
		n := fileImageLen(want)
		lines := (n + nvm.LineSize - 1) / nvm.LineSize
		s0 := dev.Stats()
		pg.ReadPage(id, got)
		s1 := dev.Stats()
		if !samePage(got, want) {
			t.Fatalf("page %d came back with other entries", i)
		}
		if loads := s1.Loads - s0.Loads; loads != uint64(lines) {
			t.Fatalf("page %d: a cold read of a %d-byte image loaded %d lines, want %d", i, n, loads, lines)
		}
		call := pmfs.VFSCost + time.Duration(float64(n)*pmfs.CopyCostPerByte)*time.Nanosecond
		if stall := s1.Stall - s0.Stall; stall != call+time.Duration(lines)*miss {
			t.Fatalf("page %d: a cold read of a %d-byte image stalled %v, want one %d-byte call (%v) and %d misses of %v",
				i, n, stall, n, call, lines, miss)
		}
		if i%2 == 1 {
			pg.FreePage(id) // the next page recycles the slot
		}
	}
	if err := pg.Err(); err != nil {
		t.Fatal(err)
	}
}

// pathReads counts the pager reads of each page id.
type pathReads struct {
	Pager
	reads map[uint64]int
}

func (p *pathReads) ReadPage(id uint64, buf []byte) {
	p.reads[id]++
	p.Pager.ReadPage(id, buf)
}

func (p *pathReads) total() int {
	n := 0
	for _, r := range p.reads {
		n += r
	}
	return n
}

// TestUpdateReadsPathOnce: on either pager, an update whose path is all
// committed reads each page of it once, in the Get before it, and never
// again to shadow it; and a page that a Persist freed and a later Persist
// rewrote under the same id is read afresh, not cloned from what Get kept.
func TestUpdateReadsPathOnce(t *testing.T) {
	for _, arenaPager := range []bool{false, true} {
		var tr *Tree
		if arenaPager {
			_, _, tr = newArenaPagerTree(t)
		} else {
			_, _, tr = newFilePagerTree(t)
		}
		for k := uint64(1); k <= 3000; k++ {
			if err := tr.Put(k, val(k, 300)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Persist(); err != nil {
			t.Fatal(err)
		}
		depth := tr.Depth()
		if depth < 3 {
			t.Fatalf("depth %d: the path has no inner page below the root", depth)
		}
		pr := &pathReads{Pager: tr.pg, reads: map[uint64]int{}}
		tr.pg = pr
		for k := uint64(7); k <= 3000; k += 211 {
			clear(pr.reads)
			tr.Begin()
			if v, ok := tr.Get(k); !ok || !bytes.Equal(v, val(k, 300)) {
				t.Fatalf("arena=%v: Get(%d) = %d bytes, %v", arenaPager, k, len(v), ok)
			}
			if len(pr.reads) != depth || pr.total() != depth {
				t.Fatalf("arena=%v: Get(%d) read %d pages %d times, the path has %d", arenaPager, k, len(pr.reads), pr.total(), depth)
			}
			if err := tr.Put(k, val(k+1, 300)); err != nil {
				t.Fatal(err)
			}
			tr.Commit()
			if pr.total() != depth {
				t.Fatalf("arena=%v: the update of %d read %d pages more after its Get", arenaPager, k, pr.total()-depth)
			}
			if err := tr.Persist(); err != nil {
				t.Fatal(err)
			}
			if v, ok := tr.Get(k); !ok || !bytes.Equal(v, val(k+1, 300)) {
				t.Fatalf("arena=%v: after the update Get(%d) = %d bytes, %v", arenaPager, k, len(v), ok)
			}
		}
	}

	// One file-pager leaf, its values replaced in place, so every image has
	// the same length and the free list hands a freed page straight back:
	// the third root is the first one's page under the first one's id.
	_, _, tr := newFilePagerTree(t)
	for k := uint64(1); k <= 10; k++ {
		if err := tr.Put(k, val(k, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	pr := &pathReads{Pager: tr.pg, reads: map[uint64]int{}}
	tr.pg = pr
	first := tr.Root()
	tr.Get(1) // keeps the first root
	for k := uint64(1); k <= 2; k++ {
		if err := tr.Put(k, val(k+100, 16)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Persist(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Root() != first {
		t.Fatalf("the third root is page %#x, not the first root's %#x: the schedule rewrote no page under its id", tr.Root(), first)
	}
	clear(pr.reads)
	if err := tr.Put(3, val(103, 16)); err != nil {
		t.Fatal(err)
	}
	if pr.reads[first] != 1 {
		t.Fatalf("the update read the rewritten root %d times, want once", pr.reads[first])
	}
	for k := uint64(1); k <= 3; k++ {
		if v, _ := tr.Get(k); !bytes.Equal(v, val(k+100, 16)) {
			t.Fatalf("Get(%d) after the rewrite = %x, want %x", k, v, val(k+100, 16))
		}
	}
}
