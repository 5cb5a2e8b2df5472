package cowbtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// fileImageBad states the file pager's checks afresh: whether a slot holding
// raw, read through an id whose length is n, must be refused — a length below
// the fixed header or above the page, an image the decoder's checks refuse
// (overruns), or one whose length is not n.
func fileImageBad(raw []byte, n, psize int) bool {
	if n < imgFixed || n > psize {
		return true
	}
	img := make([]byte, psize) // the bytes past n are never read
	copy(img, raw[:n])
	size, bad := overruns(img, psize)
	return bad || size != n
}

// FuzzFilePageImage: whatever a page's slot of the file holds, and whatever
// length its id carries, ReadPage neither panics nor returns a page the tree
// can index out of, records an error exactly when the file pager's checks
// refuse the image, and the next Persist then refuses to commit; and every
// kind of page the tree makes — leaves with replaced and deleted values,
// compacted or not, and inner pages — comes back from the file pager with the
// same entries under an id that carries its column image's length, having
// been written as that image padded to whole lines. An id whose length is
// short, oversized or not the image's ends in a refused Persist.
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

	// Images: an empty leaf; a leaf of three mixed values (key deltas 0, 1,
	// 2; lengths 8, 0, 3); an inner page of one child; an inner page whose
	// count overruns the page; a zeroed slot, whose flags name no page.
	emptyLeaf := []byte{imgLeaf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	mixed := []byte("\x05\x01\x03\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x02\x08\x00\x03AAAAAAAAxyz")
	inner := binary.LittleEndian.AppendUint64([]byte{imgFOR, 0, 1, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0}, 1|64<<idLenShift)
	f.Add(emptyLeaf, uint16(len(emptyLeaf)), uint8(uniformLeaf), int64(1))
	f.Add(mixed, uint16(len(mixed)), uint8(mixedLeaf), int64(2))
	f.Add(mixed, uint16(len(mixed)-1), uint8(mixedLeaf|4), int64(3))
	f.Add(mixed, uint16(len(mixed)+1), uint8(uniformLeaf|4), int64(4))
	f.Add(inner, uint16(len(inner)), uint8(innerPage), int64(5))
	f.Add([]byte{imgFOR, 8, 0xff, 0xff, 8}, uint16(psize), uint8(innerPage), int64(6))
	f.Add([]byte(nil), uint16(imgFixed+8), uint8(mixedLeaf), int64(7))
	f.Add(emptyLeaf, uint16(imgFixed-1), uint8(uniformLeaf), int64(8))
	f.Add(emptyLeaf, uint16(psize+1), uint8(innerPage), int64(9))
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
			t.Fatalf("header %x through a %d-byte id: refused %v, pager recorded %v", slot[:imgFixed], n, bad, pg.Err())
		}
		if err := indexable(buf); err != nil {
			t.Fatalf("header %x through a %d-byte id decoded into a page the tree indexes out of: %v", slot[:imgFixed], n, err)
		}
		for i := 0; i < count(buf); i++ {
			if isLeaf(buf) {
				leafVal(buf, i) // panics on a value outside the page
			} else {
				innerChild(buf, i)
			}
		}
		if bad && pg.Persist(pg.root, pg.meta) == nil {
			t.Fatalf("header %x through a %d-byte id: Persist committed over a refused image", slot[:imgFixed], n)
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
		_, size := imageSize(want)
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
		mismatch := imgFixed + rng.Intn(psize-imgFixed+1)
		if mismatch == size {
			mismatch = size + 1
		}
		for _, n := range []int{rng.Intn(imgFixed), psize + 1 + rng.Intn(psize), mismatch} {
			pg.ReadPage(id&pageMask|uint64(n)<<idLenShift, got)
			if pg.Persist(pg.root, pg.meta) == nil {
				t.Fatalf("a %d-byte image read through a %d-byte id: Persist committed", size, n)
			}
		}
		pg.FreePage(id)
	})
}

// TestFilePagerColdReadCost: a ReadPage of a page none of whose lines is
// cached loads exactly the lines of its column image and charges one
// filesystem call that copies the image's bytes — on a slot the file grew by
// and on a recycled one.
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
		_, n := imageSize(want)
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

// TestInnerImageSameOnBothPagers: the same puts make the same inner root on
// either pager, and both store it as the same bytes — flags, key width,
// count, key base and key column — but for the child-id framing: a file
// page's child is pageNo | len<<idLenShift, an arena page's a chunk address,
// so the value column's width, shift and base and its codes differ, and each
// pager's column decodes to the children its own tree names.
func TestInnerImageSameOnBothPagers(t *testing.T) {
	var imgs [2][]byte
	for i, arenaPager := range []bool{false, true} {
		var tr *Tree
		var raw func(id uint64, n int) []byte
		if arenaPager {
			dev, _, atr := newArenaPagerTree(t)
			tr = atr
			raw = func(id uint64, n int) []byte {
				b := make([]byte, n)
				dev.Read(int64(id), b)
				return b
			}
		} else {
			_, fs, ftr := newFilePagerTree(t)
			tr = ftr
			raw = func(id uint64, n int) []byte {
				if int(id>>idLenShift) != n {
					t.Fatalf("the file root's id carries %d bytes, its image has %d", id>>idLenShift, n)
				}
				f, err := fs.OpenFile("cow.db")
				if err != nil {
					t.Fatal(err)
				}
				b := make([]byte, n)
				if _, err := f.ReadAt(b, ftr.pg.(*FilePager).PageOffset(id)); err != nil {
					t.Fatal(err)
				}
				return b
			}
		}
		for k := uint64(1); k <= 3000; k++ {
			if err := tr.Put(k*7, val(k, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Persist(); err != nil {
			t.Fatal(err)
		}
		root := tr.page(tr.Root())
		if isLeaf(root) || count(root) < 2 {
			t.Fatalf("arena=%v: the root is no inner page of several children", arenaPager)
		}
		_, size := imageSize(root)
		img := raw(tr.Root(), size)
		n, kw, vw := count(root), int(img[1]), int(binary.LittleEndian.Uint16(img[4:]))
		if img[0] != imgFOR || size != imgHead(imgFOR)+n*(kw+vw) {
			t.Fatalf("arena=%v: an inner root of %d entries stored as flags %#x, %d-byte deltas and %d-byte codes in %d bytes",
				arenaPager, n, img[0], kw, vw, size)
		}
		codes := append(img[imgHead(imgFOR)+n*kw:], make([]byte, 8)...)
		col := newColumn(codes, vw, binary.LittleEndian.Uint64(img[imgFixed+8:]), int(img[6]))
		for j := 0; j < n; j++ {
			if c := col.at(j); c != innerChild(root, j) {
				t.Fatalf("arena=%v: child %d decodes to %#x, the tree names %#x", arenaPager, j, c, innerChild(root, j))
			}
		}
		imgs[i] = img
	}
	file, arena := imgs[0], imgs[1]
	if len(file) < imgHead(imgFOR) || len(arena) < imgHead(imgFOR) {
		t.Fatal("an image shorter than its header")
	}
	n, kw := int(binary.LittleEndian.Uint16(file[2:])), int(file[1])
	same := func(lo, hi int) bool { return bytes.Equal(file[lo:hi], arena[lo:hi]) }
	if !same(0, 4) || !same(imgFixed, imgFixed+8) || file[7] != 0 || arena[7] != 0 ||
		!same(imgHead(imgFOR), imgHead(imgFOR)+n*kw) {
		t.Fatalf("the inner root's image differs outside its child ids:\nfile  %x\narena %x", file[:imgHead(imgFOR)+n*kw], arena[:min(len(arena), imgHead(imgFOR)+n*kw)])
	}
}

// TestEveryLeafFitsItsImage: on either pager, a put the tree takes persists.
// A leaf of two or three values of mixed widths, keys 2^61 apart, filled to
// within a few bytes of its page, has an image up to 4 bytes larger than the
// page (imgSlack): the tree splits such a leaf, or refuses the put that would
// make it, instead of leaving it to a Persist that cannot write it.
func TestEveryLeafFitsItsImage(t *testing.T) {
	for _, arenaPager := range []bool{false, true} {
		for n := 2; n <= 3; n++ {
			for gap := 0; gap <= 8; gap++ {
				tr := newPagerTree(t, arenaPager)
				total := tr.psize - pHdr - n*leafSlot - gap // the values' bytes
				want := map[uint64][]byte{}
				for i := 0; i < n; i++ {
					size := total/n - i
					if i == n-1 {
						size = total - (total/n)*(n-1) + (n-1)*n/2 - i
					}
					k, v := uint64(i)<<61, val(uint64(i), size)
					err := tr.Put(k, v)
					if errors.Is(err, ErrValueTooLarge) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					want[k] = v
				}
				if err := tr.Persist(); err != nil {
					t.Fatalf("arena=%v, %d values in %d bytes: %d puts taken, Persist: %v", arenaPager, n, total, len(want), err)
				}
				for k, v := range want {
					if got, ok := tr.Get(k); !ok || !bytes.Equal(got, v) {
						t.Fatalf("arena=%v: key %#x lost", arenaPager, k)
					}
				}
			}
		}
	}
}

// newPagerTree returns an empty tree of 4 KB pages on a 1 MB device, over the
// arena pager or the file pager.
func newPagerTree(t *testing.T, arenaPager bool) *Tree {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	var pg Pager
	var err error
	if arenaPager {
		pg, err = CreateArenaPager(pmalloc.Format(dev, 0, 1<<20), 0, 4096)
	} else {
		pg, err = CreateFilePager(pmfs.Format(dev, 0, 1<<20, pmfs.Config{ExtentSize: 64 << 10}), "cow.db", 4096)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOneEntryLeafSplits: on either pager, a value within maxValue is taken
// beside a leaf's one other value however large the two are together. Two
// values of 2 100 bytes under adjacent keys, and a third below them, each get
// a leaf of their own on their side of the separator; a one-entry leaf's value
// grown to maxValue replaces the old one in its leaf. Every put is persisted
// and read back. A one-entry leaf once refused to split ("split of 1-entry
// leaf") and the put failed with ErrValueTooLarge.
func TestOneEntryLeafSplits(t *testing.T) {
	for _, arenaPager := range []bool{false, true} {
		tr := newPagerTree(t, arenaPager)
		want := map[uint64][]byte{}
		put := func(k uint64, v []byte) {
			t.Helper()
			if err := tr.Put(k, v); err != nil {
				t.Fatalf("arena=%v: put of %d bytes at key %d: %v", arenaPager, len(v), k, err)
			}
			want[k] = v
		}
		put(1000, val(1, 2100))
		put(1001, val(2, 2100))
		put(999, val(3, 2100))
		put(5, val(4, 100))
		put(5, val(5, tr.maxValue()))
		put(5, val(6, tr.maxValue()-1))
		if err := tr.Persist(); err != nil {
			t.Fatalf("arena=%v: Persist: %v", arenaPager, err)
		}
		for k, v := range want {
			if got, ok := tr.GetCommitted(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("arena=%v: key %d lost or changed after Persist", arenaPager, k)
			}
		}
		if n := tr.Count(); n != len(want) {
			t.Fatalf("arena=%v: the tree holds %d keys, want %d", arenaPager, n, len(want))
		}
	}
}
