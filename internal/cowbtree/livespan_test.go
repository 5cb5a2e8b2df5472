package cowbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// The kinds of page randomPage makes.
const (
	uniformLeaf = iota
	mixedLeaf
	innerPage
	pageKinds
)

// randomPage fills buf with a page of the given kind. Its keys ascend by
// random steps from a random start. Its values are often 8-byte pointers —
// 16-byte aligned and within a random distance of each other, as chunk
// addresses are, or, on a quarter of the pages, anything at all — and are
// otherwise random bytes: all one width on a uniform leaf, of any width on a
// mixed one, where pointers sit beside the empty values of secondary-index
// entries. A leaf has seen replacements and deletes, so its slot directory
// and value heap have moved independently and the heap holds dead values.
func randomPage(rng *rand.Rand, tr *Tree, buf []byte, kind int) {
	k, step := rng.Uint64()>>1, 64-rng.Intn(25)
	key := func() uint64 { k += 1 + rng.Uint64()>>step; return k }
	base, spread, align := rng.Uint64(), 64-1-rng.Intn(40), ^uint64(15)
	if rng.Intn(4) == 0 {
		spread, align = 0, ^uint64(0)
	}
	ptr := func() uint64 { return base + rng.Uint64()>>spread&align }
	if kind == innerPage {
		initPage(buf, false, len(buf))
		n := rng.Intn((len(buf) - pHdr) / innerEnt)
		for i := 0; i < n; i++ {
			setInner(buf, i, key(), ptr())
		}
		setCount(buf, n)
		return
	}
	pointers, w := rng.Intn(2) == 0, rng.Intn(200)
	val := func() []byte {
		switch {
		case pointers && kind == mixedLeaf && rng.Intn(3) == 0:
			return nil
		case pointers:
			return binary.LittleEndian.AppendUint64(nil, ptr())
		case kind == mixedLeaf:
			w = rng.Intn(400)
		}
		v := make([]byte, w)
		rng.Read(v)
		return v
	}
	initPage(buf, true, len(buf))
	for leafFree(buf) >= 2*leafSlot+800 && rng.Intn(60) != 0 {
		k := key()
		if rng.Intn(2) == 0 {
			tr.leafPlace(buf, count(buf), false, k, make([]byte, rng.Intn(400)))
			tr.leafPlace(buf, count(buf)-1, true, k, val()) // the replaced value stays in the heap
			continue
		}
		tr.leafPlace(buf, count(buf), false, k, val())
	}
	for c := count(buf); c > 0 && rng.Intn(2) == 0; c-- {
		setCount(buf, c-1) // what del leaves behind: the value stays in the heap
	}
}

// imageSize states the arena pager's page image afresh: what it moves for
// page buf, and which of its value columns the page gets. The header is 16
// bytes, 24 with a value base; then every entry has a key delta and a value
// column entry, each column as wide as its widest entry needs; a leaf that
// mixes value widths has its values after its column of lengths.
func imageSize(buf []byte) (kind string, size int) {
	n := count(buf)
	var keys, words []uint64
	lens := map[int]bool{}
	sum, longest := 0, 0
	for i := 0; i < n; i++ {
		if !isLeaf(buf) {
			keys, words = append(keys, innerKey(buf, i)), append(words, innerChild(buf, i))
			continue
		}
		v := leafVal(buf, i)
		keys, lens[len(v)], sum, longest = append(keys, leafKey(buf, i)), true, sum+len(v), max(longest, len(v))
		if len(v) == 8 {
			words = append(words, binary.LittleEndian.Uint64(v))
		}
	}
	kw := codeWidth(keys, false)
	switch {
	case !isLeaf(buf):
		return "inner", 24 + n*(kw+codeWidth(words, true))
	case len(lens) > 1:
		return "mixed", 16 + n*(kw+codeWidth([]uint64{0, uint64(longest)}, false)) + sum
	case lens[8]:
		return "pointers", 24 + n*(kw+codeWidth(words, true))
	}
	return "uniform", 16 + n*kw + sum
}

// codeWidth returns the bytes each entry of col takes as its distance from
// the column's least entry — shifted right past the low zero bits all the
// distances share, if shifted is set.
func codeWidth(col []uint64, shifted bool) int {
	if len(col) == 0 {
		return 0
	}
	lo := slices.Min(col)
	var hi, low uint64
	for _, v := range col {
		hi, low = max(hi, v-lo), low|(v-lo)
	}
	if shifted && low != 0 {
		hi >>= bits.TrailingZeros64(low)
	}
	return (bits.Len64(hi) + 7) / 8
}

// samePage reports whether two pages hold the same entries: the same keys
// and values of a leaf, the same keys and children of an inner page.
func samePage(a, b []byte) bool {
	if isLeaf(a) != isLeaf(b) || count(a) != count(b) {
		return false
	}
	for i := 0; i < count(a); i++ {
		if isLeaf(a) && (leafKey(a, i) != leafKey(b, i) || !bytes.Equal(leafVal(a, i), leafVal(b, i))) ||
			!isLeaf(a) && (innerKey(a, i) != innerKey(b, i) || innerChild(a, i) != innerChild(b, i)) {
			return false
		}
	}
	return true
}

// TestLiveSpans: a pager may move a page's entries alone, because the arena
// pager does and nothing in the tree can tell.
func TestLiveSpans(t *testing.T) {
	t.Run("round trip", liveSpansRoundTrip)
	t.Run("poisoned gap", poisonedGap)
}

// liveSpansRoundTrip: the arena pager moves every page — leaves of 8-byte
// pointers, of another single width, of mixed widths, and inner pages — as
// its image, header + n × (key width + value width) bytes, plus a mixed
// leaf's values, in a chunk sized to the image. A chunk over a line streams
// its lines whole, chunk header and padding included; a smaller one writes
// its header word and the image, or streams the fresh line it starts. Reads
// move the image's bytes exactly. What it moved is what comes back, from the
// controller's buffer and from the medium after a fence and a crash: the
// same entries.
func liveSpansRoundTrip(t *testing.T) {
	dev, arena, tr := newArenaPagerTree(t)
	pg := tr.pg.(*ArenaPager)
	rng := rand.New(rand.NewSource(*batchSeed))
	kinds := map[string]int{}
	small := 0
	var checks []func(when string)
	fewest := func() int { return min(kinds["uniform"], kinds["pointers"], kinds["mixed"], kinds["inner"]) }
	for small < 20 || fewest() < 50 {
		want := make([]byte, pg.PageSize())
		randomPage(rng, tr, want, rng.Intn(pageKinds))
		lo, hi := deadGap(want)
		for i := lo; i < hi; i++ {
			want[i] = byte(rng.Int()) // the gap may hold anything
		}
		kind, moved := imageSize(want)
		kinds[kind]++
		before, heap := dev.Stats().BytesWritten, arena.HeapBytes()
		id, err := pg.WritePage(want)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkStreamed(arena, id, moved, int(dev.Stats().BytesWritten-before), arena.HeapBytes()-heap); err != nil {
			t.Fatalf("page %d (%s, count %d): %v", id, kind, count(want), err)
		}
		if arena.SizeOf(id) < nvm.LineSize {
			small++
		}
		check := func(when string) {
			t.Helper()
			got := bytes.Repeat([]byte{0xA5}, len(want))
			before := dev.Stats().BytesRead
			pg.ReadPage(id, got)
			if !samePage(got, want) {
				t.Fatalf("%s: page %d (%s, count %d) came back with other entries", when, id, kind, count(want))
			}
			if n := int(dev.Stats().BytesRead - before); n != moved {
				t.Fatalf("%s: ReadPage of a %s page moved %d bytes, the image has %d", when, kind, n, moved)
			}
		}
		check("before the fence")
		checks = append(checks, check)
	}
	dev.Fence()
	dev.Crash()
	for _, check := range checks {
		check("after fence and crash")
	}
	if err := pg.Err(); err != nil {
		t.Fatal(err)
	}
}

// checkStreamed reports whether WritePage put an image of moved bytes in the
// chunk at id, the smallest that holds it, and wrote n bytes for it: the
// chunk's and the allocator's, exactly. A chunk of a line or more streams its
// lines whole, chunk header and padding included; a smaller one streams the
// fresh line it starts, or else writes its header word and the image. Carved
// from fresh memory — the heap grew by grown bytes — it adds the heap end's
// word, and a filler's header word where it left the rest of a line before
// itself. Carved from a free chunk it adds nothing: the callers' heaps hold no
// free chunk a page chunk would split.
func checkStreamed(arena *pmalloc.Arena, id uint64, moved, n int, grown int64) error {
	const line = nvm.LineSize
	off := int64(id) - pmalloc.HeaderSize
	want := pmalloc.HeaderSize + (max(moved, 16)+15)&^15
	switch {
	case want > line:
		want = (want + line - 1) &^ (line - 1)
	case (off+int64(want))%line == line-pmalloc.HeaderSize:
		want += pmalloc.HeaderSize // no chunk fits in the line's last 16 bytes
	}
	chunk := pmalloc.HeaderSize + arena.SizeOf(id)
	if chunk != want {
		return fmt.Errorf("a %d-byte image in a %d-byte chunk, want %d", moved, chunk, want)
	}
	own := 8 + moved
	switch {
	case chunk >= line:
		own = chunk
	case grown > 0 && off%line == 0:
		own = line
	}
	if grown > 0 {
		if own += 8; grown > int64(chunk) {
			own += 8
		}
	}
	if n != own {
		return fmt.Errorf("WritePage of a %d-byte image in a %d-byte chunk at line phase %d (heap grown %d) wrote %d bytes, want %d",
			moved, chunk, off%line, grown, n, own)
	}
	return nil
}

// deadGap returns the byte range [lo, hi) of a page that nothing interprets,
// from its header alone: the gap between a leaf's slot directory and its
// value heap, or everything past an inner page's entries. initPage and
// compactLeaf rebuild it and leafPlace only writes into it, so a pager need
// not move it. A header that describes no such gap yields an empty one.
func deadGap(buf []byte) (lo, hi int) {
	lo, hi = pHdr+count(buf)*innerEnt, len(buf)
	if isLeaf(buf) {
		lo, hi = pHdr+count(buf)*leafSlot, dataEnd(buf)
	}
	if lo > hi || hi > len(buf) {
		return len(buf), len(buf)
	}
	return lo, hi
}

// poisonPager overwrites the dead gap of every page image it returns, as a
// pager that does not move the gap is entitled to.
type poisonPager struct{ Pager }

func (p poisonPager) ReadPage(id uint64, buf []byte) {
	p.Pager.ReadPage(id, buf)
	lo, hi := deadGap(buf)
	for i := lo; i < hi; i++ {
		buf[i] = 0xA5
	}
}

// poisonedGap runs random puts, replacements, deletes, aborts and persists —
// values sized so leaves compact and split all the time — over both pagers
// behind a poisonPager, against a model: Get, Iter and Reachable must never
// interpret a gap byte.
func poisonedGap(t *testing.T) {
	for _, arenaPager := range []bool{false, true} {
		name := "file"
		tr := (*Tree)(nil)
		if arenaPager {
			name = "arena"
			_, _, tr = newArenaPagerTree(t)
		} else {
			_, _, tr = newFilePagerTree(t)
		}
		tr.pg = poisonPager{tr.pg}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(*batchSeed))
			committed := map[uint64][]byte{}
			steps := 6000
			if testing.Short() {
				steps = 2000
			}
			for i := 0; i < steps; i++ {
				working := cloneKV(committed)
				tr.Begin()
				for n := 1 + rng.Intn(3); n > 0; n-- {
					k := rng.Uint64()%500 + 1
					if _, ok := working[k]; ok && rng.Intn(4) == 0 {
						if err := tr.del(k); err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
						delete(working, k)
						continue
					}
					v := make([]byte, 1+rng.Intn(700))
					rng.Read(v)
					if err := tr.put(k, v); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					working[k] = v
				}
				if rng.Intn(5) == 0 {
					tr.Abort()
				} else {
					tr.Commit()
					committed = working
				}
				if rng.Intn(12) == 0 {
					if err := tr.Persist(); err != nil {
						t.Fatal(err)
					}
					if err := checkReachable(tr, committed); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				if i%50 == 0 {
					if err := checkTree(tr, committed); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				k := rng.Uint64()%500 + 1
				got, ok := tr.Get(k)
				if want, had := committed[k]; ok != had || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Get(%d) = (%d bytes,%v), model (%d bytes,%v)", i, k, len(got), ok, len(want), had)
				}
			}
			if tr.Depth() < 2 {
				t.Fatalf("the schedule never split a leaf (depth %d)", tr.Depth())
			}
		})
	}
}

// checkReachable compares the values a reachability walk of the persisted
// tree delivers with the model, as multisets of bytes.
func checkReachable(tr *Tree, model map[uint64][]byte) error {
	want := map[string]int{}
	for _, v := range model {
		want[string(v)]++
	}
	pages, vals := 0, 0
	tr.Reachable(func(uint64) { pages++ }, func(v []byte) {
		vals++
		want[string(v)]--
	})
	for _, n := range want {
		if n != 0 {
			return fmt.Errorf("reachable: walk over %d pages delivered %d values that are not the model's %d", pages, vals, len(model))
		}
	}
	return nil
}

// TestGetDoesNotAllocatePages: a lookup reads the pages on its path into
// buffers the tree owns, one per level; its one allocation is the value it
// returns.
func TestGetDoesNotAllocatePages(t *testing.T) {
	for _, arenaPager := range []bool{false, true} {
		tr := (*Tree)(nil)
		if arenaPager {
			_, _, tr = newArenaPagerTree(t)
		} else {
			_, _, tr = newFilePagerTree(t)
		}
		vals := make([][]byte, 3001)
		for k := uint64(1); k <= 3000; k++ {
			vals[k] = val(k, 100)
			if err := tr.Put(k, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Persist(); err != nil {
			t.Fatal(err)
		}
		if tr.Depth() < 2 {
			t.Fatalf("depth %d: the lookup path has no inner page", tr.Depth())
		}
		k := uint64(0)
		allocs := testing.AllocsPerRun(200, func() {
			k = k%3000 + 1
			if v, ok := tr.Get(k); !ok || !bytes.Equal(v, vals[k]) {
				t.Fatalf("Get(%d) = %d bytes, %v", k, len(v), ok)
			}
		})
		if allocs > 1 {
			t.Errorf("arena=%v: Get allocates %.1f objects per call, want the value alone", arenaPager, allocs)
		}
	}
}
