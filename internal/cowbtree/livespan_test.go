package cowbtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/nvm"
)

// randomPage fills buf with a leaf that has seen inserts, replacements and
// deletes (so its slot directory and value heap have moved independently), or
// with an inner page of random fan-out.
func randomPage(rng *rand.Rand, tr *Tree, buf []byte) {
	if rng.Intn(3) == 0 {
		initPage(buf, false, len(buf))
		n := rng.Intn((len(buf) - pHdr) / innerEnt)
		for i := 0; i < n; i++ {
			setInner(buf, i, rng.Uint64(), rng.Uint64())
		}
		setCount(buf, n)
		return
	}
	initPage(buf, true, len(buf))
	for k := uint64(1); ; k++ {
		v := make([]byte, rng.Intn(400))
		rng.Read(v)
		if leafFree(buf) < leafSlot+len(v) || rng.Intn(40) == 0 {
			break
		}
		tr.leafPlace(buf, count(buf), false, k, v)
	}
	for c := count(buf); c > 0 && rng.Intn(2) == 0; c-- {
		setCount(buf, c-1) // what del leaves behind: the value stays in the heap
	}
}

// TestLiveSpans: a pager may move a page's live bytes alone, because the
// arena pager does and nothing in the tree can tell.
func TestLiveSpans(t *testing.T) {
	t.Run("round trip", liveSpansRoundTrip)
	t.Run("poisoned gap", poisonedGap)
}

// uniformPage fills buf with a leaf whose values all have one random width,
// after replacements and deletes left values of other widths dead in its heap.
func uniformPage(rng *rand.Rand, tr *Tree, buf []byte) {
	initPage(buf, true, len(buf))
	w := rng.Intn(200)
	if rng.Intn(4) == 0 {
		w = 8 // an NVM-CoW primary entry: a tuple pointer
	}
	for k := uint64(1); leafFree(buf) >= 2*leafSlot+w+400 && rng.Intn(60) != 0; k++ {
		dead := make([]byte, rng.Intn(400))
		tr.leafPlace(buf, count(buf), false, k, dead)
		v := make([]byte, w)
		rng.Read(v)
		tr.leafPlace(buf, count(buf)-1, true, k, v) // the replaced value stays in the heap
	}
	for c := count(buf); c > 0 && rng.Intn(2) == 0; c-- {
		setCount(buf, c-1)
	}
}

// sameEntries reports whether two leaves hold the same keys and values.
func sameEntries(a, b []byte) bool {
	if !isLeaf(a) || !isLeaf(b) || count(a) != count(b) {
		return false
	}
	for i := 0; i < count(a); i++ {
		if leafKey(a, i) != leafKey(b, i) || !bytes.Equal(leafVal(a, i), leafVal(b, i)) {
			return false
		}
	}
	return true
}

// liveSpansRoundTrip: wherever the page chunk sits relative to the device's
// cache lines, the arena pager moves a leaf of one value width as its
// entries alone, 8 + n × (8 + w) bytes each way, and any other page as its
// header, entries and value heap and nothing else. What it moved is what
// comes back — from the controller's buffer, and from the medium after a
// fence and a crash: the same bytes of a slotted page, the same entries of a
// packed one.
func liveSpansRoundTrip(t *testing.T) {
	dev, _, tr := newArenaPagerTree(t)
	pg := tr.pg.(*ArenaPager)
	rng := rand.New(rand.NewSource(*batchSeed))
	phases := map[uint64]int{}
	images := map[bool]int{}
	var checks []func(when string)
	for len(phases) < 4 || phases[0] < 50 || images[true] < 50 || images[false] < 50 {
		id, err := pg.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		phases[id%nvm.LineSize]++
		want := make([]byte, pg.PageSize())
		if rng.Intn(2) == 0 {
			uniformPage(rng, tr, want)
		} else {
			randomPage(rng, tr, want)
		}
		lo, hi := deadGap(want)
		for i := lo; i < hi; i++ {
			want[i] = byte(rng.Int()) // the gap may hold anything
		}
		_, packed := packLeaf(nil, want)
		images[packed]++
		moved := lo + len(want) - hi // the live span
		if packed {
			moved = pHdr
			if n := count(want); n > 0 {
				moved += n * (8 + len(leafVal(want, 0)))
			}
		}
		before := dev.Stats().BytesWritten
		pg.WritePage(id, want)
		n := int(dev.Stats().BytesWritten - before)
		if packed && n != moved || !packed && (n < moved || n >= moved+2*nvm.LineSize) {
			t.Fatalf("page %d (packed=%v, count %d): WritePage moved %d bytes, the image has %d", id, packed, count(want), n, moved)
		}
		check := func(when string) {
			t.Helper()
			got := bytes.Repeat([]byte{0xA5}, len(want))
			before := dev.Stats().BytesRead
			pg.ReadPage(id, got)
			if packed && !sameEntries(got, want) ||
				!packed && (!bytes.Equal(got[:lo], want[:lo]) || !bytes.Equal(got[hi:], want[hi:])) {
				t.Fatalf("%s: page %d (phase %d, packed=%v, leaf=%v, count %d, gap [%d,%d)) came back different on live bytes",
					when, id, id%nvm.LineSize, packed, isLeaf(want), count(want), lo, hi)
			}
			if n := int(dev.Stats().BytesRead - before); n != moved {
				t.Fatalf("%s: ReadPage moved %d bytes, the image has %d", when, n, moved)
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
	for _, ph := range []uint64{0, 16, 32, 48} {
		if phases[ph] == 0 {
			t.Fatalf("no page chunk at phase %d: %v", ph, phases)
		}
	}
	if err := pg.Err(); err != nil {
		t.Fatal(err)
	}
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

// TestGetDoesNotAllocatePages: a lookup reads the pages on its path into a
// buffer the tree owns; its one allocation is the value it returns.
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
