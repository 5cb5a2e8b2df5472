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

// liveSpansRoundTrip: the arena pager moves a page's header, entries and
// value heap and nothing else, wherever the page chunk sits relative to the
// device's cache lines, and what it moved is what comes back — from the
// controller's buffer, and from the medium after a fence and a crash.
func liveSpansRoundTrip(t *testing.T) {
	dev, _, tr := newArenaPagerTree(t)
	pg := tr.pg.(*ArenaPager)
	rng := rand.New(rand.NewSource(*batchSeed))
	phases := map[uint64]int{}
	var checks []func(when string)
	for len(phases) < 4 || phases[0] < 50 {
		id, err := pg.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		phases[id%nvm.LineSize]++
		want := make([]byte, pg.PageSize())
		randomPage(rng, tr, want)
		lo, hi := deadGap(want)
		for i := lo; i < hi; i++ {
			want[i] = byte(rng.Int()) // the gap may hold anything
		}
		pg.WritePage(id, want)
		check := func(when string) {
			t.Helper()
			got := bytes.Repeat([]byte{0xA5}, len(want))
			before := dev.Stats().BytesRead
			pg.ReadPage(id, got)
			if !bytes.Equal(got[:lo], want[:lo]) || !bytes.Equal(got[hi:], want[hi:]) {
				t.Fatalf("%s: page %d (phase %d, leaf=%v, count %d, gap [%d,%d)) came back different on live bytes",
					when, id, id%nvm.LineSize, isLeaf(want), count(want), lo, hi)
			}
			if n := int(dev.Stats().BytesRead - before); n != lo+len(want)-hi {
				t.Fatalf("%s: ReadPage moved %d bytes, the page has %d live", when, n, lo+len(want)-hi)
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
