package cowbtree

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// batchSeed replays one failing sequence: go test -run BatchProperty -seed=N
var batchSeed = flag.Int64("seed", 1, "base seed for the batch property-test sequences")

// batchOp is one step of a group-commit workload on the tree.
type batchOp struct {
	kind byte // 'p' put, 'd' delete, 'c' commit, 'a' abort, 'P' persist, 'X' crash + reopen
	k    uint64
	v    []byte
}

func (o batchOp) String() string {
	switch o.kind {
	case 'p':
		return fmt.Sprintf("Put(%d,%dB)", o.k, len(o.v))
	case 'd':
		return fmt.Sprintf("Delete(%d)", o.k)
	case 'c':
		return "Commit"
	case 'a':
		return "Abort"
	case 'P':
		return "Persist"
	default:
		return "Crash"
	}
}

// genBatch draws a sequence over a key space small enough that most
// transactions of a batch land on the same leaf (the page a batch shadows
// once and then changes in place), with values large enough that leaves
// still split inside a batch. Crashes come both straight after a Persist and
// in the middle of a batch.
func genBatch(rng *rand.Rand, n int) []batchOp {
	keyspace := uint64(8 + rng.Intn(120))
	ops := make([]batchOp, 0, n)
	for len(ops) < n {
		k := rng.Uint64()%keyspace + 1
		switch r := rng.Intn(100); {
		case r < 45:
			v := make([]byte, 8+rng.Intn(300))
			rng.Read(v)
			ops = append(ops, batchOp{kind: 'p', k: k, v: v})
		case r < 55:
			ops = append(ops, batchOp{kind: 'd', k: k})
		case r < 75:
			ops = append(ops, batchOp{kind: 'c'})
		case r < 87:
			ops = append(ops, batchOp{kind: 'a'})
		case r < 95:
			ops = append(ops, batchOp{kind: 'P'})
			if rng.Intn(3) == 0 {
				ops = append(ops, batchOp{kind: 'X'})
			}
		default:
			ops = append(ops, batchOp{kind: 'X'})
		}
	}
	return ops
}

// countingPager checks what the tree asks of its pager while a group-commit
// batch is open: no page is read by a provisional id, nothing is written
// before Persist, and Persist writes each page of the tree's batch exactly
// once, each under an id of its own.
type countingPager struct {
	Pager
	tree   *Tree          // once it exists: its batch is what Persist must write
	writes map[uint64]int // WritePage ids since the last Persist
	err    error          // first violation
}

func newCountingPager(pg Pager) *countingPager {
	return &countingPager{Pager: pg, writes: map[uint64]int{}}
}

func (c *countingPager) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *countingPager) ReadPage(id uint64, buf []byte) {
	if id&provisional != 0 {
		c.fail("ReadPage of page %#x, a provisional id of the open batch", id)
	}
	c.Pager.ReadPage(id, buf)
}

func (c *countingPager) WritePage(buf []byte) (uint64, error) {
	id, err := c.Pager.WritePage(buf)
	if err == nil {
		c.writes[id]++
	}
	return id, err
}

func (c *countingPager) Persist(root, meta uint64) error {
	for id, n := range c.writes {
		if n != 1 {
			c.fail("Persist wrote %d pages under id %d", n, id)
		}
	}
	if c.tree != nil && len(c.writes) != len(c.tree.batch) {
		c.fail("Persist wrote %d pages, the batch holds %d", len(c.writes), len(c.tree.batch))
	}
	clear(c.writes)
	return c.Pager.Persist(root, meta)
}

// quiet reports a violation so far, or a page written outside Persist.
func (c *countingPager) quiet() error {
	if c.err == nil && len(c.writes) > 0 {
		c.fail("%d pages written before Persist", len(c.writes))
	}
	return c.err
}

// batchHarness owns one tree and the way to bring it back after a crash.
type batchHarness struct {
	dev    *nvm.Device
	tree   *Tree
	pager  *countingPager
	reopen func() (*Tree, error)
}

func newBatchHarness(arenaPager bool) (*batchHarness, error) {
	const size = 64 << 20
	h := &batchHarness{dev: nvm.NewDevice(nvm.DefaultConfig(size))}
	if !arenaPager {
		fs := pmfs.Format(h.dev, 0, size, pmfs.Config{ExtentSize: 256 << 10})
		pg, err := CreateFilePager(fs, "cow.db", 4096)
		if err != nil {
			return nil, err
		}
		h.reopen = func() (*Tree, error) {
			pg, err := OpenFilePager(fs, "cow.db", 4096)
			if err != nil {
				return nil, err
			}
			h.pager = newCountingPager(pg)
			tr := Attach(h.pager)
			h.pager.tree = tr
			used := map[uint64]bool{}
			tr.Reachable(func(id uint64) { used[id] = true }, nil)
			pg.InitFree(used)
			return tr, nil
		}
		h.pager = newCountingPager(pg)
		h.tree, err = Create(h.pager)
		h.pager.tree = h.tree
		return h, err
	}
	arena := pmalloc.Format(h.dev, 0, size)
	pg, err := CreateArenaPager(arena, 0, 4096)
	if err != nil {
		return nil, err
	}
	h.reopen = func() (*Tree, error) {
		arena, err := pmalloc.Open(h.dev, 0)
		if err != nil {
			return nil, err
		}
		pg, err := OpenArenaPager(arena, 0, 4096)
		if err != nil {
			return nil, err
		}
		h.pager = newCountingPager(pg)
		tr := Attach(h.pager)
		h.pager.tree = tr
		// The owner's sweep: persisted page chunks the master record does
		// not reach are the lost dirty directory.
		reach := map[uint64]bool{}
		tr.Reachable(func(id uint64) { reach[id] = true }, nil)
		var orphans []pmalloc.Ptr
		arena.Chunks(func(p pmalloc.Ptr, _ int, tag pmalloc.Tag, st pmalloc.State) {
			if tag == pmalloc.TagTable && st == pmalloc.StatePersisted && !reach[p] {
				orphans = append(orphans, p)
			}
		})
		for _, p := range orphans {
			arena.Free(p)
		}
		// No leak: what is left is the master block plus the reachable pages.
		want := int64(arena.SizeOf(arena.Root(0)))
		for id := range reach {
			want += int64(arena.SizeOf(id))
		}
		if got := arena.Allocated(); got != want {
			return nil, fmt.Errorf("after crash + sweep the arena holds %d bytes, reachable set is %d", got, want)
		}
		return tr, nil
	}
	h.pager = newCountingPager(pg)
	h.tree, err = Create(h.pager)
	h.pager.tree = h.tree
	return h, err
}

func cloneKV(m map[uint64][]byte) map[uint64][]byte {
	out := make(map[uint64][]byte, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkTree compares a full scan with the model.
func checkTree(tr *Tree, model map[uint64][]byte) error {
	n := 0
	var err error
	tr.Iter(0, func(k uint64, v []byte) bool {
		n++
		if want, ok := model[k]; !ok || !bytes.Equal(v, want) {
			err = fmt.Errorf("scan: key %d = %d bytes, model has (%d bytes, present=%v)", k, len(v), len(want), ok)
			return false
		}
		return true
	})
	if err == nil && n != len(model) {
		err = fmt.Errorf("scan found %d keys, model has %d", n, len(model))
	}
	return err
}

// runBatch replays ops against three models: the open transaction's view,
// the batch as of the last Commit, and the tree as of the last Persist. An
// Abort must return to the second, a crash to the third — whether the crash
// comes straight after a Persist or with a half-built batch behind it. After
// every step the counting pager must have seen the batch stay in its buffers.
func runBatch(ops []batchOp, arenaPager bool) error {
	h, err := newBatchHarness(arenaPager)
	if err != nil {
		return err
	}
	persisted := map[uint64][]byte{}
	committed := map[uint64][]byte{}
	working := map[uint64][]byte{}
	inTxn := false
	begin := func() {
		if !inTxn {
			h.tree.Begin()
			inTxn = true
		}
	}
	for i, o := range ops {
		switch o.kind {
		case 'p':
			begin()
			if err := h.tree.Put(o.k, o.v); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			working[o.k] = o.v
		case 'd':
			begin()
			_, had := working[o.k]
			ok, err := h.tree.Delete(o.k)
			if err != nil || ok != had {
				return fmt.Errorf("op %d %v: Delete = %v, %v; model had=%v", i, o, ok, err, had)
			}
			delete(working, o.k)
		case 'c':
			begin()
			h.tree.Commit()
			inTxn = false
			committed = cloneKV(working)
		case 'a':
			begin()
			h.tree.Abort()
			inTxn = false
			working = cloneKV(committed)
		case 'P':
			if inTxn {
				h.tree.Commit()
				inTxn = false
				committed = cloneKV(working)
			}
			if err := h.tree.Persist(); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			persisted = cloneKV(committed)
		case 'X':
			h.dev.Crash()
			tr, err := h.reopen()
			if err != nil {
				return fmt.Errorf("op %d %v: reopen: %w", i, o, err)
			}
			h.tree, inTxn = tr, false
			committed, working = cloneKV(persisted), cloneKV(persisted)
		}
		if err := h.pager.quiet(); err != nil {
			return fmt.Errorf("op %d %v: %w", i, o, err)
		}
		if o.kind == 'p' || o.kind == 'd' {
			got, ok := h.tree.Get(o.k)
			if want, had := working[o.k]; ok != had || !bytes.Equal(got, want) {
				return fmt.Errorf("op %d %v: Get = (%d bytes,%v), model (%d bytes,%v)", i, o, len(got), ok, len(want), had)
			}
			continue
		}
		if err := checkTree(h.tree, working); err != nil {
			return fmt.Errorf("op %d %v: %w", i, o, err)
		}
	}
	return nil
}

// shrinkBatch greedily removes chunks of the failing sequence while the
// failure reproduces, replaying each candidate on a fresh tree (ddmin-style,
// as nvbtree's and btree's property tests do).
func shrinkBatch(ops []batchOp, arenaPager bool) []batchOp {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= len(ops); {
			cand := append(append([]batchOp(nil), ops[:lo]...), ops[lo+chunk:]...)
			if runBatch(cand, arenaPager) != nil {
				ops = cand
			} else {
				lo += chunk
			}
		}
	}
	return ops
}

// TestBatchProperty drives seeded sequences of commits and aborts that touch
// the same leaf inside one group-commit batch, with crashes before and after
// Persist, on both pagers. A failure is shrunk to a minimal op list and
// reported with its replay seed.
func TestBatchProperty(t *testing.T) {
	seqs, opsPer := 40, 400
	if testing.Short() {
		seqs, opsPer = 8, 250
	}
	for _, arenaPager := range []bool{false, true} {
		arenaPager := arenaPager
		name := "file"
		if arenaPager {
			name = "arena"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < seqs; s++ {
				seed := *batchSeed + int64(s)
				ops := genBatch(rand.New(rand.NewSource(seed)), opsPer)
				if err := runBatch(ops, arenaPager); err != nil {
					min := shrinkBatch(ops, arenaPager)
					t.Fatalf("seed %d (replay: go test -run BatchProperty -seed=%d): %v\nminimal sequence (%d ops of %d): %v\nshrunk failure: %v",
						seed, seed, err, len(min), len(ops), min, runBatch(min, arenaPager))
				}
			}
		})
	}
}

// TestBatchShadowsAPageOnce pins the rule itself: the second transaction of
// a batch that changes the same leaf allocates nothing, and its abort leaves
// the first transaction's image in force.
func TestBatchShadowsAPageOnce(t *testing.T) {
	_, arena, tr := newArenaPagerTree(t)
	tr.Put(1, []byte("persisted"))
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	tr.Begin()
	tr.Put(1, []byte("first in batch"))
	tr.Commit()
	root, held := tr.Root(), arena.Allocated()

	tr.Begin()
	tr.Put(1, []byte("second in batch"))
	tr.Commit()
	if tr.Root() != root || arena.Allocated() != held {
		t.Fatalf("second txn of the batch re-copied the page: root %d -> %d, allocated %d -> %d",
			root, tr.Root(), held, arena.Allocated())
	}

	tr.Begin()
	tr.Put(1, []byte("doomed"))
	tr.Abort()
	if v, _ := tr.Get(1); string(v) != "second in batch" {
		t.Fatalf("abort inside the batch left %q", v)
	}
	if v, _ := tr.GetCommitted(1); string(v) != "persisted" {
		t.Fatalf("batch changed the committed tree: %q", v)
	}
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.GetCommitted(1); string(v) != "second in batch" {
		t.Fatalf("after persist: %q", v)
	}
}
