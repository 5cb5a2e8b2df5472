package logeng

import (
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/engine/lsm"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// adoptSchema's column b holds the adoption tests' 16 KB images.
func adoptSchema() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TString, Size: 16 << 10},
		},
	}}
}

// adoptOpts rotate every 8 keys and merge at growth factor 2, so a few
// rotations build runs of 8, 16, 24 and 40 keys: sets that reach the oldest
// run and sets that stop above it.
var adoptOpts = core.Options{MemTableCap: 8, LSMGrowth: 2, BTreeNodeSize: 128}

// adoptSizes are the lengths of column b the adoption tests give every even
// key (odd keys get 40 bytes). Images of either size sit inline in their
// entry chunk, so a merge that copied values would show as bytes written
// in proportion to them.
var adoptSizes = []int{1 << 10, 16 << 10}

// adoptLen is the length of column b for key k when large images are size.
func adoptLen(k uint64, size int) int {
	if k%2 == 0 {
		return size
	}
	return 40
}

// adoptStep is one step of a fixed schedule: a single-operation transaction.
type adoptStep struct {
	kind byte // 'i' insert, 'u' update column a, 'd' delete
	key  uint64
	n    int // insert: length of column b
}

func applyAdoptStep(e *Engine, st adoptStep) error {
	if err := e.Begin(); err != nil {
		return err
	}
	var err error
	switch st.kind {
	case 'i':
		err = e.Insert("t", st.key, bigRow(int64(st.key), st.n))
	case 'u':
		err = e.Update("t", st.key, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(int64(st.key) * 7)}})
	case 'd':
		err = e.Delete("t", st.key)
	}
	if err != nil {
		return err
	}
	return e.Commit()
}

// adoptModel is the table after the first n steps: key -> (a, len(b)).
func adoptModel(steps []adoptStep, n int) map[uint64][2]int64 {
	m := map[uint64][2]int64{}
	for _, st := range steps[:n] {
		switch st.kind {
		case 'i':
			m[st.key] = [2]int64{int64(st.key) * 2, int64(st.n)}
		case 'u':
			m[st.key] = [2]int64{int64(st.key) * 7, m[st.key][1]}
		case 'd':
			delete(m, st.key)
		}
	}
	return m
}

func checkAdoptModel(e *Engine, m map[uint64][2]int64) error {
	n := 0
	var bad error
	err := e.ScanRange("t", 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
		n++
		want, ok := m[pk]
		if !ok || row[1].I != want[0] || int64(len(row[2].S)) != want[1] {
			bad = fmt.Errorf("key %d = (a=%d, len(b)=%d), model has (%v, present=%v)", pk, row[1].I, len(row[2].S), want, ok)
			return false
		}
		return true
	})
	if err == nil {
		err = bad
	}
	if err == nil && n != len(m) {
		err = fmt.Errorf("scan found %d rows, model has %d", n, len(m))
	}
	return err
}

// checkTags: every value in the MemTable and the runs is an aligned chunk
// pointer carrying the kind its chunk records — through rotation, adoption,
// merge and recovery the tag and the chunk never part ways.
func checkTags(e *Engine) error {
	var err error
	check := func(where string, t *nvbtree.Tree) {
		t.Iter(0, func(k, v uint64) bool {
			var head [1]byte
			e.Env.Dev.Read(int64(chunkOf(v)), head[:])
			if kind := tagKind(v); kind < lsm.KindFull || kind > lsm.KindTomb || head[0] != kind {
				err = fmt.Errorf("%s: key %d: pointer %#x is tagged %d, its chunk records kind %d", where, core.TreePK(k), v, kind, head[0])
			}
			return err == nil
		})
	}
	check("MemTable", e.nvm().mem)
	for i, r := range e.nvm().runs {
		check(fmt.Sprintf("run %d", i), r.tree)
	}
	return err
}

// checkArenaMatchesReach: what the engine header reaches — its trees' values
// with the kind tags stripped — and what the allocator holds must be the same
// set, and every tag must be right (checkTags). A reachable chunk that is free was
// released while a live tree still pointed at it (the double-free side of
// chunk adoption); a persisted chunk nobody reaches is a leak.
func checkArenaMatchesReach(e *Engine) error {
	reach, _ := e.nvm().reachable()
	err := checkTags(e)
	held := int64(0)
	e.Env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
		switch {
		case st == pmalloc.StateFree:
			if reach[p] && err == nil {
				err = fmt.Errorf("reachable chunk %d (%s, %d B) is free", p, pmalloc.TagNames[tag], size)
			}
			return
		case !reach[p] && err == nil:
			err = fmt.Errorf("leaked chunk %d (%s, %d B, state %d)", p, pmalloc.TagNames[tag], size, st)
		}
		held += int64(size)
	})
	if err == nil && held != e.Env.Arena.Allocated() {
		err = fmt.Errorf("arena accounts %d bytes, its chunks add up to %d", e.Env.Arena.Allocated(), held)
	}
	return err
}

// TestAdoptCarriesChunksForward: merges over runs with disjoint keys rewrite
// no entry chunk, whatever the image size — every entry is adopted by pointer,
// and still sits in the chunk it was first written to after three merges have
// carried it forward. What a merging commit writes is the committing insert's
// own image plus the merged run's nodes, Bloom filter and run list: bounded per
// entry, not per value byte.
func TestAdoptCarriesChunksForward(t *testing.T) {
	for _, size := range adoptSizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
			e, err := NewNVM(env, adoptSchema(), adoptOpts)
			if err != nil {
				t.Fatal(err)
			}
			first := map[uint64]uint64{} // tree key -> the chunk it was first written to
			for k := uint64(1); e.FlushStats().Compactions < 3; k++ {
				if k > 200 {
					t.Fatal("no third merge after 200 inserts")
				}
				if err := e.Begin(); err != nil {
					t.Fatal(err)
				}
				if err := e.Insert("t", k, bigRow(int64(k), adoptLen(k, size))); err != nil {
					t.Fatal(err)
				}
				// Every tree a commit that merges may take in: where their
				// entries live, and how many each holds.
				held := map[*nvbtree.Tree]int{e.nvm().mem: e.nvm().mem.Count()}
				for _, r := range e.nvm().runs {
					held[r.tree] = r.keys
				}
				for tr := range held {
					tr.Iter(0, func(tk, v uint64) bool {
						if _, seen := first[tk]; !seen {
							first[tk] = v
						}
						return true
					})
				}
				// Inside the transaction, where FlushStats would wait for the
				// exclusion the transaction holds.
				compactions, written := e.fstats.Compactions, env.Dev.Stats().BytesWritten
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
				if e.FlushStats().Compactions == compactions {
					continue
				}
				// The merged run is the one listed tree the commit made; the
				// victims are the trees it took in.
				var merged *nvbtree.Tree
				victimKeys := 0
				for _, r := range e.nvm().runs {
					if _, old := held[r.tree]; !old {
						merged = r.tree
					}
					delete(held, r.tree)
				}
				for tr, n := range held {
					if tr != e.nvm().mem {
						victimKeys += n
					}
				}
				n := 0
				merged.Iter(0, func(tk, v uint64) bool {
					n++
					if first[tk] != v {
						t.Errorf("key %d: entry chunk %d was rewritten to %d", core.TreePK(tk), first[tk], v)
					}
					return true
				})
				if n != victimKeys {
					t.Errorf("merged run holds %d entries, its victims held %d", n, victimKeys)
				}
				written = env.Dev.Stats().BytesWritten - written
				if max := uint64(adoptLen(k, size) + 2048 + 48*n); written > max {
					t.Errorf("the commit that merged %d entries wrote %d bytes, want at most %d; the merge is copying values again", n, written, max)
				}
				if err := checkArenaMatchesReach(e); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestMergeAdoptsNewestFullImage: when two runs of a set hold a key and the
// newer entry is a full image, that entry decides the key, so the merged run
// adopts its chunk: no read of it, no copy. A key inserted in one run and
// deleted and re-inserted, 16 KB, in the next is carried forward in the chunk
// the re-insert wrote, and the merging commit writes far less than the image.
func TestMergeAdoptsNewestFullImage(t *testing.T) {
	const big = 16 << 10
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	e, err := NewNVM(env, adoptSchema(), adoptOpts)
	if err != nil {
		t.Fatal(err)
	}
	steps := []adoptStep{{'i', 1, big}}
	for k := uint64(2); k <= 8; k++ {
		steps = append(steps, adoptStep{'i', k, 40})
	}
	steps = append(steps, adoptStep{'d', 1, 0}, adoptStep{'i', 1, big})
	for k := uint64(9); k <= 14; k++ {
		steps = append(steps, adoptStep{'i', k, 40})
	}
	for _, st := range steps {
		if err := applyAdoptStep(e, st); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.nvm().runs) != 1 || e.FlushStats().Compactions != 0 {
		t.Fatalf("%d runs and %d merges before the last insert, want 1 and 0", len(e.nvm().runs), e.FlushStats().Compactions)
	}
	newer, _ := e.nvm().mem.Get(core.TreePrimary(0, 1))
	written := env.Dev.Stats().BytesWritten
	if err := applyAdoptStep(e, adoptStep{'i', 15, 40}); err != nil {
		t.Fatal(err)
	}
	written = env.Dev.Stats().BytesWritten - written
	if len(e.nvm().runs) != 1 || e.FlushStats().Compactions != 1 {
		t.Fatalf("%d runs and %d merges after the last insert, want 1 and 1", len(e.nvm().runs), e.FlushStats().Compactions)
	}
	if got, _ := e.nvm().runs[0].tree.Get(core.TreePrimary(0, 1)); got != newer {
		t.Errorf("merged run names entry %#x for the re-inserted key, want the re-insert's %#x", got, newer)
	}
	if written >= big {
		t.Errorf("the merging commit wrote %d bytes, a 16 KB image's worth", written)
	}
	if err := checkAdoptModel(e, adoptModel(append(steps, adoptStep{'i', 15, 40}), len(steps)+1)); err != nil {
		t.Error(err)
	}
	if err := checkArenaMatchesReach(e); err != nil {
		t.Error(err)
	}
}

// adoptCase is a crash-window schedule: its steps, the last of which is the
// insert whose rotation merges and is walked, and the shape the
// uninterrupted run must end in, so the schedule provably exercises what it
// is named for.
type adoptCase struct {
	name  string
	steps []adoptStep
	shape func(e *Engine) error
}

// adoptPlan writes a schedule. fill inserts fresh keys, each a new MemTable
// entry, so every eighth insert rotates.
type adoptPlan struct {
	steps []adoptStep
	next  uint64
	size  int
}

func (p *adoptPlan) add(st ...adoptStep) { p.steps = append(p.steps, st...) }

// fill inserts n fresh keys, with 40-byte images when small.
func (p *adoptPlan) fill(n int, small bool) {
	for i := 0; i < n; i++ {
		p.next++
		size := adoptLen(p.next, p.size)
		if small {
			size = 40
		}
		p.add(adoptStep{'i', p.next, size})
	}
}

// pick draws distinct keys from [lo, hi], odd ones where odd is set (their
// images are 40 bytes, so a merge that folds a delta into one writes little).
func pick(rng *rand.Rand, lo, hi uint64, taken map[uint64]bool, odd bool) uint64 {
	for {
		k := lo + uint64(rng.Int63n(int64(hi-lo+1)))
		if !taken[k] && (!odd || k%2 == 1) {
			taken[k] = true
			return k
		}
	}
}

// runShape: the runs' key counts newest first, and the tombstones they hold.
func runShape(e *Engine) (keys []int, tombs int) {
	for _, r := range e.nvm().runs {
		keys = append(keys, r.keys)
		r.tree.Iter(0, func(_, v uint64) bool {
			if tagKind(v) == lsm.KindTomb {
				tombs++
			}
			return true
		})
	}
	return keys, tombs
}

func wantShape(e *Engine, merges int64, keys []int, tombs int) error {
	gotKeys, gotTombs := runShape(e)
	if e.FlushStats().Compactions != merges || fmt.Sprint(gotKeys) != fmt.Sprint(keys) || gotTombs != tombs {
		return fmt.Errorf("%d merges, runs of %v keys holding %d tombstones; want %d, %v, %d",
			e.FlushStats().Compactions, gotKeys, gotTombs, merges, keys, tombs)
	}
	return nil
}

// adoptCases are the two schedules, their keys drawn from the -seed. With
// rotations every 8 keys at k = 2, the fourth rotation leaves runs of 8 and 24
// keys, the sixth 8 and 40 (the fifth merged everything).
func adoptCases(size int, seed int64) []adoptCase {
	rng := rand.New(rand.NewSource(seed))

	// Stops above the oldest run: the seventh rotation's set is itself and
	// the 8-key run above the 40-key one (40 > 2 x 16). A key only the oldest
	// run holds is deleted, so the set holds a lone tombstone, and a key of
	// the run above is deleted too: both tombstones must be carried forward.
	// Another key of the run above is updated (read, folded, written) and a
	// third deleted and re-inserted (the newest image adopted).
	a := &adoptPlan{size: size}
	a.fill(48, false)
	taken := map[uint64]bool{}
	gone, upd, again, lone := pick(rng, 1, 40, taken, false), pick(rng, 41, 48, taken, true),
		pick(rng, 41, 48, taken, false), pick(rng, 1, 40, taken, true)
	gone6 := pick(rng, 41, 48, taken, false)
	a.add(adoptStep{'d', gone, 0}, adoptStep{'u', upd, 0}, adoptStep{'d', again, 0}, adoptStep{'i', again, adoptLen(again, size)},
		adoptStep{'u', lone, 0}, adoptStep{'d', gone6, 0})
	a.fill(3, true)

	// Reaches the oldest run: the fifth rotation's set is 8 + 8 + 24 keys
	// (24 <= 2 x 16). Keys of both older runs are deleted, so tombstones meet
	// the images they delete and both are dropped.
	b := &adoptPlan{size: size}
	b.fill(32, false)
	taken = map[uint64]bool{}
	upd, gone, again = pick(rng, 1, 24, taken, true), pick(rng, 1, 24, taken, false), pick(rng, 1, 24, taken, false)
	gone2 := pick(rng, 25, 32, taken, false)
	b.add(adoptStep{'u', upd, 0}, adoptStep{'d', gone, 0}, adoptStep{'d', gone2, 0}, adoptStep{'d', again, 0},
		adoptStep{'i', again, adoptLen(again, size)})
	b.fill(4, true)

	return []adoptCase{
		{"stops-above-oldest", a.steps, func(e *Engine) error { return wantShape(e, 4, []int{13, 40}, 2) }},
		{"reaches-oldest", b.steps, func(e *Engine) error { return wantShape(e, 3, []int{34}, 0) }},
	}
}

// TestAdoptCrashWindows walks the commit that merges — the merge, the bulk
// load, the run-list swap, the release of the victims — with
// nvm.WalkFences, on rows whose images are 1 KB or 16 KB and sit inline in
// their entry chunks. After recovery from each crash state it
// requires the committed table on one side of the merging insert (the far
// side once it has returned), an allocator that holds exactly the reachable
// set with every kind tag right, and an engine that merges again without
// tripping over a chunk freed twice.
func TestAdoptCrashWindows(t *testing.T) {
	for _, size := range adoptSizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			for _, c := range adoptCases(size, enginetest.BaseSeed()) {
				t.Run(c.name, func(t *testing.T) { adoptCrashWindows(t, c) })
			}
		})
	}
}

// adoptEnv holds the largest schedule's sixteen-kilobyte images with room to
// merge. The walk copies the device, cache included, once per crash outcome,
// so both are kept small.
var adoptEnv = core.EnvConfig{DeviceSize: 2 << 20, FSFraction: 0.25, FSExtent: 64 << 10, CacheSize: 64 << 10}

func adoptCrashWindows(t *testing.T, c adoptCase) {
	last := len(c.steps) - 1
	build := func() (*core.Env, *Engine, error) {
		env := core.NewEnv(adoptEnv)
		e, err := NewNVM(env, adoptSchema(), adoptOpts)
		if err != nil {
			return nil, nil, err
		}
		for i, st := range c.steps[:last] {
			if err := applyAdoptStep(e, st); err != nil {
				return nil, nil, fmt.Errorf("step %d %c %d: %w", i, st.kind, st.key, err)
			}
		}
		return env, e, nil
	}

	// The schedule's shape, from an uninterrupted run.
	_, e, err := build()
	if err == nil {
		err = applyAdoptStep(e, c.steps[last])
	}
	if err != nil {
		t.Fatal(err)
	}
	after := adoptModel(c.steps, last+1)
	for _, check := range []func() error{
		func() error { return c.shape(e) },
		func() error { return checkAdoptModel(e, after) },
		func() error { return checkArenaMatchesReach(e) },
	} {
		if err := check(); err != nil {
			t.Fatalf("uninterrupted: %v", err)
		}
	}

	before := adoptModel(c.steps, last)
	_, err = nvm.WalkFences(func() (*nvm.Device, func() error, error) {
		env, e, err := build()
		if err != nil {
			return nil, nil, err
		}
		return env.Dev, func() error { return applyAdoptStep(e, c.steps[last]) }, nil
	}, func(k, fences int, dev *nvm.Device) error {
		if k == fences {
			return recoverAdopt(dev, after, after)
		}
		return recoverAdopt(dev, before, after)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recoverAdopt opens the engine on a crashed device and checks it: the table
// on one side of the interrupted step, the allocator holding exactly the
// reachable set, and the same again after the next merge.
func recoverAdopt(dev *nvm.Device, before, after map[uint64][2]int64) error {
	env, err := (&core.Env{Dev: dev}).Reopen()
	if err != nil {
		return err
	}
	e, err := OpenNVM(env, adoptSchema(), adoptOpts)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if checkAdoptModel(e, before) != nil {
		if err := checkAdoptModel(e, after); err != nil {
			return fmt.Errorf("recovered table matches neither side of the interrupted step: %w", err)
		}
	}
	if err := checkArenaMatchesReach(e); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	for k := uint64(1000); e.FlushStats().Compactions == 0; k++ {
		if k > 1100 {
			return fmt.Errorf("no merge after recovery")
		}
		if err := applyAdoptStep(e, adoptStep{'i', k, 40}); err != nil {
			return fmt.Errorf("insert %d after recovery: %w", k, err)
		}
	}
	if err := checkArenaMatchesReach(e); err != nil {
		return fmt.Errorf("after the next merge: %w", err)
	}
	return nil
}
