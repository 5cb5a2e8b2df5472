package nvmlog

import (
	"fmt"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/lsm"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// adoptOpts make a rotation every 24 keys and a compaction at the third run.
var adoptOpts = core.Options{MemTableCap: 24, LSMGrowth: 3, BTreeNodeSize: 128}

// adoptSizes are the lengths of column b the adoption tests give every even
// key (odd keys get 40 bytes). Images of either size sit inline in their
// entry chunk, so a compaction that copied values would show as bytes written
// in proportion to them.
var adoptSizes = []int{1 << 10, 16 << 10}

// adoptLen is the length of column b for key k when large images are size.
func adoptLen(k uint64, size int) int {
	if k%2 == 0 {
		return size
	}
	return 40
}

// adoptStep is one single-operation transaction of the fixed schedule.
type adoptStep struct {
	kind byte // 'i' insert, 'u' update column a, 'd' delete
	key  uint64
	n    int // insert: length of column b
}

// adoptSchedule fills three MemTables. Run 1 and run 2 hold disjoint inserts,
// half of them large, so the compaction that the last step triggers carries
// most entries forward untouched; run 2 also updates and deletes a few run-1
// keys, so some keys are held by both victims and take the merge path, and
// one tombstone is dropped.
func adoptSchedule(large int) []adoptStep {
	var s []adoptStep
	size := func(k uint64) int { return adoptLen(k, large) }
	for k := uint64(1); k <= 24; k++ {
		s = append(s, adoptStep{'i', k, size(k)})
	}
	for k := uint64(25); k <= 40; k++ {
		s = append(s, adoptStep{'i', k, size(k)})
	}
	for _, k := range []uint64{2, 3, 10, 11} {
		s = append(s, adoptStep{'u', k, 0})
	}
	for _, k := range []uint64{4, 5} {
		s = append(s, adoptStep{'d', k, 0})
	}
	for k := uint64(41); k <= 42; k++ {
		s = append(s, adoptStep{'i', k, size(k)})
	}
	for k := uint64(43); k <= 66; k++ {
		s = append(s, adoptStep{'i', k, size(k)})
	}
	return s
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
			if kind := kindOf(v); kind < lsm.KindFull || kind > lsm.KindTomb || head[0] != kind {
				err = fmt.Errorf("%s: key %d: pointer %#x is tagged %d, its chunk records kind %d", where, core.TreePK(k), v, kind, head[0])
			}
			return err == nil
		})
	}
	check("MemTable", e.mem)
	for i, r := range e.runs {
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
	reach, _ := e.reachable()
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

// TestAdoptCarriesChunksForward: compactions over runs with disjoint keys
// rewrite no entry chunk, whatever the image size — every entry is adopted by
// pointer, and still sits in the chunk it was first written to after three
// compactions have carried it forward. What a compacting commit writes is the
// committing insert's own image plus the merged run's nodes, Bloom filter and
// run list: bounded per entry, not per value byte.
func TestAdoptCarriesChunksForward(t *testing.T) {
	for _, size := range adoptSizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
			e, err := New(env, bigSchema(), adoptOpts)
			if err != nil {
				t.Fatal(err)
			}
			chunkOf := map[uint64]uint64{} // tree key -> the chunk it was first seen in
			for k := uint64(1); e.FlushStats().Compactions < 3; k++ {
				if k > 200 {
					t.Fatal("no third compaction after 200 inserts")
				}
				// Every run listed before a commit that compacts is a victim
				// of it: note where their entries live.
				for _, r := range e.runs {
					r.tree.Iter(0, func(tk, v uint64) bool {
						if _, seen := chunkOf[tk]; !seen {
							chunkOf[tk] = v
						}
						return true
					})
				}
				compactions, written := e.FlushStats().Compactions, env.Dev.Stats().BytesWritten
				if err := applyAdoptStep(e, adoptStep{'i', k, adoptLen(k, size)}); err != nil {
					t.Fatal(err)
				}
				if e.FlushStats().Compactions == compactions {
					continue
				}
				merged := e.runs[len(e.runs)-1].tree
				n := 0
				merged.Iter(0, func(tk, v uint64) bool {
					n++
					if chunkOf[tk] != v {
						t.Errorf("key %d: entry chunk %d was rewritten to %d", core.TreePK(tk), chunkOf[tk], v)
					}
					return true
				})
				if n != len(chunkOf) {
					t.Errorf("merged run holds %d entries, want %d", n, len(chunkOf))
				}
				written = env.Dev.Stats().BytesWritten - written
				if max := uint64(adoptLen(k, size) + 2048 + 48*n); written > max {
					t.Errorf("the commit that merged %d entries wrote %d bytes, want at most %d; compaction is copying values again", n, written, max)
				}
				if err := checkArenaMatchesReach(e); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestAdoptCrashWindows injects a power failure at every fence of the commit
// that compacts — through the merge, the bulk load, the run-list swap and the
// release of the victims — and requires after each: the committed table, an
// allocator that holds exactly the reachable set, and an engine that
// compacts again without tripping over a chunk freed twice.
func TestAdoptCrashWindows(t *testing.T) {
	for _, size := range adoptSizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) { adoptCrashWindows(t, size) })
	}
}

func adoptCrashWindows(t *testing.T, size int) {
	steps := adoptSchedule(size)
	last := len(steps) - 1

	// Fence window of the compacting commit, from an uninterrupted run.
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	e, err := New(env, bigSchema(), adoptOpts)
	if err != nil {
		t.Fatal(err)
	}
	var lo uint64
	for i, st := range steps {
		if i == last {
			lo = env.Dev.Stats().Fences
			if e.FlushStats().Compactions != 0 {
				t.Fatal("schedule compacted before its last step")
			}
		}
		if err := applyAdoptStep(e, st); err != nil {
			t.Fatal(err)
		}
	}
	hi := env.Dev.Stats().Fences
	if e.FlushStats().Compactions != 1 {
		t.Fatalf("last step ran %d compactions, want 1", e.FlushStats().Compactions)
	}
	if err := checkAdoptModel(e, adoptModel(steps, len(steps))); err != nil {
		t.Fatal(err)
	}
	if err := checkArenaMatchesReach(e); err != nil {
		t.Fatal(err)
	}

	stride := uint64(1)
	if testing.Short() {
		stride = 7
	}
	for f := lo; f < hi; f += stride {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
		e, err := New(env, bigSchema(), adoptOpts)
		if err != nil {
			t.Fatal(err)
		}
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != nvm.ErrInjectedCrash {
						panic(r)
					}
					crashed = true
				}
			}()
			for i, st := range steps {
				if i == last {
					env.Dev.FailAfterFences(int(f - env.Dev.Stats().Fences))
				}
				if err := applyAdoptStep(e, st); err != nil {
					t.Fatalf("fence %d: step %d: %v", f, i, err)
				}
			}
		}()
		if !crashed {
			t.Fatalf("fence %d: no crash inside the window [%d,%d)", f, lo, hi)
		}
		env.Dev.Crash()
		env2, err := env.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Open(env2, bigSchema(), adoptOpts)
		if err != nil {
			t.Fatalf("fence %d: open: %v", f, err)
		}
		// The last step's own commit point is the window's first fences.
		if checkAdoptModel(e2, adoptModel(steps, last)) != nil {
			if err := checkAdoptModel(e2, adoptModel(steps, len(steps))); err != nil {
				t.Fatalf("fence %d: recovered table matches neither side of the last commit: %v", f, err)
			}
		}
		if err := checkArenaMatchesReach(e2); err != nil {
			t.Fatalf("fence %d: after recovery: %v", f, err)
		}
		// Keep going until the survivor has compacted at least once more.
		for k := uint64(1000); e2.FlushStats().Compactions == 0; k++ {
			if k > 1100 {
				t.Fatalf("fence %d: no compaction after recovery", f)
			}
			if err := applyAdoptStep(e2, adoptStep{'i', k, adoptLen(k, size)}); err != nil {
				t.Fatalf("fence %d: insert %d after recovery: %v", f, k, err)
			}
		}
		if err := checkArenaMatchesReach(e2); err != nil {
			t.Fatalf("fence %d: after the next compaction: %v", f, err)
		}
	}
}
