package logeng

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/engine/lsm"
	"nstore/internal/vlog"
)

// TestOnePassMergeMatchesCascade draws seeded run layouts — 2 to 6
// compaction inputs across L0 and the levels, sometimes a deeper run under
// them — of full images, deltas, tombstones and separated images over
// overlapping keys, compacts them, and compares the merged run with a
// reference that folds the same runs pairwise with lsm.MergeR, newest first,
// as a cascade of pairwise merges does: the same (key, kind, payload)
// sequence, the same value-log discard total, and tombstones dropped exactly
// by a merge into a level with no run under it. 200 layouts from -seed, 40
// under -short.
func TestOnePassMergeMatchesCascade(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := enginetest.BaseSeed(); seed < enginetest.BaseSeed()+int64(n); seed++ {
		if err := onePassSchedule(seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/engine/logeng/ -run '^TestOnePassMergeMatchesCascade$' -seed=%d", seed, err, seed)
		}
	}
}

// onePassSchedule runs one drawn layout through compact and the reference.
func onePassSchedule(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	sch := bigSchema()
	// One value-log segment holds every record: no segment is sealed, so no
	// GC pass runs after the compaction and moves the discard total.
	e, err := New(env, sch, core.Options{MemTableCap: 1 << 30, VlogThreshold: 64, VlogSegSize: 32 << 20})
	if err != nil {
		return err
	}
	d := e.disk()

	inputs := 2 + rng.Intn(5)
	l0n := 1 + rng.Intn(inputs)
	rest := inputs - l0n
	deeper := rng.Intn(2) == 0
	// The runs oldest first: the deeper run, the levels deep to shallow, L0.
	var runs [][]runEntry
	state := map[uint64]byte{} // 0 unknown (a deeper run may hold it), 'l' live, 'd' deleted
	for i := 0; i < inputs+1; i++ {
		if i == 0 && !deeper {
			continue
		}
		var ents []runEntry
		for pk := uint64(1); pk <= 24; pk++ {
			if rng.Intn(5) < 3 {
				continue
			}
			tk := core.TreePrimary(0, pk)
			ent, err := drawEntry(rng, d, sch[0], tk, state[tk])
			if err != nil {
				return err
			}
			state[tk] = 'l'
			if ent.Kind == lsm.KindTomb {
				state[tk] = 'd'
			}
			ents = append(ents, runEntry{tk, ent})
		}
		runs = append(runs, ents)
	}
	if err := d.vl.Sync(); err != nil {
		return err
	}
	open := func(name string, ents []runEntry) (*sstable, error) {
		w, err := newSSTWriter(env.FS, name)
		if err != nil {
			return nil, err
		}
		for _, re := range ents {
			w.add(re.key, re.ent)
		}
		if err := w.finish(); err != nil {
			return nil, err
		}
		return openSSTable(env.FS, d.cache, name)
	}
	// Lay the runs out: levels 0 … rest-1 full, level rest empty, the deeper
	// run (if any) at rest+1; sometimes an empty level past the last.
	if deeper {
		d.levels = make([]*sstable, rest+2)
		if d.levels[rest+1], err = open("deeper", runs[0]); err != nil {
			return err
		}
		runs = runs[1:]
	} else {
		d.levels = make([]*sstable, rest+rng.Intn(2))
	}
	newestFirst := slices.Clone(runs)
	slices.Reverse(newestFirst)
	for i, ents := range newestFirst {
		r, err := open(fmt.Sprintf("in-%d", i), ents)
		if err != nil {
			return err
		}
		if i < l0n {
			d.l0 = append([]*sstable{r}, d.l0...)
		} else {
			d.levels[i-l0n] = r
		}
	}

	// The reference: the cascade's pairwise folds, L0 newest over older, then
	// level by level; only its last fold into a level may drop tombstones.
	var wantDiscard int64
	fold := func(newer, older []runEntry, dropTombs bool) ([]runEntry, error) {
		var out []runEntry
		emit := func(re runEntry) {
			if !dropTombs || re.ent.Kind != lsm.KindTomb {
				out = append(out, re)
			}
		}
		i, j := 0, 0
		for i < len(newer) || j < len(older) {
			switch {
			case j == len(older) || i < len(newer) && newer[i].key < older[j].key:
				emit(newer[i])
				i++
			case i == len(newer) || older[j].key < newer[i].key:
				emit(older[j])
				j++
			default:
				m, err := lsm.MergeR(sch[0], newer[i].key, newer[i].ent, older[j].ent, d.resolve)
				if err != nil {
					return nil, err
				}
				if older[j].ent.Kind == lsm.KindFullPtr {
					ptr, _ := core.DecodeVlogPtr(older[j].ent.Payload)
					wantDiscard += vlog.DiscardOf(ptr)
				}
				emit(runEntry{newer[i].key, m})
				i++
				j++
			}
		}
		return out, nil
	}
	want := newestFirst[0]
	for i := 1; i < inputs; i++ {
		last := i >= l0n && i-l0n == rest-1 // the fold of the last level
		if want, err = fold(want, newestFirst[i], last && !deeper); err != nil {
			return fmt.Errorf("reference fold: %w", err)
		}
	}

	seq0, discard0 := d.seq, d.vl.Stats().Discard
	if err := d.compact(); err != nil {
		return fmt.Errorf("compact (%d L0 runs, %d levels, deeper %v): %w", l0n, rest, deeper, err)
	}
	layout := fmt.Sprintf("%d L0 runs over %d levels, deeper run %v", l0n, rest, deeper)
	if got := d.seq - seq0; got != 1 {
		return fmt.Errorf("%s: the compaction created %d SSTables, want 1", layout, got)
	}
	if got := d.vl.Stats().Discard - discard0; got != wantDiscard {
		return fmt.Errorf("%s: the compaction discarded %d value-log bytes, the cascade %d", layout, got, wantDiscard)
	}
	if len(d.l0) != 0 || d.levels[rest] == nil || slices.ContainsFunc(d.levels[:rest], func(r *sstable) bool { return r != nil }) {
		return fmt.Errorf("%s: the merged run is not alone at level %d (L0 %d runs, levels %v)", layout, rest, len(d.l0), d.levels)
	}
	sc := d.levels[rest].scan()
	for i, re := range want {
		if !sc.next() {
			return fmt.Errorf("%s: the merged run ends after %d entries, the cascade's holds %d (%v)", layout, i, len(want), sc.err)
		}
		if sc.key != re.key || sc.ent.Kind != re.ent.Kind || !bytes.Equal(sc.ent.Payload, re.ent.Payload) {
			return fmt.Errorf("%s: entry %d is key %d kind %d (%d bytes), the cascade's key %d kind %d (%d bytes)",
				layout, i, core.TreePK(sc.key), sc.ent.Kind, len(sc.ent.Payload), core.TreePK(re.key), re.ent.Kind, len(re.ent.Payload))
		}
	}
	if sc.next() || sc.err != nil {
		return fmt.Errorf("%s: the merged run holds more than the cascade's %d entries (%v)", layout, len(want), sc.err)
	}
	return nil
}

// drawEntry draws the entry a run holds for tk over its older state: any kind
// over a live or unknown tuple, an image over a deleted one (a delta is only
// ever written over a live tuple).
func drawEntry(rng *rand.Rand, d *diskStore, sch *core.Schema, tk uint64, state byte) (lsm.Entry, error) {
	pk := int64(core.TreePK(tk))
	img := func() []byte { return core.EncodeRow(sch, bigRow(pk+rng.Int63n(100), 8+rng.Intn(120))) }
	kinds := []uint8{lsm.KindFull, lsm.KindFullPtr}
	if state != 'd' {
		kinds = append(kinds, lsm.KindDelta, lsm.KindTomb)
	}
	switch k := kinds[rng.Intn(len(kinds))]; k {
	case lsm.KindFull:
		return lsm.Entry{Kind: k, Payload: img()}, nil
	case lsm.KindFullPtr:
		ptr, err := d.vl.Append(tk, img())
		return lsm.Entry{Kind: k, Payload: ptr.Encode(nil)}, err
	case lsm.KindDelta:
		upd := core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(rng.Int63n(1000))}}
		if rng.Intn(2) == 0 {
			upd.Cols = append(upd.Cols, 2)
			upd.Vals = append(upd.Vals, core.StrVal(strings.Repeat("x", rng.Intn(40))))
		}
		return lsm.Entry{Kind: k, Payload: core.EncodeDelta(sch, upd)}, nil
	default:
		return lsm.Entry{Kind: k}, nil
	}
}

// TestCompactionWritesOneRun drives flushes until a compaction has merged
// the flushed run with levels 0, 1 and 2 at once. Every compaction that
// merges creates exactly one SSTable, the output run it installs, and
// removes its inputs; the run is written once, by its writer's finish, so the
// bytes the compaction writes are the output run's. A lone run over an empty
// level 0 moves down unmerged and creates none.
func TestCompactionWritesOneRun(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20})
	e, err := New(env, simpleSchema(), core.Options{MemTableCap: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	d := e.disk()
	deepest := 0
	for step := int64(0); step < 16; step++ {
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		// Each flush updates half of the previous one's keys.
		for i := int64(0); i < 20; i++ {
			k := uint64(step*10 + i)
			if step > 0 && i < 10 {
				err = e.Update("t", k, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(step)}})
			} else {
				err = e.Insert("t", k, row(step))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		rest := 0
		for rest < len(d.levels) && d.levels[rest] != nil {
			rest++
		}
		inputs := append([]string{fmt.Sprintf("sst-%06d", d.seq+1)}, names(d.levels[:rest])...)
		seq0 := d.seq
		if err := e.FlushMemTable(); err != nil {
			t.Fatal(err)
		}
		out := d.levels[rest]
		created, want := d.seq-seq0-1, uint64(0) // beyond the flush's own run
		if rest > 0 {
			want = 1
		}
		if created != want {
			t.Fatalf("step %d: compacting %d runs created %d SSTables, want %d", step, len(inputs), created, want)
		}
		if want == 1 && out.name != fmt.Sprintf("sst-%06d", seq0+2) {
			t.Fatalf("step %d: level %d holds %s, not the run the compaction created", step, rest, out.name)
		}
		var files []string
		for _, name := range env.FS.List() {
			if strings.HasPrefix(name, "sst-") {
				files = append(files, name)
			}
		}
		slices.Sort(files)
		listed := names(d.ssts())
		slices.Sort(listed)
		if !slices.Equal(files, listed) {
			t.Fatalf("step %d: the filesystem holds SSTables %v, the manifest lists %v (inputs %v)", step, files, listed, inputs)
		}
		deepest = max(deepest, rest)
	}
	if deepest < 3 {
		t.Fatalf("no compaction merged more than %d levels", deepest)
	}
	for k := uint64(0); k < 170; k++ {
		if _, ok, err := e.Get("t", k); err != nil || !ok {
			t.Fatalf("key %d: %v, %v", k, ok, err)
		}
	}
}

// names returns the names of the non-nil runs.
func names(runs []*sstable) []string {
	var out []string
	for _, r := range runs {
		if r != nil {
			out = append(out, r.name)
		}
	}
	return out
}
