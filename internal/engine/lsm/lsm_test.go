package lsm

import (
	"errors"
	"testing"
	"testing/quick"

	"nstore/internal/core"
	// Defines -seed: nightly CI passes it to every package under
	// ./internal/engine/..., and a test binary without the flag fails at once.
	_ "nstore/internal/engine/enginetest"
)

func schema() *core.Schema {
	return &core.Schema{
		Name: "t",
		Columns: []core.Column{
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TInt},
			{Name: "c", Type: core.TString, Size: 64},
		},
	}
}

func full(s *core.Schema, a, b int64, c string) Entry {
	return Entry{Kind: KindFull, Payload: core.EncodeRow(s, []core.Value{
		core.IntVal(a), core.IntVal(b), core.StrVal(c)})}
}

// merge is MergeR with no value log, failing t on an error.
func merge(t testing.TB, s *core.Schema, newer, older Entry) Entry {
	t.Helper()
	e, err := MergeR(s, 0, newer, older, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// coalesce is CoalesceR with no value log, failing t on an error.
func coalesce(t testing.TB, s *core.Schema, entries []Entry) (row []core.Value, exists, resolved bool) {
	t.Helper()
	row, exists, resolved, err := CoalesceR(s, 0, entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	return row, exists, resolved
}

func delta(s *core.Schema, cols []int, vals []core.Value) Entry {
	return Entry{Kind: KindDelta, Payload: core.EncodeDelta(s, core.Update{Cols: cols, Vals: vals})}
}

func TestMergeFullWins(t *testing.T) {
	s := schema()
	got := merge(t, s, full(s, 1, 2, "x"), delta(s, []int{1}, []core.Value{core.IntVal(99)}))
	if got.Kind != KindFull {
		t.Fatalf("kind = %d", got.Kind)
	}
	row, _ := core.DecodeRow(s, got.Payload)
	if row[1].I != 2 {
		t.Errorf("newer full overwritten: %v", row)
	}
}

func TestMergeDeltaOverFull(t *testing.T) {
	s := schema()
	got := merge(t, s, delta(s, []int{1, 2}, []core.Value{core.IntVal(99), core.StrVal("new")}), full(s, 1, 2, "x"))
	if got.Kind != KindFull {
		t.Fatalf("kind = %d", got.Kind)
	}
	row, _ := core.DecodeRow(s, got.Payload)
	if row[0].I != 1 || row[1].I != 99 || string(row[2].S) != "new" {
		t.Errorf("delta not applied: %v", row)
	}
}

func TestMergeDeltaOverDelta(t *testing.T) {
	s := schema()
	newer := delta(s, []int{1}, []core.Value{core.IntVal(100)})
	older := delta(s, []int{1, 2}, []core.Value{core.IntVal(50), core.StrVal("old")})
	got := merge(t, s, newer, older)
	if got.Kind != KindDelta {
		t.Fatalf("kind = %d", got.Kind)
	}
	upd, err := core.DecodeDelta(s, got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[int]core.Value{}
	for j, ci := range upd.Cols {
		vals[ci] = upd.Vals[j]
	}
	if vals[1].I != 100 {
		t.Errorf("newer column lost: %v", vals)
	}
	if string(vals[2].S) != "old" {
		t.Errorf("older-only column lost: %v", vals)
	}
}

func TestMergeTombWins(t *testing.T) {
	s := schema()
	got := merge(t, s, Entry{Kind: KindTomb}, full(s, 1, 2, "x"))
	if got.Kind != KindTomb {
		t.Fatalf("kind = %d", got.Kind)
	}
}

func TestCoalesce(t *testing.T) {
	s := schema()
	// delta over delta over full
	entries := []Entry{
		delta(s, []int{1}, []core.Value{core.IntVal(3)}),
		delta(s, []int{2}, []core.Value{core.StrVal("mid")}),
		full(s, 10, 20, "base"),
	}
	row, exists, resolved := coalesce(t, s, entries)
	if !exists || !resolved {
		t.Fatalf("exists=%v resolved=%v", exists, resolved)
	}
	if row[0].I != 10 || row[1].I != 3 || string(row[2].S) != "mid" {
		t.Errorf("coalesced row: %v", row)
	}
}

func TestCoalesceTombstone(t *testing.T) {
	s := schema()
	_, exists, resolved := coalesce(t, s, []Entry{{Kind: KindTomb}, full(s, 1, 2, "x")})
	if exists || !resolved {
		t.Fatalf("tombstone: exists=%v resolved=%v", exists, resolved)
	}
}

func TestCoalesceUnresolvedDeltas(t *testing.T) {
	s := schema()
	_, exists, resolved := coalesce(t, s, []Entry{delta(s, []int{1}, []core.Value{core.IntVal(1)})})
	if exists || resolved {
		t.Fatalf("bare delta: exists=%v resolved=%v", exists, resolved)
	}
	if _, exists, resolved := coalesce(t, s, nil); exists || resolved {
		t.Fatal("empty entry list resolved")
	}
}

// TestMergeSet: run sizes in, newest first; set length out.
func TestMergeSet(t *testing.T) {
	for _, c := range []struct {
		k     int
		sizes []int
		want  int
	}{
		{2, nil, 0},
		{2, []int{8}, 1},
		{2, []int{8, 8}, 2},
		{2, []int{8, 16}, 2},
		{2, []int{8, 17}, 1},
		{2, []int{8, 8, 24}, 3},         // 24 <= 2 x 16
		{2, []int{8, 8, 40}, 2},         // stops above the oldest run
		{2, []int{8, 16, 40}, 3},        // 16 <= 16, then 40 <= 48
		{2, []int{8, 24, 8}, 1},         // a small old run behind a large one waits
		{2, []int{8, 0}, 2},             // an empty run is always taken in
		{4, []int{512, 512, 1024}, 3},   // 1024 <= 4 x 1024
		{4, []int{512, 2048, 10241}, 2}, // 10241 > 4 x 2560
		{4, []int{512, 2049}, 1},
		{4, []int{512, 512, 512, 6144, 100000}, 4},
		{4, []int{512, 512, 512, 6145}, 3},
	} {
		if got := MergeSet(c.sizes, c.k); got != c.want {
			t.Errorf("MergeSet(%v, k=%d) = %d, want %d", c.sizes, c.k, got, c.want)
		}
	}
}

// Property: coalescing a random chain of deltas over a full image equals
// applying the updates in order to the row.
func TestQuickCoalesceEquivalence(t *testing.T) {
	s := schema()
	fn := func(base [2]int64, updates []uint16) bool {
		if len(updates) > 20 {
			updates = updates[:20]
		}
		row := []core.Value{core.IntVal(base[0]), core.IntVal(base[1]), core.StrVal("s")}
		var chain []Entry // newest first
		expect := core.CloneRow(row)
		for _, u := range updates {
			col := int(u%2) + 0 // columns 0 or 1
			val := int64(u / 2)
			upd := core.Update{Cols: []int{col}, Vals: []core.Value{core.IntVal(val)}}
			core.ApplyDelta(expect, upd)
			chain = append([]Entry{delta(s, upd.Cols, upd.Vals)}, chain...)
		}
		chain = append(chain, Entry{Kind: KindFull, Payload: core.EncodeRow(s, row)})
		got, exists, resolved := coalesce(t, s, chain)
		if !exists || !resolved {
			return false
		}
		return core.RowsEqual(s, got, expect)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRefusesCorruptEntries: an entry that does not decode, or has no
// known kind, is core.ErrCorrupt — not a delta left unresolved, which a
// reader takes for an absent tuple while the kind byte says it is live.
func TestMergeRefusesCorruptEntries(t *testing.T) {
	s := schema()
	d := delta(s, []int{1}, []core.Value{core.IntVal(7)})
	bad := []byte{1, 2, 3}
	for _, c := range []struct {
		name         string
		newer, older Entry
	}{
		{"delta over an undecodable full image", d, Entry{Kind: KindFull, Payload: bad}},
		{"undecodable delta over a full image", Entry{Kind: KindDelta, Payload: bad}, full(s, 1, 2, "x")},
		{"delta over an undecodable delta", d, Entry{Kind: KindDelta, Payload: bad}},
		{"delta over a tombstone", d, Entry{Kind: KindTomb}},
		{"unknown newer kind", Entry{Kind: 9, Payload: bad}, full(s, 1, 2, "x")},
		{"delta over an unknown kind", d, Entry{Kind: 0, Payload: bad}},
		{"delta over a separated image with no value log", d, Entry{Kind: KindFullPtr, Payload: make([]byte, 12)}},
	} {
		if _, err := MergeR(s, 5, c.newer, c.older, nil); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: MergeR returned %v, want core.ErrCorrupt", c.name, err)
		}
		if _, _, _, err := CoalesceR(s, 5, []Entry{c.newer, c.older}, nil); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: CoalesceR returned %v, want core.ErrCorrupt", c.name, err)
		}
	}
}

// TestCoalesceRefusesCorruptTerminal: the entry a chain ends at is checked
// as well — a full image that does not decode, a lone delta that does not,
// and a kind byte of no known kind are core.ErrCorrupt, not "deleted".
func TestCoalesceRefusesCorruptTerminal(t *testing.T) {
	s := schema()
	for _, e := range []Entry{
		{Kind: KindFull, Payload: []byte{1, 2, 3}},
		{Kind: KindDelta, Payload: []byte{9, 9}},
		{Kind: 0},
		{Kind: 200, Payload: []byte("x")},
	} {
		if _, _, _, err := CoalesceR(s, 5, []Entry{e}, nil); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("kind %d (%d bytes): CoalesceR returned %v, want core.ErrCorrupt", e.Kind, len(e.Payload), err)
		}
	}
}

// TestReadEntryChunkRefusesUnknownKind: a MemTable chunk whose kind byte is
// none of the four kinds is corrupt when read back.
func TestReadEntryChunkRefusesUnknownKind(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 4 << 20, FSExtent: 16 << 10})
	for _, kind := range []uint8{0, 5, 255} {
		p, err := WriteEntryChunk(env.Arena, Entry{Kind: kind, Payload: []byte("row")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadEntryChunk(env.Arena, uint64(p)); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("kind %d: ReadEntryChunk returned %v, want core.ErrCorrupt", kind, err)
		}
	}
	p, err := WriteEntryChunk(env.Arena, Entry{Kind: KindTomb})
	if err != nil {
		t.Fatal(err)
	}
	if e, err := ReadEntryChunk(env.Arena, uint64(p)); err != nil || e.Kind != KindTomb {
		t.Fatalf("a tombstone chunk read back as %v, %v", e, err)
	}
}
