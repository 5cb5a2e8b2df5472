package lsm

import (
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

func delta(s *core.Schema, cols []int, vals []core.Value) Entry {
	return Entry{Kind: KindDelta, Payload: core.EncodeDelta(s, core.Update{Cols: cols, Vals: vals})}
}

func TestMergeFullWins(t *testing.T) {
	s := schema()
	got := Merge(s, full(s, 1, 2, "x"), delta(s, []int{1}, []core.Value{core.IntVal(99)}))
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
	got := Merge(s, delta(s, []int{1, 2}, []core.Value{core.IntVal(99), core.StrVal("new")}), full(s, 1, 2, "x"))
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
	got := Merge(s, newer, older)
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
	got := Merge(s, Entry{Kind: KindTomb}, full(s, 1, 2, "x"))
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
	row, exists, resolved := Coalesce(s, entries)
	if !exists || !resolved {
		t.Fatalf("exists=%v resolved=%v", exists, resolved)
	}
	if row[0].I != 10 || row[1].I != 3 || string(row[2].S) != "mid" {
		t.Errorf("coalesced row: %v", row)
	}
}

func TestCoalesceTombstone(t *testing.T) {
	s := schema()
	_, exists, resolved := Coalesce(s, []Entry{{Kind: KindTomb}, full(s, 1, 2, "x")})
	if exists || !resolved {
		t.Fatalf("tombstone: exists=%v resolved=%v", exists, resolved)
	}
}

func TestCoalesceUnresolvedDeltas(t *testing.T) {
	s := schema()
	_, exists, resolved := Coalesce(s, []Entry{delta(s, []int{1}, []core.Value{core.IntVal(1)})})
	if exists || resolved {
		t.Fatalf("bare delta: exists=%v resolved=%v", exists, resolved)
	}
	if _, exists, resolved := Coalesce(s, nil); exists || resolved {
		t.Fatal("empty entry list resolved")
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
		got, exists, resolved := Coalesce(s, chain)
		if !exists || !resolved {
			return false
		}
		return core.RowsEqual(s, got, expect)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
