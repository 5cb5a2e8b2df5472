package undolog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"nstore/internal/core"
	"nstore/internal/pmalloc"
)

// testTables: table 0 has two secondary indexes, table 1 none.
func testTables() []*core.TableMeta {
	sec := core.IndexSpec{Name: "s", SecKey: func(row []core.Value) uint32 { return uint32(row[1].I) }}
	sec2 := sec
	sec2.Name = "s2"
	var b core.Base
	b.InitBase(nil, []*core.Schema{
		{Name: "a", Columns: []core.Column{{Name: "id"}, {Name: "v"}}, Secondary: []core.IndexSpec{sec, sec2}},
		{Name: "b", Columns: []core.Column{{Name: "id"}}},
	})
	return b.Tables
}

// image builds an entry image as Append lays it out, link words zero.
func image(typ, table uint8, key uint64, fixes [][2]uint8, body []byte) []byte {
	b := make([]byte, headerSize)
	b[oType], b[oTable], b[oFixes] = typ, table, uint8(len(fixes))
	binary.LittleEndian.PutUint16(b[oBody:], uint16(len(body)))
	binary.LittleEndian.PutUint64(b[oKey:], key)
	for i, f := range fixes {
		b = binary.LittleEndian.AppendUint64(append(b, f[0], f[1]), uint64(i+7)<<32|uint64(i+1))
	}
	return append(b, body...)
}

// refused states Decode's checks on their own: an image shorter than the
// header, an unknown type, a table out of range, records that overrun the
// image, or a repair record of an index the table lacks or of an unknown op.
func refused(b []byte, tables []*core.TableMeta) bool {
	if len(b) < headerSize || b[oType] < core.WalInsert || b[oType] > core.WalDelete || int(b[oTable]) >= len(tables) {
		return true
	}
	n := int(b[oFixes])
	if headerSize+fixSize*n+int(binary.LittleEndian.Uint16(b[oBody:])) > len(b) {
		return true
	}
	for i := 0; i < n; i++ {
		r := b[headerSize+fixSize*i:]
		if int(r[0]) >= len(tables[b[oTable]].Schema.Secondary) || r[1] != opAdded && r[1] != opRemoved {
			return true
		}
	}
	return false
}

// FuzzUndoEntry: no entry image panics Decode, an image is refused — with a
// corrupt error — exactly when refused says so, and an accepted one decodes
// to the fields and the body it holds.
func FuzzUndoEntry(f *testing.F) {
	tables := testTables()
	f.Add(image(core.WalInsert, 1, 5, nil, make([]byte, 8)))
	f.Add(image(core.WalUpdate, 0, 9, [][2]uint8{{0, opRemoved}, {1, opAdded}}, make([]byte, 17)))
	f.Add(image(core.WalDelete, 0, 3, [][2]uint8{{2, opAdded}}, nil))
	f.Add(image(core.WalInsert, 200, 5, nil, nil))
	f.Add(image(core.WalUpdate, 1, 5, [][2]uint8{{0, opAdded}}, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		ent, err := Decode(b, tables)
		if want := refused(b, tables); want != (err != nil) {
			t.Fatalf("refused %v, Decode: %v", want, err)
		}
		if err != nil {
			if !core.IsCorrupt(err) {
				t.Fatalf("refusal %v is not a corrupt error", err)
			}
			return
		}
		if ent.Type != b[oType] || ent.Table != int(b[oTable]) || ent.Key != binary.LittleEndian.Uint64(b[oKey:]) || len(ent.Fixes) != int(b[oFixes]) {
			t.Fatalf("decoded %+v from %x", ent, b)
		}
		for i, fx := range ent.Fixes {
			r := b[headerSize+fixSize*i:]
			if fx.Idx != int(r[0]) || fx.Add != (r[1] == opAdded) || fx.Composite() != binary.LittleEndian.Uint64(r[2:]) {
				t.Fatalf("repair record %d decoded as %+v from %x", i, fx, r[:fixSize])
			}
		}
		start := headerSize + fixSize*len(ent.Fixes)
		if !bytes.Equal(ent.Body, b[start:start+int(binary.LittleEndian.Uint16(b[oBody:]))]) {
			t.Fatalf("body %x from %x", ent.Body, b)
		}
	})
}

// TestAppendUndoRecover: the entries a transaction appends are walked back
// newest first as they were appended, by Undo and, after a crash, by Recover,
// which empties the log and frees every entry.
func TestAppendUndoRecover(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 8 << 20})
	hdr, err := env.Arena.Alloc(8, pmalloc.TagOther)
	if err != nil {
		t.Fatal(err)
	}
	head := int64(hdr)
	env.Dev.WriteU64(head, 0)
	env.Dev.Sync(head, 8)
	env.Arena.SetPersisted(hdr)
	tables := testTables()
	ents := []Entry{
		{Type: core.WalInsert, Table: 1, Key: 4, Body: []byte{1, 2, 3}},
		{Type: core.WalUpdate, Table: 0, Key: 9, Fixes: []core.SecFix{{Idx: 1, Sec: 3, PK: 9}, {Idx: 1, Add: true, Sec: 4, PK: 9}}, Body: []byte{5}},
		{Type: core.WalDelete, Table: 0, Key: 2, Fixes: []core.SecFix{{Idx: 0, Sec: 8, PK: 2}}, Body: []byte{}},
	}
	l := New(env.Arena, head, tables)
	for _, ent := range ents {
		if err := l.Append(77, ent); err != nil {
			t.Fatal(err)
		}
	}
	walk := func(got []Entry) {
		t.Helper()
		for i := range got {
			if want := ents[len(ents)-1-i]; !reflect.DeepEqual(got[i], want) {
				t.Errorf("walk step %d: %+v, want %+v", i, got[i], want)
			}
		}
		if len(got) != len(ents) {
			t.Errorf("walked %d entries, want %d", len(got), len(ents))
		}
	}
	var got []Entry
	if err := l.Undo(func(i int, ent Entry) error {
		ent.Body = append([]byte{}, ent.Body...)
		got = append(got, ent)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	walk(got)

	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	l = New(env2.Arena, head, tables)
	got = got[:0]
	n, err := l.Recover(func(ent Entry) error {
		ent.Body = append([]byte{}, ent.Body...)
		got = append(got, ent)
		return nil
	}, false)
	if err != nil || n != len(ents) {
		t.Fatalf("Recover: %d entries, %v", n, err)
	}
	walk(got)
	if h, u := env2.Dev.ReadU64(head), env2.Arena.Usage()[pmalloc.TagLog]; h != 0 || u != 0 {
		t.Errorf("Recover left head %d and %d log bytes", h, u)
	}
}

// TestRecoverRefusesCycle: a durable list whose oldest entry links back to the
// newest — no crash makes one, a corrupt image can — is refused as corrupt
// instead of walked for ever.
func TestRecoverRefusesCycle(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 8 << 20})
	hdr, err := env.Arena.Alloc(8, pmalloc.TagOther)
	if err != nil {
		t.Fatal(err)
	}
	head := int64(hdr)
	env.Dev.WriteU64Durable(head, 0)
	l := New(env.Arena, head, testTables())
	for k := uint64(1); k <= 2; k++ {
		if err := l.Append(1, Entry{Type: core.WalInsert, Table: 1, Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	newest := env.Dev.ReadU64(head)
	oldest := int64(env.Dev.ReadU64(int64(newest) + oNext))
	env.Dev.WriteU64Durable(oldest+oNext, newest)
	if _, err := l.Recover(func(Entry) error { return nil }, false); !core.IsCorrupt(err) {
		t.Fatalf("Recover over a cyclic list: %v, want a corrupt error", err)
	}
}
