package undolog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"nstore/internal/core"
	"nstore/internal/nvm"
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

// testEpoch is the epoch the fuzzed images are decoded against.
const testEpoch = 7

// image builds an entry image of testEpoch as Append lays it out, sealed.
func image(typ, table uint8, key uint64, fixes [][2]uint8, body []byte) []byte {
	b := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(b[oEpoch:], testEpoch)
	binary.LittleEndian.PutUint32(b[oSeq:], 3)
	b[oType], b[oTable], b[oFixes] = typ, table, uint8(len(fixes))
	binary.LittleEndian.PutUint16(b[oBody:], uint16(len(body)))
	binary.LittleEndian.PutUint64(b[oKey:], key)
	for i, f := range fixes {
		b = binary.LittleEndian.AppendUint64(append(b, f[0], f[1]), uint64(i+7)<<32|uint64(i+1))
	}
	return seal(append(b, body...))
}

// frameEnd returns the end of the frame b's header states, and whether b
// holds it.
func frameEnd(b []byte) (int, bool) {
	if len(b) < headerSize {
		return 0, false
	}
	end := headerSize + fixSize*int(b[oFixes]) + int(binary.LittleEndian.Uint16(b[oBody:]))
	return end, end <= len(b)
}

// seal writes into b the CRC-32C of its frame, computed over a copy whose CRC
// word is zero, if b holds the frame.
func seal(b []byte) []byte {
	if end, ok := frameEnd(b); ok {
		c := append([]byte(nil), b[:end]...)
		binary.LittleEndian.PutUint32(c[oCRC:], 0)
		binary.LittleEndian.PutUint32(b[oCRC:], crc32.Checksum(c, crc32.MakeTable(crc32.Castagnoli)))
	}
	return b
}

// refused states Decode's checks on their own. An image is stale — no entry
// of testEpoch — if it is shorter than the header, of another epoch, shorter
// than its frame, or its CRC fails; it is corrupt if it proves itself but has
// an unknown type, a table out of range, or a repair record of an index the
// table lacks or of an unknown op.
func refused(b []byte, tables []*core.TableMeta) (stale, corrupt bool) {
	if _, ok := frameEnd(b); !ok || binary.LittleEndian.Uint64(b[oEpoch:]) != testEpoch {
		return true, false
	}
	if sealed := seal(append([]byte(nil), b...)); !bytes.Equal(sealed[oCRC:oCRC+4], b[oCRC:oCRC+4]) {
		return true, false
	}
	if b[oType] < core.WalInsert || b[oType] > core.WalDelete || int(b[oTable]) >= len(tables) {
		return false, true
	}
	for i := 0; i < int(b[oFixes]); i++ {
		r := b[headerSize+fixSize*i:]
		if int(r[0]) >= len(tables[b[oTable]].Schema.Secondary) || r[1] != opAdded && r[1] != opRemoved {
			return false, true
		}
	}
	return false, false
}

// FuzzUndoEntry: no entry image panics Decode; an image is refused as stale,
// refused with a corrupt error, or decoded, exactly as refused says; and an
// accepted one decodes to the fields and the body it holds. With seal set the
// image's CRC is made to hold first, so that the checks behind it are reached.
func FuzzUndoEntry(f *testing.F) {
	tables := testTables()
	f.Add(image(core.WalInsert, 1, 5, nil, make([]byte, 8)), false)
	f.Add(image(core.WalUpdate, 0, 9, [][2]uint8{{0, opRemoved}, {1, opAdded}}, make([]byte, 17)), false)
	f.Add(image(core.WalDelete, 0, 3, [][2]uint8{{2, opAdded}}, nil), false)
	f.Add(image(core.WalInsert, 200, 5, nil, nil), false)
	f.Add(image(core.WalUpdate, 1, 5, [][2]uint8{{0, opAdded}}, nil), false)
	badCRC := image(core.WalUpdate, 0, 9, [][2]uint8{{0, opRemoved}}, make([]byte, 17))
	badCRC[len(badCRC)-1] ^= 1
	f.Add(badCRC, false)
	otherEpoch := image(core.WalInsert, 1, 5, nil, make([]byte, 8))
	binary.LittleEndian.PutUint64(otherEpoch[oEpoch:], testEpoch-1)
	f.Add(seal(otherEpoch), false)
	pastChunk := image(core.WalUpdate, 1, 5, nil, make([]byte, 16))
	f.Add(pastChunk[:len(pastChunk)-1], true)
	f.Fuzz(func(t *testing.T, b []byte, sealIt bool) {
		if sealIt {
			seal(b)
		}
		ent, err := Decode(b, testEpoch, tables)
		switch stale, corrupt := refused(b, tables); {
		case stale && err != errStale:
			t.Fatalf("a stale image: Decode %v, want errStale", err)
		case corrupt && !core.IsCorrupt(err):
			t.Fatalf("a corrupt entry: Decode %v, want a corrupt error", err)
		case !stale && !corrupt && err != nil:
			t.Fatalf("a valid entry: Decode %v", err)
		}
		if err != nil {
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

// commitOff is where a header chunk's second line starts in its payload: a
// chunk of more than a line starts one, and its payload 16 bytes into it.
const commitOff = nvm.LineSize - pmalloc.HeaderSize

// newLog formats a log whose commit line is the second line of a chunk of
// its own, as in an engine's header.
func newLog(t *testing.T) (*core.Env, *Log) {
	t.Helper()
	env := core.NewEnv(core.EnvConfig{DeviceSize: 8 << 20})
	hdr, err := env.Arena.Alloc(commitOff+nvm.LineSize, pmalloc.TagOther)
	if err != nil {
		t.Fatal(err)
	}
	l := Format(env.Arena, int64(hdr)+commitOff, testTables())
	env.Arena.SetPersisted(hdr) // its fence makes the line durable too
	return env, l
}

// crash crashes env's device and reopens its arena.
func crash(t *testing.T, env *core.Env) *core.Env {
	t.Helper()
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	return env2
}

// recoverLog opens the log whose commit line is at line and recovers it,
// collecting the entries undone in order, and then frees every log chunk as
// an engine's sweep does.
func recoverLog(env *core.Env, line int64) (*Log, []Entry, error) {
	l := Open(env.Arena, line, testTables())
	chunks, _ := core.PersistedChunks(env.Arena)
	var got []Entry
	_, err := l.Recover(chunks, func(ent Entry) error {
		ent.Body = append([]byte{}, ent.Body...)
		got = append(got, ent)
		return nil
	}, false)
	core.FreeOrphans(env.Arena, chunks, func(c core.Chunk) bool { return c.Tag == pmalloc.TagLog })
	return l, got, err
}

// TestAppendUndoRecover: the entries a transaction appends are walked back
// newest first as they were appended, by Undo and, after a crash, by Recover,
// which moves the epoch on.
func TestAppendUndoRecover(t *testing.T) {
	env, l := newLog(t)
	ents := []Entry{
		{Type: core.WalInsert, Table: 1, Key: 4, Body: []byte{1, 2, 3}},
		{Type: core.WalUpdate, Table: 0, Key: 9, Fixes: []core.SecFix{{Idx: 1, Sec: 3, PK: 9}, {Idx: 1, Add: true, Sec: 4, PK: 9}}, Body: []byte{5}},
		{Type: core.WalDelete, Table: 0, Key: 2, Fixes: []core.SecFix{{Idx: 0, Sec: 8, PK: 2}}, Body: []byte{}},
	}
	for _, ent := range ents {
		if err := l.Append(ent); err != nil {
			t.Fatal(err)
		}
	}
	env.Dev.Fence() // the engine's, before it writes what the entries guard
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

	env2 := crash(t, env)
	l2, got, err := recoverLog(env2, l.line)
	if err != nil {
		t.Fatal(err)
	}
	walk(got)
	if e, u := env2.Dev.ReadU64(l.line), env2.Arena.Usage()[pmalloc.TagLog]; e != l.epoch+1 || l2.epoch != e || u != 0 {
		t.Errorf("Recover left epoch %d (the log's %d, want %d) and %d log bytes", e, l2.epoch, l.epoch+1, u)
	}
}

// TestRecoverPicksTheOpenEpoch: of the log chunks a crash leaves persisted,
// Recover undoes exactly those of the open epoch whose CRC holds. A committed
// transaction's entries — stale behind its epoch, one still marked persisted
// (pmalloc.Arena.FreeStreamed) — are not undone, and neither is an entry torn
// inside its append's fence interval.
func TestRecoverPicksTheOpenEpoch(t *testing.T) {
	env, l := newLog(t)
	for k := uint64(1); k <= 2; k++ {
		if err := l.Append(Entry{Type: core.WalUpdate, Table: 1, Key: k, Body: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Truncate(nil)
	open := []Entry{
		{Type: core.WalInsert, Table: 1, Key: 10, Body: []byte{1}},
		{Type: core.WalUpdate, Table: 0, Key: 11, Fixes: []core.SecFix{{Idx: 0, Sec: 8, PK: 11}}, Body: []byte{2}},
	}
	for _, ent := range append(open, Entry{Type: core.WalUpdate, Table: 1, Key: 12, Body: bytes.Repeat([]byte{7}, 40)}) {
		if err := l.Append(ent); err != nil {
			t.Fatal(err)
		}
	}
	// The last entry's second line never reached the medium.
	torn := int64(l.ents[2].p) + nvm.LineSize - pmalloc.HeaderSize
	env.Dev.Write(torn, make([]byte, nvm.LineSize))
	env.Dev.Sync(torn, nvm.LineSize)
	env2 := crash(t, env)
	stale := 0
	chunks, _ := core.PersistedChunks(env2.Arena)
	for _, c := range chunks {
		if c.Tag == pmalloc.TagLog && env2.Dev.ReadU64(int64(c.P)) == l.epoch-1 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no committed entry is left persisted: the test checks nothing")
	}
	_, got, err := recoverLog(env2, l.line)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Entry{open[1], open[0]}; !reflect.DeepEqual(got, want) {
		t.Errorf("Recover undid %+v, want %+v", got, want)
	}
}

// TestAppendCost pins what the log costs the device, counter by counter: an
// append of an entry that fills one line, one of an entry that spans two
// lines with three repair records, and the truncation that commits them, on a
// cold cache (everything evicted before each step) and on a warm one. The
// transaction measured is the third: the first two carved the chunks it
// recycles, as a transaction in steady state does. An append streams its
// lines and fences nothing (the engine's next fence makes it durable); the
// truncation streams the commit line and the free mark of the entry chunk
// kept aside before (pmalloc.Arena.FreeStreamed), and fences once — no load
// and no CLWB on either cache.
func TestAppendCost(t *testing.T) {
	env, l := newLog(t)
	oneLine := Entry{Type: core.WalUpdate, Table: 1, Key: 3, Body: make([]byte, 16)}
	twoLines := Entry{Type: core.WalUpdate, Table: 0, Key: 9, Body: make([]byte, 16), Fixes: []core.SecFix{
		{Idx: 0, Sec: 1, PK: 9}, {Idx: 0, Add: true, Sec: 2, PK: 9}, {Idx: 1, Add: true, Sec: 3, PK: 9}}}
	if n := headerSize + len(oneLine.Body); pmalloc.ChunkSize(n) != nvm.LineSize {
		t.Fatalf("the one-line entry is a %d-byte chunk", pmalloc.ChunkSize(n))
	}
	if n := headerSize + fixSize*3 + len(twoLines.Body); pmalloc.ChunkSize(n) != 2*nvm.LineSize {
		t.Fatalf("the two-line entry is a %d-byte chunk", pmalloc.ChunkSize(n))
	}
	type counts struct{ loads, stores, clwbs, fences uint64 }
	steps := []struct {
		name string
		do   func() error
	}{
		{"append one line", func() error { return l.Append(oneLine) }},
		{"append two lines", func() error { return l.Append(twoLines) }},
		{"truncate", func() error { l.Truncate(nil); return nil }},
	}
	for _, c := range []struct {
		cache string
		want  []counts // per step
	}{
		{"cold", []counts{{0, 1, 0, 0}, {0, 2, 0, 0}, {0, 2, 0, 1}}},
		{"warm", []counts{{0, 1, 0, 0}, {0, 2, 0, 0}, {0, 2, 0, 1}}},
	} {
		for txn := 0; txn < 3; txn++ {
			for i, s := range steps {
				if c.cache == "cold" {
					env.Dev.EvictAll()
				}
				before := env.Dev.Stats()
				if err := s.do(); err != nil {
					t.Fatal(err)
				}
				d := env.Dev.Stats().Sub(before)
				if got := (counts{d.Loads, d.Stores, d.Flushes, d.Fences}); txn == 2 && got != c.want[i] {
					t.Errorf("%s cache, %s: %d loads, %d stores, %d CLWBs, %d fences; want %+v", c.cache, s.name, got.loads, got.stores, got.clwbs, got.fences, c.want[i])
				}
			}
		}
	}
}

// TestCommitLineOwnsItsLine: the commit line starts a cache line — Format
// refuses one that does not — and holds the epoch and zeros, nothing else, on
// the medium. A crash between the line's stream and its fence reopens the log
// at the old epoch or the new one, whatever the crash kept of the line: none
// of it, all of it, or any 8-byte prefix.
func TestCommitLineOwnsItsLine(t *testing.T) {
	env, l := newLog(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Format took a commit line 8 bytes into a cache line")
			}
		}()
		Format(env.Arena, l.line+8, testTables())
	}()
	want := func(epoch uint64) []byte {
		return binary.LittleEndian.AppendUint64(make([]byte, 0, nvm.LineSize), epoch)[:nvm.LineSize]
	}
	if !env.Dev.DurableEqual(l.line, want(1)) {
		t.Fatal("the formatted commit line is not epoch 1 and zeros on the medium")
	}
	ent := Entry{Type: core.WalUpdate, Table: 1, Key: 3, Body: make([]byte, 16)}
	if err := l.Append(ent); err != nil {
		t.Fatal(err)
	}
	l.Truncate(nil)
	if !env.Dev.DurableEqual(l.line, want(2)) {
		t.Fatal("the committed commit line is not epoch 2 and zeros on the medium")
	}

	if err := l.Append(ent); err != nil {
		t.Fatal(err)
	}
	env.Dev.Fence()
	env.Dev.InjectFaults(nvm.FaultPlan{CrashAfterFences: 0})
	if crashed, _ := nvm.Crashed(func() error { l.Truncate(nil); return nil }); !crashed {
		t.Fatal("the truncation's fence did not crash")
	}
	var line []byte
	env.Dev.Unfenced(func(off int64, buf []byte) {
		if off == l.line {
			line = append([]byte(nil), buf...)
		}
	})
	if !bytes.Equal(line, want(3)) {
		t.Fatalf("the un-fenced commit line is %x, want epoch 3 and zeros", line)
	}
	medium := env.Dev.CloneMedium()
	for kept := 0; kept <= nvm.LineSize; kept += 8 {
		dev := medium.CloneMedium()
		if kept > 0 {
			dev.Write(l.line, line[:kept])
			dev.Sync(l.line, kept)
		}
		env2, err := (&core.Env{Dev: dev}).Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if got := Open(env2.Arena, l.line, testTables()).epoch; got != 2 && got != 3 {
			t.Errorf("%d bytes of the line kept: the log reopens at epoch %d, want 2 or 3", kept, got)
		}
	}
}
