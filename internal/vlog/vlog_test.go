package vlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
)

func testFS(t *testing.T) *FSBackend {
	t.Helper()
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, FSExtent: 64 << 10})
	return NewFSBackend(env.FS, "vlog-")
}

func val(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestAppendReadRoundtrip(t *testing.T) {
	m, err := Open(testFS(t), Config{SegSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		key uint64
		v   []byte
		ptr core.VlogPtr
	}
	rng := rand.New(rand.NewSource(1))
	var recs []rec
	for i := 0; i < 200; i++ {
		k := uint64(i)
		v := val(64+rng.Intn(2000), byte(i))
		ptr, err := m.Append(k, v)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{k, v, ptr})
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation across segments, got %d", st.Segments)
	}
	for _, r := range recs {
		got, err := m.Read(r.ptr, r.key)
		if err != nil {
			t.Fatalf("Read(%v): %v", r.ptr, err)
		}
		if !bytes.Equal(got, r.v) {
			t.Fatalf("Read(%v): wrong value", r.ptr)
		}
	}
	// Wrong key for a valid pointer must be a typed corrupt error.
	if _, err := m.Read(recs[0].ptr, recs[0].key+1); !core.IsCorrupt(err) {
		t.Fatalf("wrong-key read: got %v, want corrupt", err)
	}
}

func TestOversizeRecordGetsOwnSegment(t *testing.T) {
	m, err := Open(testFS(t), Config{SegSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	big := val(1<<12, 0xAB)
	ptr, err := m.Append(7, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(ptr, 7)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversize read: %v", err)
	}
}

func TestReopenRecoversValidPrefix(t *testing.T) {
	b := testFS(t)
	m, err := Open(b, Config{SegSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := m.Append(1, val(100, 1))
	p2, _ := m.Append(2, val(100, 2))
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	head := m.HeadMark()
	// Unsynced garbage past the head: an aborted append's debris.
	si := m.segs[m.active]
	if _, err := si.f.WriteAt([]byte("torn-write-debris"), si.size); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(b, Config{SegSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.RestrictToHead(head); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ptr core.VlogPtr
		key uint64
		fb  byte
	}{{p1, 1, 1}, {p2, 2, 2}} {
		got, err := m2.Read(c.ptr, c.key)
		if err != nil || !bytes.Equal(got, val(100, c.fb)) {
			t.Fatalf("post-reopen read key %d: %v", c.key, err)
		}
	}
	if got := m2.HeadMark(); got != head {
		t.Fatalf("head after reopen = %+v, want %+v", got, head)
	}
}

func TestRestrictToHeadDropsLaterSegments(t *testing.T) {
	b := testFS(t)
	m, err := Open(b, Config{SegSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := m.Append(1, val(512, 1))
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	head := m.HeadMark()
	// Appends past the checkpoint rotate into new segments; a crash before
	// the next manifest commit must drop them all.
	for i := uint64(2); i < 8; i++ {
		if _, err := m.Append(i, val(512, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(b, Config{SegSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.RestrictToHead(head); err != nil {
		t.Fatal(err)
	}
	if st := m2.Stats(); st.Segments != 1 {
		t.Fatalf("segments after restrict = %d, want 1", st.Segments)
	}
	if _, err := m2.Read(p1, 1); err != nil {
		t.Fatalf("checkpointed record lost: %v", err)
	}
	// New appends after the restrict must not collide with removed ids'
	// durable debris: ids are never reused below the head segment.
	p3, err := m2.Append(9, val(512, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, err := m2.Read(p3, 9); err != nil || !bytes.Equal(got, val(512, 9)) {
		t.Fatalf("post-restrict append read: %v", err)
	}
}

func TestRestrictToHeadPastPrefixIsCorrupt(t *testing.T) {
	b := testFS(t)
	m, err := Open(b, Config{SegSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(1, val(64, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	head := m.HeadMark()
	head.Off += 1000 // manifest claims more durable bytes than exist
	m2, err := Open(b, Config{SegSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.RestrictToHead(head); !core.IsCorrupt(err) {
		t.Fatalf("head past prefix: got %v, want corrupt", err)
	}
}

func TestDiscardVictimRemove(t *testing.T) {
	m, err := Open(testFS(t), Config{SegSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var ptrs []core.VlogPtr
	for i := uint64(0); i < 40; i++ {
		p, err := m.Append(i, val(256, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.PickVictim(0.5); ok {
		t.Fatal("victim picked with zero discard")
	}
	// Mark every record of segment 1 dead.
	var seg1Bytes int64
	for _, p := range ptrs {
		if p.Seg == 1 {
			m.Discard(1, DiscardOf(p))
			seg1Bytes += DiscardOf(p)
		}
	}
	id, ok := m.PickVictim(0.5)
	if !ok || id != 1 {
		t.Fatalf("PickVictim = %d,%v, want 1,true", id, ok)
	}
	before := m.Stats()
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if after.Reclaimed-before.Reclaimed != seg1Bytes {
		t.Fatalf("reclaimed %d, want %d", after.Reclaimed-before.Reclaimed, seg1Bytes)
	}
	if m.Has(1) {
		t.Fatal("segment 1 still live after Remove")
	}
	// A pointer into the removed segment validates as shadowed, not corrupt.
	if err := m.Validate(ptrs[0]); err != nil {
		t.Fatalf("Validate into removed segment: %v", err)
	}
	// But reading it is corrupt — the engine must never chase such a pointer.
	if _, err := m.Read(ptrs[0], 0); !core.IsCorrupt(err) {
		t.Fatalf("read into removed segment: got %v, want corrupt", err)
	}
}

func TestActiveSegmentNeverVictim(t *testing.T) {
	m, err := Open(testFS(t), Config{SegSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Append(1, val(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.Discard(p.Seg, DiscardOf(p))
	if id, ok := m.PickVictim(0.1); ok {
		t.Fatalf("active segment %d picked as victim", id)
	}
}

func TestScanWalksRecordsInOrder(t *testing.T) {
	m, err := Open(testFS(t), Config{SegSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{}
	for i := uint64(0); i < 10; i++ {
		v := val(100+int(i), byte(i))
		if _, err := m.Append(i, v); err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var lastKey uint64
	n := 0
	err = m.Scan(1, func(key uint64, ptr core.VlogPtr, v []byte) error {
		if n > 0 && key != lastKey+1 {
			return fmt.Errorf("out of order: %d after %d", key, lastKey)
		}
		if !bytes.Equal(v, want[key]) {
			return fmt.Errorf("key %d: wrong value", key)
		}
		got, err := m.Read(ptr, key)
		if err != nil || !bytes.Equal(got, v) {
			return fmt.Errorf("key %d: scan pointer does not resolve: %v", key, err)
		}
		lastKey = key
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("scan saw %d records, want %d", n, len(want))
	}
}

// TestReopenManySegmentsKeepsSyncedRecords: Open reads, CRC-walks and
// truncates each segment in turn. Twenty crash + reopen cycles over a log
// that grows past eight segments, on a device cache smaller than the log,
// must find every synced record again, valid and byte for byte.
func TestReopenManySegmentsKeepsSyncedRecords(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 64 << 20, CacheSize: 64 << 10, FSExtent: 16 << 10})
	open := func() *Manager {
		t.Helper()
		m, err := Open(NewFSBackend(env.FS, "vlog-"), Config{SegSize: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open()
	var ptrs []core.VlogPtr
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < 40; i++ {
			key := uint64(len(ptrs))
			p, err := m.Append(key, val(200+int(key%7)*100, byte(key)))
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		env.Dev.Crash()
		var err error
		if env, err = env.Reopen(); err != nil {
			t.Fatal(err)
		}
		m = open()
		for key, p := range ptrs {
			if err := m.Validate(p); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			got, err := m.Read(p, uint64(key))
			if err != nil || !bytes.Equal(got, val(200+key%7*100, byte(key))) {
				t.Fatalf("cycle %d: key %d: %v", cycle, key, err)
			}
		}
	}
	if st := m.Stats(); st.Segments < 8 {
		t.Fatalf("only %d segments; the multi-segment open was not exercised", st.Segments)
	}
}

// FuzzVlogRecord bit-flips encoded records: decode must either reject
// (ok=false) or return exactly the original key and value — never a wrong
// value. Flips in the key or value body are caught by the CRC; flips in the
// length field must not cause huge allocations or out-of-bounds reads.
func FuzzVlogRecord(f *testing.F) {
	f.Add(uint32(1), uint64(42), []byte("hello"), 0, byte(0))
	f.Add(uint32(1), uint64(0), []byte{}, 5, byte(0x80))
	f.Add(uint32(7), uint64(1<<40), bytes.Repeat([]byte{0xEE}, 600), 9, byte(1))
	f.Add(uint32(2), uint64(9), []byte("x"), 8, byte(0xFF))  // vlen field
	f.Add(uint32(3), uint64(9), []byte("abcd"), 16, byte(4)) // crc tail
	f.Fuzz(func(t *testing.T, segID uint32, key uint64, v []byte, flipAt int, flipMask byte) {
		if len(v) > 1<<16 {
			t.Skip()
		}
		enc := EncodeRecord(nil, segID, key, v)
		if flipMask != 0 && len(enc) > 0 {
			idx := flipAt % len(enc)
			if idx < 0 {
				idx += len(enc)
			}
			enc[idx] ^= flipMask
		}
		k, got, n, ok := DecodeRecord(enc, segID)
		if !ok {
			return // rejection is always sound
		}
		// Accepted: must be byte-exact the original (an unflipped input, or a
		// flip the mask turned into a no-op).
		if k != key || !bytes.Equal(got, v) || n != len(enc) {
			t.Fatalf("accepted corrupted record: key %d->%d, %d value bytes", key, k, len(got))
		}
		// Cross-segment replay: the same bytes under another seed never verify.
		if _, _, _, ok := DecodeRecord(enc, segID+1); ok {
			t.Fatal("record verified under wrong segment id")
		}
	})
}
