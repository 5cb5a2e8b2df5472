package core

import (
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmfs"
)

func newWalFS(t testing.TB) (*nvm.Device, *pmfs.FS) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(32 << 20))
	return dev, pmfs.Format(dev, 0, 32<<20, pmfs.Config{ExtentSize: 64 << 10})
}

func TestWalReplayCommittedOnly(t *testing.T) {
	_, fs := newWalFS(t)
	w, err := NewFsWAL(fs, "wal", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(WalRecord{Type: WalInsert, TxnID: 1, Table: 0, Key: 10, After: []byte("a")})
	w.TxnCommitted(1)
	w.Append(WalRecord{Type: WalInsert, TxnID: 2, Table: 0, Key: 20, After: []byte("b")})
	// txn 2 never commits.
	w.Flush()

	var keys []uint64
	maxTxn, err := w.Replay(0, func(r WalRecord) error {
		keys = append(keys, r.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != 10 {
		t.Fatalf("replayed %v, want [10]", keys)
	}
	if maxTxn != 2 {
		t.Fatalf("maxTxn = %d, want 2 (in-flight txns count too)", maxTxn)
	}
}

func TestWalGroupCommitBatching(t *testing.T) {
	_, fs := newWalFS(t)
	w, _ := NewFsWAL(fs, "wal", 8)
	for txn := uint64(1); txn <= 7; txn++ {
		w.Append(WalRecord{Type: WalInsert, TxnID: txn, Key: txn})
		w.TxnCommitted(txn)
	}
	if got := w.Stats().Fsyncs; got != 0 {
		t.Errorf("flushed before the group filled: %d fsyncs", got)
	}
	w.Append(WalRecord{Type: WalInsert, TxnID: 8, Key: 8})
	w.TxnCommitted(8)
	st := w.Stats()
	if st.Fsyncs != 1 {
		t.Errorf("Fsyncs = %d after full group", st.Fsyncs)
	}
	if st.Records != 16 || st.Bytes <= 0 {
		t.Errorf("Records = %d (want 16), Bytes = %d (want > 0)", st.Records, st.Bytes)
	}
}

// TestWalBufferShrinksAfterLoad: a load-sized group grows the record buffer;
// the buffer survives groups of like size, and the first group that uses under
// a quarter of it releases it, so the load's high-water mark is not held for
// the rest of the run.
func TestWalBufferShrinksAfterLoad(t *testing.T) {
	_, fs := newWalFS(t)
	w, _ := NewFsWAL(fs, "wal", 1)
	group := func(txn uint64, records, size int) {
		for i := 0; i < records; i++ {
			w.Append(WalRecord{Type: WalInsert, TxnID: txn, Key: uint64(i), After: make([]byte, size)})
		}
		if err := w.TxnCommitted(txn); err != nil {
			t.Fatal(err)
		}
	}
	group(1, 256, 1024)
	loaded := cap(w.scratch)
	if loaded < 256<<10 {
		t.Fatalf("a 256 KB group left a %d-byte buffer", loaded)
	}
	group(2, 200, 1024)
	if got := cap(w.scratch); got != loaded {
		t.Errorf("a group of like size moved the buffer from %d to %d bytes", loaded, got)
	}
	group(3, 1, 100)
	if got := cap(w.scratch); got >= loaded/4 {
		t.Errorf("after a 100-byte group the buffer still holds %d bytes (the load grew it to %d)", got, loaded)
	}
	var n int
	if _, err := w.Replay(0, func(WalRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 457 {
		t.Errorf("replayed %d records, want 457", n)
	}
}

func TestWalDropTail(t *testing.T) {
	_, fs := newWalFS(t)
	w, _ := NewFsWAL(fs, "wal", 100)
	w.Append(WalRecord{Type: WalInsert, TxnID: 1, Key: 1})
	w.TxnCommitted(1)
	mark := w.Mark()
	w.Append(WalRecord{Type: WalInsert, TxnID: 2, Key: 2})
	w.Append(WalRecord{Type: WalUpdate, TxnID: 2, Key: 2})
	w.DropTail(mark) // abort txn 2
	w.Flush()
	var n int
	w.Replay(0, func(r WalRecord) error { n++; return nil })
	if n != 1 {
		t.Fatalf("replayed %d records after DropTail, want 1", n)
	}
}

func TestWalTornTailIgnored(t *testing.T) {
	dev, fs := newWalFS(t)
	w, _ := NewFsWAL(fs, "wal", 1)
	w.Append(WalRecord{Type: WalInsert, TxnID: 1, Key: 1, After: []byte("x")})
	w.TxnCommitted(1)
	// Simulate a torn tail: unsynced growth lost in a crash is handled by
	// pmfs, but a partially valid record must also be tolerated. Append
	// garbage length prefix directly.
	validLen := w.SizeBytes()
	f, _ := fs.OpenFile("wal")
	f.Append([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3})
	f.Sync()
	dev.Crash()
	w2, err := OpenFsWAL(fs, "wal", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := w2.Replay(0, func(r WalRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records with torn tail", n)
	}
	// Replay truncated the debris; new appends land right after the last
	// valid record instead of beyond the garbage.
	if w2.SizeBytes() != validLen {
		t.Fatalf("log size %d after replay, want debris truncated to %d",
			w2.SizeBytes(), validLen)
	}
}

func TestWalTruncate(t *testing.T) {
	_, fs := newWalFS(t)
	w, _ := NewFsWAL(fs, "wal", 1)
	w.Append(WalRecord{Type: WalInsert, TxnID: 1, Key: 1, After: make([]byte, 500)})
	w.TxnCommitted(1)
	if w.SizeBytes() == 0 {
		t.Fatal("log empty after flush")
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.SizeBytes() != 0 {
		t.Errorf("SizeBytes = %d after truncate", w.SizeBytes())
	}
}

func TestWalBeforeAfterImages(t *testing.T) {
	_, fs := newWalFS(t)
	w, _ := NewFsWAL(fs, "wal", 1)
	w.Append(WalRecord{Type: WalUpdate, TxnID: 3, Table: 2, Key: 77,
		Before: []byte("before image"), After: []byte("after image")})
	w.TxnCommitted(3)
	var got WalRecord
	w.Replay(0, func(r WalRecord) error {
		got = WalRecord{Type: r.Type, TxnID: r.TxnID, Table: r.Table, Key: r.Key,
			Before: append([]byte(nil), r.Before...), After: append([]byte(nil), r.After...)}
		return nil
	})
	if got.Table != 2 || got.Key != 77 ||
		string(got.Before) != "before image" || string(got.After) != "after image" {
		t.Fatalf("record mismatch: %+v", got)
	}
}
