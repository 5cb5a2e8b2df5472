package pmfs

import (
	"bytes"
	"testing"

	"nstore/internal/nvm"
)

func faultFS(t *testing.T) (*nvm.Device, *FS) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(8 << 20))
	fs := Format(dev, 0, 8<<20, Config{ExtentSize: 64 << 10})
	return dev, fs
}

// expectCrash runs fn and requires it to panic with nvm.ErrInjectedCrash.
func expectCrash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nvm.ErrInjectedCrash {
			t.Fatalf("want ErrInjectedCrash, got %v", r)
		}
	}()
	fn()
	t.Fatal("no crash fired")
}

// SyncCrashLost: writes covered by the failed fsync are gone after the crash.
func TestSyncFaultLost(t *testing.T) {
	dev, fs := faultFS(t)
	f, err := fs.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	durable := bytes.Repeat([]byte{0x11}, 4096)
	if _, err := f.WriteAt(durable, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(bytes.Repeat([]byte{0x22}, 4096)); err != nil {
		t.Fatal(err)
	}
	fs.InjectSyncFault(SyncFault{Seed: 1, Mode: SyncCrashLost})
	expectCrash(t, func() { f.Sync() })
	dev.Crash()

	fs2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.OpenFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 4096 {
		t.Fatalf("durable size %d, want the pre-fault 4096", f2.Size())
	}
	got := make([]byte, 4096)
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, durable) {
		t.Fatal("fsync'd prefix damaged by lost-fsync crash")
	}
}

// SyncCrashAfter: everything the fsync covered is durable.
func TestSyncFaultAfter(t *testing.T) {
	dev, fs := faultFS(t)
	f, err := fs.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x33}, 8192)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	fs.InjectSyncFault(SyncFault{Seed: 1, Mode: SyncCrashAfter})
	expectCrash(t, func() { f.Sync() })
	dev.Crash()

	fs2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.OpenFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != int64(len(want)) {
		t.Fatalf("durable size %d, want %d", f2.Size(), len(want))
	}
	got := make([]byte, len(want))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("crash right after fsync lost fsync'd data")
	}
}

// SyncCrashTorn: the filesystem stays openable and every file's durable size
// maps to valid extents; the torn tail is either absent or partially written.
// The fault is installed before the append it tears (pmfs records unsynced
// writes only while one is), and some seed must drop appended bytes.
func TestSyncFaultTorn(t *testing.T) {
	tornData := 0
	for seed := int64(0); seed < 16; seed++ {
		dev, fs := faultFS(t)
		f, err := fs.Create("wal")
		if err != nil {
			t.Fatal(err)
		}
		base := bytes.Repeat([]byte{0x44}, 4096)
		if _, err := f.WriteAt(base, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		// A big multi-extent append whose fsync tears.
		fs.InjectSyncFault(SyncFault{Seed: seed, Mode: SyncCrashTorn})
		if _, err := f.Append(bytes.Repeat([]byte{0x55}, 200<<10)); err != nil {
			t.Fatal(err)
		}
		expectCrash(t, func() { f.Sync() })
		dev.Crash()

		fs2, err := Open(dev, 0)
		if err != nil {
			t.Fatalf("seed %d: open after torn fsync: %v", seed, err)
		}
		f2, err := fs2.OpenFile("wal")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		size := f2.Size()
		if size < 4096 || size > 4096+200<<10 {
			t.Fatalf("seed %d: durable size %d outside [old, new]", seed, size)
		}
		// The whole durable range must be readable (valid extents), and the
		// fsync'd prefix intact.
		got := make([]byte, size)
		if _, err := f2.ReadAt(got, 0); err != nil {
			t.Fatalf("seed %d: read durable range: %v", seed, err)
		}
		if !bytes.Equal(got[:4096], base) {
			t.Fatalf("seed %d: fsync'd prefix damaged", seed)
		}
		if bytes.Count(got[4096:], []byte{0x55}) < len(got)-4096 {
			tornData++
		}
	}
	// The tear drops appended bytes, not only the inode's new size: some
	// seed keeps a size whose tail was never written.
	if tornData == 0 {
		t.Fatal("no torn fsync of 16 dropped any appended byte within the durable size")
	}
}

// Torn fsyncs replay identically from the same seed.
func TestSyncFaultTornDeterministic(t *testing.T) {
	run := func() []byte {
		dev, fs := faultFS(t)
		f, err := fs.Create("wal")
		if err != nil {
			t.Fatal(err)
		}
		fs.InjectSyncFault(SyncFault{Seed: 99, Mode: SyncCrashTorn})
		if _, err := f.WriteAt(bytes.Repeat([]byte{0x66}, 100<<10), 0); err != nil {
			t.Fatal(err)
		}
		expectCrash(t, func() { f.Sync() })
		dev.Crash()
		fs2, err := Open(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := fs2.OpenFile("wal")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, f2.Size())
		if len(got) > 0 {
			if _, err := f2.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same seed produced different torn-fsync outcomes")
	}
}

// The Open-time scrub clamps a durable size that points past valid extents.
func TestOpenScrubClampsBadExtents(t *testing.T) {
	dev, fs := faultFS(t)
	f, err := fs.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0x77}, 10<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn inode flush: size grows to span a second extent whose
	// pointer slot was never persisted.
	ino := fs.inodeOff(fs.findInode("data"))
	dev.WriteU64(ino+inoSize, uint64(100<<10))
	dev.WriteU64(ino+inoExt+8, 0) // second extent slot: never written
	dev.Sync(ino, inodeSize)
	dev.Crash()

	fs2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	size, err := fs2.FileSize("data")
	if err != nil {
		t.Fatal(err)
	}
	if size != 64<<10 {
		t.Fatalf("scrubbed size %d, want clamp to one extent (%d)", size, 64<<10)
	}
	f2, err := fs2.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
}
