package pmfs

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/nvm"
)

// seedFlag replays the seeded cases: go test -run SyncFaultModel -seed=N
var seedFlag = flag.Int64("seed", 1, "seed for the fsync fault-model cases")

// syncedFile returns a file whose first size bytes hold a position-dependent
// old image, fsync'd, in a single 64 KB extent, and that extent's device
// address.
func syncedFile(t *testing.T, fs *FS, name string, size int) (*File, int64, []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	old := make([]byte, size)
	for i := range old {
		old[i] = byte(i*7 + 1)
	}
	if _, err := f.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	addr, _ := f.extentAddr(0)
	return f, addr, old
}

// write() copies with non-temporal stores: a line-aligned write fetches
// nothing and leaves fsync nothing to flush; only the partial line at either
// end goes through the cache.
func TestWriteAtCosts(t *testing.T) {
	dev, fs := faultFS(t)
	f, _, _ := syncedFile(t, fs, "data", 16<<10)
	page := bytes.Repeat([]byte{0xAB}, 4096)
	cost := func(off int64) nvm.Stats {
		t.Helper()
		before := dev.Stats()
		if _, err := f.WriteAt(page, off); err != nil {
			t.Fatal(err)
		}
		mid := dev.Stats()
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		after := dev.Stats()
		if s := after.Sub(mid); s.Flushes != 0 || s.Stores != 0 || s.Loads != 0 || s.Fences != 1 {
			t.Errorf("offset %d: fsync of an unchanged inode cost %+v, want one fence and nothing else", off, s)
		}
		return after.Sub(before)
	}
	if s := cost(4096); s.Loads != 0 || s.Stores != 64 || s.Flushes != 0 || s.Fences != 1 {
		t.Errorf("aligned 4 KB write + fsync cost %+v, want 0 loads, 64 stores, 0 flushes, 1 fence", s)
	}
	if s := cost(4096 + 24); s.Loads > 2 || s.Stores != 65 || s.Flushes != 2 || s.Fences != 1 {
		t.Errorf("unaligned 4 KB write + fsync cost %+v, want ≤ 2 loads, 65 stores, 2 flushes (the end lines), 1 fence", s)
	}

	// An append changes the inode: fsync writes its 16 lines back (CLWB, so
	// the next Size() hits) and still flushes no data.
	before := dev.Stats()
	if _, err := f.Append(page); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := dev.Stats().Sub(before); s.Flushes != inodeSize/nvm.LineSize || s.Stores != 64+1 || s.Fences != 1 {
		t.Errorf("append + fsync cost %+v, want %d inode flushes, 64 data + 1 inode stores, 1 fence", s, inodeSize/nvm.LineSize)
	}

	// Written bytes are readable before the fence drains them.
	fresh := bytes.Repeat([]byte{0xCD}, 4096)
	if _, err := f.WriteAt(fresh, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(fresh))
	if _, err := f.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Error("a read between write and fsync saw old bytes")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	loads := dev.Stats().Loads
	if f.Size() != 20<<10 {
		t.Fatalf("size %d after the append", f.Size())
	}
	if dev.Stats().Loads != loads {
		t.Error("fsync invalidated the inode: Size() after it missed")
	}
}

// fsync faults are stated on the controller buffer. A crash before the fence
// (lost) leaves what was durable already; a torn fsync leaves a prefix of the
// unsynced writes, whole lines, in write order; a crash after the fence leaves
// everything. "Durable already" includes what another file's fsync fenced in
// between: write() data sits in the controller buffer and one fence drains
// all of it.
func TestSyncFaultModel(t *testing.T) {
	const region = 32 << 10
	type write struct{ off, n int }
	shapes := []struct {
		name   string
		writes []write
	}{
		{"aligned/one", []write{{4096, 8192}}},
		{"unaligned/one", []write{{4096 + 24, 8192}}},
		{"aligned/several", []write{{4096, 2048}, {12288, 4096}, {8192, 1024}}},
		{"unaligned/several", []write{{1000, 700}, {1700, 3000}, {9000 + 8, 5000}, {20000, 1500}}}, // two appends share a line, the last one grows the file
	}
	for _, shape := range shapes {
		for _, between := range []bool{false, true} {
			for _, mode := range []SyncFaultMode{SyncCrashLost, SyncCrashTorn, SyncCrashAfter} {
				name := fmt.Sprintf("%s/fence-between=%v/%v", shape.name, between, mode)
				t.Run(name, func(t *testing.T) {
					seeds := 1
					if mode == SyncCrashTorn {
						seeds = 16
					}
					lostTail, keptHead, unfenced := false, false, false
					for s := 0; s < seeds; s++ {
						seed := *seedFlag*1000 + int64(s)
						dev, fs := faultFS(t)
						f, addr, old := syncedFile(t, fs, "f", 16<<10)
						other, _, _ := syncedFile(t, fs, "g", 4096)
						oldSize := f.Size()

						// Three images of the extent: before the writes, with the
						// writes another file's fence covered, with all of them.
						prior := make([]byte, region)
						copy(prior, old)
						fenced := append([]byte(nil), prior...)
						now := append([]byte(nil), prior...)
						var order []int64 // lines touched, in write order
						rng := rand.New(rand.NewSource(seed))
						// Installed before the writes it is to tear; the other
						// file's fsync, if any, passes.
						after := 0
						if between {
							after = 1
						}
						fs.InjectSyncFault(SyncFault{Seed: seed, Mode: mode, AfterSyncs: after})
						for i, w := range shape.writes {
							p := make([]byte, w.n)
							rng.Read(p)
							if _, err := f.WriteAt(p, int64(w.off)); err != nil {
								t.Fatal(err)
							}
							copy(now[w.off:], p)
							for l := int64(w.off) &^ 63; l < int64(w.off+w.n); l += 64 {
								if len(order) == 0 || order[len(order)-1] != l {
									order = append(order, l)
								}
							}
							if between && i == 0 {
								if _, err := other.WriteAt([]byte("elsewhere"), 0); err != nil {
									t.Fatal(err)
								}
								if err := other.Sync(); err != nil {
									t.Fatal(err)
								}
								copy(fenced, now)
							}
						}
						newSize := f.Size()
						unfenced = !bytes.Equal(fenced, now)

						expectCrash(t, func() { f.Sync() })
						dev.Crash()
						got := make([]byte, region)
						dev.Read(addr, got)

						fs2, err := Open(dev, 0)
						if err != nil {
							t.Fatalf("seed %d: open after the crash: %v", seed, err)
						}
						size, err := fs2.FileSize("f")
						if err != nil {
							t.Fatal(err)
						}
						switch mode {
						case SyncCrashLost:
							if !bytes.Equal(got, fenced) {
								t.Fatalf("seed %d: a crash before the fence changed durable bytes (first at %d)", seed, firstDiff(got, fenced))
							}
							if size != oldSize {
								t.Fatalf("seed %d: size %d after a lost fsync, want %d", seed, size, oldSize)
							}
						case SyncCrashAfter:
							if !bytes.Equal(got, now) {
								t.Fatalf("seed %d: a crash after the fence lost bytes (first at %d)", seed, firstDiff(got, now))
							}
							if size != newSize {
								t.Fatalf("seed %d: size %d after a completed fsync, want %d", seed, size, newSize)
							}
						case SyncCrashTorn:
							// Whole lines, new up to some point of the write order and
							// as they were from there on.
							k := 0
							for k < len(order) && bytes.Equal(got[order[k]:order[k]+64], now[order[k]:order[k]+64]) {
								k++
							}
							want := append([]byte(nil), fenced...)
							for _, l := range order[:k] {
								copy(want[l:l+64], now[l:l+64])
							}
							if !bytes.Equal(got, want) {
								t.Fatalf("seed %d: durable bytes are not a line-granular prefix of the writes: %d of %d lines kept, first stray byte at %d", seed, k, len(order), firstDiff(got, want))
							}
							if size != oldSize && size != newSize {
								t.Fatalf("seed %d: size %d is neither old %d nor new %d", seed, size, oldSize, newSize)
							}
							if !bytes.Equal(got, now) {
								lostTail = true
							}
							if !bytes.Equal(got, fenced) {
								keptHead = true
							}
						}
					}
					if mode == SyncCrashTorn && unfenced && (!lostTail || !keptHead) {
						t.Fatalf("16 torn fsyncs from seed %d: lost a tail %v, kept a head %v; want both", *seedFlag*1000, lostTail, keptHead)
					}
				})
			}
		}
	}

	// The plain path: fsync fences; a failed fsync does not, and its retry does.
	t.Run("sync fences, a failed sync does not", func(t *testing.T) {
		for _, fail := range []bool{false, true} {
			dev, fs := faultFS(t)
			f, addr, old := syncedFile(t, fs, "f", 16<<10)
			p := bytes.Repeat([]byte{0xEE}, 4096)
			if _, err := f.WriteAt(p, 4096); err != nil {
				t.Fatal(err)
			}
			want := p
			if fail {
				fs.FailSyncs(0, 1)
				want = old[4096:8192]
			}
			if err := f.Sync(); fail != errors.Is(err, ErrSyncFailed) {
				t.Fatalf("fail=%v: Sync = %v", fail, err)
			}
			if !dev.DurableEqual(addr+4096, want) {
				t.Fatalf("fail=%v: wrong durable bytes after Sync", fail)
			}
			if fail {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				if !dev.DurableEqual(addr+4096, p) {
					t.Fatal("the retried fsync did not make the write durable")
				}
			}
		}
	})
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
