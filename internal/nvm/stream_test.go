package nvm

import (
	"bytes"
	"flag"
	"testing"
	"time"
)

// streamSeed replays the fault cases: go test -run WriteStream -seed=N
var streamSeed = flag.Int64("seed", 1, "seed for the WriteStream fault cases")

func lowNVMDevice() *Device {
	cfg := DefaultConfig(1 << 20)
	cfg.CacheSize = 64 << 10
	ProfileLowNVM.Apply(&cfg)
	return NewDevice(cfg)
}

// An object streamed at any 16-byte phase costs one store per whole line —
// no load, no CLWB — plus exactly what Write + WriteBack costs for the
// partial line at either end, whether or not the range was cached before.
func TestWriteStreamCosts(t *testing.T) {
	const size = 5 * LineSize
	for _, warm := range []bool{false, true} {
		for _, phase := range []int64{0, 16, 32, 48} {
			off := 8*LineSize + phase
			head := int(-off & (LineSize - 1))
			whole := (size - head) &^ (LineSize - 1)
			tail := size - head - whole

			got, want := lowNVMDevice(), lowNVMDevice()
			if warm {
				for _, d := range []*Device{got, want} {
					d.Read(off, make([]byte, size))
				}
			}
			got.ResetStats()
			want.ResetStats()
			p := fill(0x5A, size)
			got.WriteStream(off, p)
			if head > 0 {
				want.Write(off, p[:head])
				want.WriteBack(off, head)
			}
			if tail > 0 {
				want.Write(off+int64(head+whole), p[head+whole:])
				want.WriteBack(off+int64(head+whole), tail)
			}
			exp := want.Stats()
			exp.Stores += uint64(whole / LineSize)
			exp.BytesWritten += uint64(whole)
			exp.Stall += ProfileLowNVM.WriteBackExtra * time.Duration(whole/LineSize)
			if s := got.Stats(); s != exp {
				t.Errorf("warm=%v phase %d: stream cost %+v, want %+v", warm, phase, s, exp)
			}
			if s := got.Stats(); phase == 0 && (s.Loads != 0 || s.Flushes != 0 || s.Stores != size/LineSize) {
				t.Errorf("warm=%v: a line-aligned stream cost %+v, want %d stores and nothing else", warm, s, size/LineSize)
			}
			// The whole lines left the cache: reading one back is a fill.
			loads := got.Stats().Loads
			got.Read(off+int64(head), make([]byte, LineSize))
			if got.Stats().Loads != loads+1 {
				t.Errorf("warm=%v phase %d: a streamed line stayed cached", warm, phase)
			}
		}
	}
}

// The contract of a streamed range is the contract of a written-back one:
// readable at once, durable after the next fence, lost or reordered before.
func TestWriteStreamContract(t *testing.T) {
	const off, size = 4*LineSize + 16, 6 * LineSize
	old, now := fill(0x11, size), fill(0x22, size)

	t.Run("durable only after the fence", func(t *testing.T) {
		d := lowNVMDevice()
		d.Write(off, old)
		d.Sync(off, size)
		d.WriteStream(off, now)
		got := make([]byte, size)
		d.Read(off, got)
		if !bytes.Equal(got, now) {
			t.Fatal("a read between stream and fence saw old bytes")
		}
		d.Crash()
		if !d.DurableEqual(off, old) {
			t.Fatal("un-fenced streamed bytes survived a lose-all crash")
		}
		d.WriteStream(off, now)
		d.Fence()
		d.Crash()
		if !d.DurableEqual(off, now) {
			t.Fatal("streamed bytes lost after a fence")
		}
	})

	t.Run("supersedes a dirty cached line", func(t *testing.T) {
		d := lowNVMDevice()
		d.Write(off, old) // dirty in the cache, never flushed
		d.WriteStream(off, now)
		d.EvictAll()
		d.Fence()
		if !d.DurableEqual(off, now) {
			t.Fatal("an eviction resurrected the bytes the stream overwrote")
		}
		got := make([]byte, size)
		d.Read(off, got)
		if !bytes.Equal(got, now) {
			t.Fatal("read after eviction saw old bytes")
		}
	})

	t.Run("un-fenced candidates under reorder and tear", func(t *testing.T) {
		for _, mode := range []FaultMode{FaultReorder, FaultTear} {
			run := func(seed int64) []byte {
				d := lowNVMDevice()
				d.Write(0, fill(0x11, 64*LineSize))
				d.Sync(0, 64*LineSize)
				d.WriteStream(0, fill(0x22, 64*LineSize))
				d.InjectFaults(FaultPlan{Seed: seed, Mode: mode, KeepProb: 0.5, TearProb: 0.5})
				d.Crash()
				got := make([]byte, 64*LineSize)
				d.Read(0, got)
				return got
			}
			got := run(*streamSeed)
			kept, lost := 0, 0
			for l := 0; l < 64; l++ {
				line := got[l*LineSize : (l+1)*LineSize]
				n := 0
				for n < LineSize && line[n] == 0x22 {
					n++
				}
				if !bytes.Equal(line[n:], fill(0x11, LineSize-n)) || n%8 != 0 || (mode == FaultReorder && n != 0 && n != LineSize) {
					t.Fatalf("seed %d %v: line %d is not a legal write-back of a streamed line: % x", *streamSeed, mode, l, line)
				}
				if n == 0 {
					lost++
				} else {
					kept++
				}
			}
			if kept == 0 || lost == 0 {
				t.Fatalf("seed %d %v: want a proper subset of the streamed lines retained, got kept=%d lost=%d", *streamSeed, mode, kept, lost)
			}
			if !bytes.Equal(got, run(*streamSeed)) {
				t.Fatalf("seed %d %v: the same seed did not replay", *streamSeed, mode)
			}
		}
	})

	t.Run("ablation A1 governs the partial lines", func(t *testing.T) {
		for _, clwb := range []bool{true, false} {
			d := lowNVMDevice()
			d.SetSyncCLWB(clwb)
			d.WriteStream(off, now)
			loads := d.Stats().Loads
			d.Read(off, make([]byte, 8)) // the partial head line
			if hit := d.Stats().Loads == loads; hit != clwb {
				t.Fatalf("SetSyncCLWB(%v): partial line cached after the stream = %v", clwb, hit)
			}
		}
	})
}
