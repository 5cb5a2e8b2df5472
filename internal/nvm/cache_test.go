package nvm

import (
	"testing"
)

// White-box tests of the set-associative write-back cache simulation.

func TestCacheSetConflictEviction(t *testing.T) {
	// 2-way cache: three lines mapping to the same set must evict.
	cfg := DefaultConfig(1 << 20)
	cfg.CacheSize = 2 * LineSize * 4 // 4 sets, 2 ways
	cfg.CacheAssoc = 2
	d := NewDevice(cfg)

	// Lines 0, 4, 8 all map to set 0 (line/64 % 4).
	buf := make([]byte, LineSize)
	d.Read(0*LineSize, buf)
	d.Read(4*LineSize, buf)
	if d.Stats().Loads != 2 {
		t.Fatalf("loads = %d after two cold reads", d.Stats().Loads)
	}
	d.Read(0*LineSize, buf) // hit
	if d.Stats().Loads != 2 {
		t.Fatalf("expected hit, loads = %d", d.Stats().Loads)
	}
	d.Read(8*LineSize, buf) // conflict miss, evicts LRU (line 4)
	if d.Stats().Loads != 3 {
		t.Fatalf("loads = %d after conflict miss", d.Stats().Loads)
	}
	d.Read(4*LineSize, buf) // must miss again
	if d.Stats().Loads != 4 {
		t.Fatalf("LRU victim wrong: loads = %d", d.Stats().Loads)
	}
	d.Read(0*LineSize, buf) // 0 was MRU before 8 came in... evicted by 4's refill
	_ = buf
}

func TestCacheDirtyEvictionWritesBack(t *testing.T) {
	cfg := DefaultConfig(1 << 20)
	cfg.CacheSize = 2 * LineSize // 1 set, 2 ways
	cfg.CacheAssoc = 2
	d := NewDevice(cfg)

	payload := []byte("dirty line payload goes here....")
	d.Write(0, payload) // line 0 dirty
	// Two more distinct lines force line 0 out.
	d.Write(LineSize, make([]byte, 8))
	d.Write(2*LineSize, make([]byte, 8))
	if !d.DurableEqual(0, payload) {
		t.Fatal("evicted dirty line not on the medium")
	}
	if d.Stats().Stores == 0 {
		t.Fatal("eviction not counted as store")
	}
}

func TestCleanEvictionIsSilent(t *testing.T) {
	cfg := DefaultConfig(1 << 20)
	cfg.CacheSize = 2 * LineSize
	cfg.CacheAssoc = 2
	d := NewDevice(cfg)
	buf := make([]byte, 8)
	d.Read(0, buf)
	d.Read(LineSize, buf)
	d.Read(2*LineSize, buf) // evicts a clean line
	if d.Stats().Stores != 0 {
		t.Fatalf("clean eviction stored: %d", d.Stats().Stores)
	}
}

func TestWriteAllocatePolicy(t *testing.T) {
	d := NewDevice(DefaultConfig(1 << 20))
	d.Write(128, []byte{1}) // partial-line store must fill the line first
	if d.Stats().Loads != 1 {
		t.Fatalf("write-allocate fill missing: loads = %d", d.Stats().Loads)
	}
	got := make([]byte, 2)
	d.Read(128, got)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("partial-line write corrupted neighbours: %v", got)
	}
}

func TestFenceDrainsPendingOnce(t *testing.T) {
	d := NewDevice(DefaultConfig(1 << 20))
	d.Write(0, []byte("abc"))
	d.flushRange(0, 3, true)
	if d.DurableEqual(0, []byte("abc")) {
		t.Fatal("flush alone made data durable (no fence yet)")
	}
	d.Fence()
	if !d.DurableEqual(0, []byte("abc")) {
		t.Fatal("fence did not drain the pending flush")
	}
	// Second fence is a no-op for durability but still counted.
	n := d.Stats().Fences
	d.Fence()
	if d.Stats().Fences != n+1 {
		t.Fatal("fence not counted")
	}
}

// The default sync primitive is CLWB + SFENCE (Appendix C): the synced line
// stays cached, so the next read is a hit, and the bytes survive a crash.
// SetSyncCLWB(false) is the CLFLUSH side of ablation A1.
func TestCLWBIsTheDefaultSync(t *testing.T) {
	d := NewDevice(DefaultConfig(1 << 20))
	p := []byte("clwb sync keeps the line")
	d.Write(0, p)
	d.Sync(0, len(p))
	if !d.DurableEqual(0, p) {
		t.Fatal("CLWB sync not durable")
	}
	loads := d.Stats().Loads
	got := make([]byte, len(p))
	d.Read(0, got)
	if d.Stats().Loads != loads {
		t.Fatal("default sync invalidated the line")
	}
	d.Crash()
	d.Read(0, got)
	if string(got) != string(p) {
		t.Fatalf("synced bytes lost in crash: %q", got)
	}
	// The ablation toggle: CLFLUSH sync must invalidate.
	d.SetSyncCLWB(false)
	d.Write(0, p)
	d.Sync(0, len(p))
	loads = d.Stats().Loads
	d.Read(0, got)
	if d.Stats().Loads == loads {
		t.Fatal("CLFLUSH sync retained the line")
	}
}

// WriteBack + one Fence persists several ranges at one durability point.
func TestCLWBWriteBackBatchesUnderOneFence(t *testing.T) {
	d := NewDevice(DefaultConfig(1 << 20))
	a, b := []byte("first range"), []byte("second range")
	d.Write(0, a)
	d.Write(4096, b)
	d.WriteBack(0, len(a))
	d.WriteBack(4096, len(b))
	if d.DurableEqual(0, a) || d.DurableEqual(4096, b) {
		t.Fatal("write-back alone made data durable (no fence yet)")
	}
	fences := d.Stats().Fences
	d.Fence()
	if !d.DurableEqual(0, a) || !d.DurableEqual(4096, b) {
		t.Fatal("fence did not drain both write-backs")
	}
	if d.Stats().Fences != fences+1 {
		t.Fatal("expected exactly one fence")
	}
}

func TestEvictionSupersedesStalePendingFlush(t *testing.T) {
	// Regression: write A, flush (pending), overwrite with B, force the
	// dirty eviction of B, then fence. The medium must hold B, not the
	// stale pending A.
	cfg := DefaultConfig(1 << 20)
	cfg.CacheSize = 2 * LineSize
	cfg.CacheAssoc = 2
	d := NewDevice(cfg)

	a := []byte("AAAAAAAA")
	b := []byte("BBBBBBBB")
	d.Write(0, a)
	d.flushRange(0, len(a), true) // A staged in the controller, line invalidated
	d.Write(0, b)                 // refill (overlays pending A), now dirty with B
	// Evict line 0 by touching two other lines in the single set.
	d.Write(LineSize, []byte{1})
	d.Write(2*LineSize, []byte{1})
	d.Fence() // must NOT let stale A overwrite the evicted B
	if !d.DurableEqual(0, b) {
		got := make([]byte, 8)
		d.Read(0, got)
		t.Fatalf("stale pending flush won: medium has %q", got)
	}
}

func TestLatencyProfilesOrdering(t *testing.T) {
	if !(ProfileDRAM.ReadMissExtra < ProfileLowNVM.ReadMissExtra &&
		ProfileLowNVM.ReadMissExtra < ProfileHighNVM.ReadMissExtra) {
		t.Fatal("profiles not ordered")
	}
	if len(Profiles) != 3 {
		t.Fatalf("Profiles = %d entries", len(Profiles))
	}
	if len(Table1) != 6 {
		t.Fatalf("Table1 = %d technologies", len(Table1))
	}
	for _, tech := range Table1 {
		if tech.Name == "DRAM" && !tech.Volatile {
			t.Error("Table 1: DRAM must be volatile")
		}
		if tech.Name == "PCM" && tech.Volatile {
			t.Error("Table 1: PCM must be non-volatile")
		}
	}
}

func TestSetLatencySwitchesLive(t *testing.T) {
	d := NewDevice(DefaultConfig(1 << 20))
	d.Read(0, make([]byte, 64))
	base := d.Stats().Stall
	d.SetLatency(ProfileHighNVM)
	d.Read(1<<10, make([]byte, 64))
	if d.Stats().Stall-base < ProfileHighNVM.ReadMissExtra {
		t.Fatal("live latency switch had no effect")
	}
}
