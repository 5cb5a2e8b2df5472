package nvm

import (
	"bytes"
	"testing"
)

func testDev() *Device {
	cfg := DefaultConfig(1 << 20)
	cfg.CacheSize = 64 << 10
	return NewDevice(cfg)
}

func fill(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

// Fenced data must survive any fault mode: faults only touch the un-fenced
// window.
func TestFaultFencedDataImmune(t *testing.T) {
	for _, mode := range []FaultMode{FaultLoseAll, FaultReorder, FaultTear} {
		d := testDev()
		want := fill(0xAB, 4*LineSize)
		d.Write(0, want)
		d.Sync(0, len(want))
		d.InjectFaults(FaultPlan{Seed: 7, Mode: mode, KeepProb: 0.5, TearProb: 1})
		d.Crash()
		if !d.DurableEqual(0, want) {
			t.Fatalf("mode %v: fenced data damaged by crash", mode)
		}
	}
}

// Un-fenced flushed lines persist as a seeded subset under FaultReorder, and
// each surviving line persists whole.
func TestFaultReorderSubset(t *testing.T) {
	const lines = 64
	run := func(seed int64) []byte {
		d := testDev()
		d.Write(0, fill(0x11, lines*LineSize))
		d.Sync(0, lines*LineSize)
		d.Write(0, fill(0x22, lines*LineSize))
		d.flushRange(0, lines*LineSize, true) // flushed, never fenced
		d.InjectFaults(FaultPlan{Seed: seed, Mode: FaultReorder, KeepProb: 0.5})
		d.Crash()
		got := make([]byte, lines*LineSize)
		d.Read(0, got)
		return got
	}
	got := run(42)
	kept, lost := 0, 0
	for l := 0; l < lines; l++ {
		line := got[l*LineSize : (l+1)*LineSize]
		switch {
		case bytes.Equal(line, fill(0x22, LineSize)):
			kept++
		case bytes.Equal(line, fill(0x11, LineSize)):
			lost++
		default:
			t.Fatalf("line %d neither old nor new under FaultReorder: % x", l, line)
		}
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("want a proper subset retained, got kept=%d lost=%d", kept, lost)
	}
	if !bytes.Equal(got, run(42)) {
		t.Fatal("same seed must replay to identical post-crash state")
	}
	if bytes.Equal(got, run(43)) {
		t.Fatal("different seeds should give different subsets")
	}
}

// Under FaultTear a surviving line may keep only an 8-byte-aligned prefix of
// its new bytes.
func TestFaultTearPrefix(t *testing.T) {
	torn := false
	for seed := int64(0); seed < 32 && !torn; seed++ {
		d := testDev()
		d.Write(0, fill(0xAA, LineSize))
		d.Sync(0, LineSize)
		d.Write(0, fill(0xBB, LineSize))
		d.flushRange(0, LineSize, true)
		d.InjectFaults(FaultPlan{Seed: seed, Mode: FaultTear, KeepProb: 1, TearProb: 1})
		d.Crash()
		got := make([]byte, LineSize)
		d.Read(0, got)
		cut := 0
		for cut < LineSize && got[cut] == 0xBB {
			cut++
		}
		for _, b := range got[cut:] {
			if b != 0xAA {
				t.Fatalf("seed %d: tail after cut %d is neither old nor new: % x", seed, cut, got)
			}
		}
		if cut%8 != 0 {
			t.Fatalf("seed %d: tear cut %d not 8-byte aligned", seed, cut)
		}
		if cut > 0 && cut < LineSize {
			torn = true
		}
	}
	if !torn {
		t.Fatal("no seed produced a torn (partial) line")
	}
}

// Dirty cache lines that were never flushed are also candidates for
// reordered write-back (the memory controller may evict at any time).
func TestFaultReorderIncludesDirtyCacheLines(t *testing.T) {
	anyKept := false
	for seed := int64(0); seed < 16 && !anyKept; seed++ {
		d := testDev()
		d.Write(0, fill(0x33, 8*LineSize)) // dirty in cache, never flushed
		d.InjectFaults(FaultPlan{Seed: seed, Mode: FaultReorder, KeepProb: 0.9})
		d.Crash()
		got := make([]byte, 8*LineSize)
		d.Read(0, got)
		for l := 0; l < 8; l++ {
			if bytes.Equal(got[l*LineSize:(l+1)*LineSize], fill(0x33, LineSize)) {
				anyKept = true
			}
		}
	}
	if !anyKept {
		t.Fatal("no un-flushed dirty line ever persisted under FaultReorder")
	}
}

// The plan's fence countdown panics with ErrInjectedCrash at the chosen
// fence, and the plan's effects still apply at Crash.
func TestFaultPlanFenceTrigger(t *testing.T) {
	d := testDev()
	d.InjectFaults(FaultPlan{Seed: 1, Mode: FaultLoseAll, CrashAfterFences: 2})
	d.Fence()
	d.Fence()
	if crashed, _ := Crashed(func() error { d.Fence(); return nil }); !crashed {
		t.Fatal("third fence did not crash")
	}
	d.Crash()
	// After Crash the plan is consumed: fences run clean.
	d.Fence()
}

// SetFenceNoop simulates a missing-SFENCE protocol bug: Sync'd data no
// longer survives a crash.
func TestFenceNoopLosesSyncedData(t *testing.T) {
	d := testDev()
	d.SetFenceNoop(true)
	want := fill(0x5A, LineSize)
	d.Write(0, want)
	d.Sync(0, LineSize)
	d.Crash()
	if d.DurableEqual(0, want) {
		t.Fatal("fence-noop device still persisted synced data")
	}
}

// Discard forgets a line's un-fenced copies wherever they sit — dirty in the
// cache, clean in the cache with a copy in the controller buffer, or streamed
// — and nothing else: fenced bytes and neighbouring lines are untouched.
func TestDiscard(t *testing.T) {
	old, now := fill(0x11, 4*LineSize), fill(0x22, 4*LineSize)
	d := testDev()
	d.Write(0, old)
	d.Sync(0, len(old))
	d.Write(0, now[:LineSize])                  // line 0: dirty in the cache
	d.Write(LineSize, now[:LineSize])           // line 1: written back, cached clean
	d.WriteBack(LineSize, LineSize)             //
	d.WriteStream(2*LineSize, now[:2*LineSize]) // lines 2, 3: streamed
	d.Discard(0, 3*LineSize-1)                  // lines 0..2
	got := make([]byte, 4*LineSize)
	d.Read(0, got)
	want := append(append([]byte(nil), old[:3*LineSize]...), now[:LineSize]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("after Discard of lines 0-2 the device reads % x", got)
	}
	d.Fence()
	d.EvictAll()
	d.Crash()
	if !d.DurableEqual(0, want) {
		t.Fatal("a discarded line reached the medium, or the undiscarded one did not")
	}
}
