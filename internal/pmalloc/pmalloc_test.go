package pmalloc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nstore/internal/nvm"
)

func newArena(t testing.TB, size int64) *Arena {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(size))
	return Format(dev, 0, size)
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newArena(t, 1<<20)
	p, err := a.Alloc(100, TagTable)
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 {
		t.Fatal("nil pointer from Alloc")
	}
	if got := a.SizeOf(p); got < 100 {
		t.Errorf("SizeOf = %d, want >= 100", got)
	}
	if a.StateOf(p) != StateAllocated {
		t.Errorf("state = %v, want allocated", a.StateOf(p))
	}
	a.SetPersisted(p)
	if a.StateOf(p) != StatePersisted {
		t.Errorf("state = %v, want persisted", a.StateOf(p))
	}
	a.Free(p)
	if a.StateOf(p) != StateFree {
		t.Errorf("state = %v, want free", a.StateOf(p))
	}
}

func TestAllocDistinctChunks(t *testing.T) {
	a := newArena(t, 1<<20)
	seen := make(map[Ptr][2]uint64)
	for i := 0; i < 100; i++ {
		n := 16 + i*7
		p, err := a.Alloc(n, TagOther)
		if err != nil {
			t.Fatal(err)
		}
		for q, r := range seen {
			qe := r[0]
			if uint64(p) < qe && uint64(p)+uint64(n) > r[1]-qe {
				_ = q
			}
		}
		seen[p] = [2]uint64{uint64(p), uint64(p) + uint64(n)}
	}
	// Overlap check.
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for _, r := range seen {
		ivs = append(ivs, iv{r[0], r[1]})
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
				t.Fatalf("chunks overlap: [%d,%d) and [%d,%d)", ivs[i].lo, ivs[i].hi, ivs[j].lo, ivs[j].hi)
			}
		}
	}
}

func TestFreeListReuse(t *testing.T) {
	a := newArena(t, 1<<20)
	p1, _ := a.Alloc(256, TagOther)
	before := a.HeapBytes()
	a.Free(p1)
	p2, err := a.Alloc(256, TagOther)
	if err != nil {
		t.Fatal(err)
	}
	if a.HeapBytes() != before {
		t.Errorf("heap grew on reuse: %d -> %d", before, a.HeapBytes())
	}
	if p2 != p1 {
		t.Errorf("expected reuse of freed chunk: got %d, freed %d", p2, p1)
	}
}

func TestRotatingAllocationSpreadsWear(t *testing.T) {
	a := newArena(t, 1<<20)
	// Create several same-class free chunks.
	var ps []Ptr
	for i := 0; i < 8; i++ {
		p, _ := a.Alloc(100, TagOther)
		ps = append(ps, p)
	}
	for _, p := range ps {
		a.Free(p)
	}
	// Successive allocations should not always pick the same chunk.
	got := make(map[Ptr]bool)
	for i := 0; i < 4; i++ {
		p, _ := a.Alloc(100, TagOther)
		got[p] = true
		a.Free(p)
	}
	if len(got) < 2 {
		t.Errorf("rotating policy reused a single chunk %v for all allocations", got)
	}
}

func TestRecoveryReclaimsUnpersistedChunks(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	a := Format(dev, 0, 1<<20)
	leak, _ := a.Alloc(128, TagTable) // never persisted
	keep, _ := a.Alloc(128, TagTable) // persisted
	dev.Write(int64(keep), []byte("persisted payload"))
	dev.Sync(int64(keep), 17)
	a.SetPersisted(keep)

	dev.Crash()
	a2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a2.StateOf(keep) != StatePersisted {
		t.Errorf("persisted chunk state = %v after recovery", a2.StateOf(keep))
	}
	if a2.StateOf(leak) != StateFree {
		t.Errorf("leaked chunk state = %v after recovery, want free", a2.StateOf(leak))
	}
	buf := make([]byte, 17)
	dev.Read(int64(keep), buf)
	if string(buf) != "persisted payload" {
		t.Errorf("persisted payload lost: %q", buf)
	}
	// The never-persisted chunk sits below the persisted one in the bump
	// region; the recovery walk must get past it, or everything behind it
	// would drop out of the accounting and the owners' sweeps.
	if got, want := a2.Usage()[TagTable], int64(a2.SizeOf(keep)); got != want {
		t.Errorf("usage[table] = %d after recovery, want %d", got, want)
	}
	seen := false
	a2.Chunks(func(p Ptr, _ int, _ Tag, _ State) { seen = seen || p == keep })
	if !seen {
		t.Error("recovery walk stopped before the persisted chunk")
	}
}

func TestRootDirectorySurvivesCrash(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	a := Format(dev, 0, 1<<20)
	p, _ := a.Alloc(64, TagIndex)
	a.SetPersisted(p)
	a.SetRoot(3, p)
	dev.Crash()
	a2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.Root(3); got != p {
		t.Errorf("root[3] = %d after crash, want %d", got, p)
	}
	if a2.Root(0) != 0 {
		t.Errorf("unset root nonzero: %d", a2.Root(0))
	}
}

func TestRecoveryCoalescesFreeChunks(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	a := Format(dev, 0, 1<<20)
	var ps []Ptr
	for i := 0; i < 4; i++ {
		p, _ := a.Alloc(64, TagOther)
		ps = append(ps, p)
	}
	for _, p := range ps {
		a.Free(p)
	}
	a2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	// After coalescing, one big chunk should satisfy an allocation larger
	// than any single freed chunk without growing the heap.
	before := a2.HeapBytes()
	if _, err := a2.Alloc(200, TagOther); err != nil {
		t.Fatal(err)
	}
	if a2.HeapBytes() != before {
		t.Errorf("heap grew (%d -> %d); coalescing failed", before, a2.HeapBytes())
	}
}

func TestOutOfMemory(t *testing.T) {
	a := newArena(t, 4096)
	var last error
	for i := 0; i < 1000; i++ {
		if _, err := a.Alloc(256, TagOther); err != nil {
			last = err
			break
		}
	}
	if last != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", last)
	}
}

func TestUsageAccounting(t *testing.T) {
	a := newArena(t, 1<<20)
	p1, _ := a.Alloc(100, TagTable)
	p2, _ := a.Alloc(200, TagIndex)
	_, _ = a.Alloc(50, TagLog)
	u := a.Usage()
	if u[TagTable] < 100 || u[TagIndex] < 200 || u[TagLog] < 50 {
		t.Errorf("usage too small: %v", u)
	}
	total := a.Allocated()
	a.Free(p1)
	a.Free(p2)
	if a.Allocated() >= total {
		t.Errorf("Allocated did not shrink after frees: %d -> %d", total, a.Allocated())
	}
	u = a.Usage()
	if u[TagTable] != 0 {
		t.Errorf("usage[table] = %d after free", u[TagTable])
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newArena(t, 1<<20)
	p, _ := a.Alloc(32, TagOther)
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(p)
}

func TestOpenRejectsUnformatted(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 16))
	if _, err := Open(dev, 0); err == nil {
		t.Fatal("Open succeeded on unformatted device")
	}
}

// Property: any interleaving of alloc/free keeps chunks disjoint and
// payloads intact.
func TestQuickAllocFree(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(4 << 20))
	a := Format(dev, 0, 4<<20)
	type live struct {
		p    Ptr
		data []byte
	}
	var chunks []live
	rng := rand.New(rand.NewSource(42))

	f := func(sz uint16, freeIdx uint8) bool {
		n := int(sz%2048) + 1
		p, err := a.Alloc(n, TagOther)
		if err != nil {
			return true // arena full; acceptable
		}
		data := make([]byte, n)
		rng.Read(data)
		dev.Write(int64(p), data)
		chunks = append(chunks, live{p, data})

		if len(chunks) > 4 && freeIdx%3 == 0 {
			i := int(freeIdx) % len(chunks)
			a.Free(chunks[i].p)
			chunks = append(chunks[:i], chunks[i+1:]...)
		}
		// Verify all live payloads are intact (no overlap corrupted them).
		for _, c := range chunks {
			got := make([]byte, len(c.data))
			dev.Read(int64(c.p), got)
			for j := range got {
				if got[j] != c.data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: recovery after a crash at any point never corrupts the heap
// walk, and persisted chunks always survive.
func TestQuickCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
		a := Format(dev, 0, 1<<20)
		var persisted []Ptr
		nops := 1 + rng.Intn(50)
		for i := 0; i < nops; i++ {
			n := 1 + rng.Intn(512)
			p, err := a.Alloc(n, Tag(rng.Intn(int(numTags))))
			if err != nil {
				break
			}
			if rng.Intn(2) == 0 {
				dev.Sync(int64(p), n)
				a.SetPersisted(p)
				persisted = append(persisted, p)
			}
		}
		if rng.Intn(2) == 0 {
			dev.EvictAll() // adversarial: push uncommitted data to the medium
		}
		dev.Crash()
		a2, err := Open(dev, 0)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, p := range persisted {
			if a2.StateOf(p) != StatePersisted {
				t.Fatalf("iter %d: persisted chunk %d lost (state %v)", iter, p, a2.StateOf(p))
			}
		}
		// The recovered arena must still be able to allocate.
		if _, err := a2.Alloc(64, TagOther); err != nil {
			t.Fatalf("iter %d: alloc after recovery: %v", iter, err)
		}
	}
}

func BenchmarkAlloc(b *testing.B) {
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 30))
	a := Format(dev, 0, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(128, TagTable)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			a.Free(p)
		}
	}
}

// TestPayloadsAre16ByteAligned: whatever offset the arena is based at, every
// payload pointer has its low four bits clear — before and after a crash and
// the recovery scan — so an owner may keep a tag there.
func TestPayloadsAre16ByteAligned(t *testing.T) {
	for _, base := range []int64{0, 8, 4099, 65536 + 5} {
		dev := nvm.NewDevice(nvm.DefaultConfig(2 << 20))
		a := Format(dev, base, 1<<20)
		rng := rand.New(rand.NewSource(base))
		var live []Ptr
		check := func(a *Arena, when string) {
			a.Chunks(func(p Ptr, size int, tag Tag, st State) {
				if p&15 != 0 || size&15 != 0 {
					t.Fatalf("base %d, %s: chunk %d (size %d) is not 16-byte aligned", base, when, p, size)
				}
			})
		}
		for i := 0; i < 400; i++ {
			p, err := a.Alloc(1+rng.Intn(700), TagOther)
			if err != nil {
				t.Fatal(err)
			}
			if p&15 != 0 {
				t.Fatalf("base %d: Alloc returned %d", base, p)
			}
			a.SetPersisted(p)
			if rng.Intn(3) == 0 {
				a.Free(p)
			} else {
				live = append(live, p)
			}
		}
		check(a, "before the crash")
		dev.Crash()
		a2, err := Open(dev, base)
		if err != nil {
			t.Fatal(err)
		}
		check(a2, "after recovery")
		for _, p := range live {
			if a2.StateOf(p) != StatePersisted {
				t.Fatalf("base %d: persisted chunk %d lost", base, p)
			}
		}
	}
}

// TestBestFitScanLoadsNoHeader: the free lists know their chunks' sizes, so
// choosing among many free chunks reads none of their headers; the one chunk
// taken has its header written, which is the only line the allocation touches.
func TestBestFitScanLoadsNoHeader(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig(8 << 20))
	a := Format(dev, 0, 8<<20)
	var ps []Ptr
	for i := 0; i < 2*bestFitScan; i++ {
		// One size class, distinct sizes, each chunk on lines of its own.
		p, err := a.Alloc(1040+16*(i%60), TagOther)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		a.Free(p)
	}
	dev.EvictAll()
	loads := dev.Stats().Loads
	if _, err := a.Alloc(1040, TagOther); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Loads - loads; got > 2 {
		t.Errorf("an allocation that scanned %d free chunks loaded %d lines, want the taken chunk's header (and its remainder's)", bestFitScan, got)
	}
}

// persistAt formats an arena and returns a fresh chunk of n payload bytes
// whose header starts phase bytes into a cache line.
func persistAt(t *testing.T, phase int64, n int) (*nvm.Device, *Arena, Ptr) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	a := Format(dev, 0, 1<<20)
	// The heap starts on a line; one chunk in front shifts the next header.
	if pad := map[int64]int{16: 64, 32: 16, 48: 32}[phase]; pad > 0 {
		if _, err := a.Alloc(pad, TagOther); err != nil {
			t.Fatal(err)
		}
	}
	p, err := a.Alloc(n, TagLog)
	if err != nil {
		t.Fatal(err)
	}
	if got := (int64(p) - headerSize) % nvm.LineSize; got != phase {
		t.Fatalf("chunk header at phase %d, want %d", got, phase)
	}
	return dev, a, p
}

// TestPersistCostIgnoresLinePhase: a chunk recycled through the free lists
// sits wherever its first allocation put it, so what its owner pays to persist
// it must not depend on where in a cache line that was. StreamPersisted costs
// one device store per line that header and payload cover, two CLWBs (the
// header's line and the partial last one) and no fence: two stores for a
// 49-byte record (an NVM-InP update's WAL entry) at each of the four 16-byte
// phases, where Write + Sync + SetPersisted stores the header's line twice at
// three of them.
func TestPersistCostIgnoresLinePhase(t *testing.T) {
	for _, n := range []int{49, 200} {
		rec := make([]byte, n)
		for i := range rec {
			rec[i] = byte(i + 1)
		}
		var old []uint64
		for _, phase := range []int64{0, 16, 32, 48} {
			lines := uint64(phase+headerSize+int64(n)+nvm.LineSize-1) / nvm.LineSize
			dev, a, p := persistAt(t, phase, n)
			st0 := dev.Stats()
			a.StreamPersisted(p, rec)
			d := dev.Stats().Sub(st0)
			if d.Stores != lines || d.Flushes != 2 || d.Fences != 0 {
				t.Errorf("%d bytes at phase %d: StreamPersisted cost %d stores, %d flushes, %d fences; want %d, 2, 0",
					n, phase, d.Stores, d.Flushes, d.Fences, lines)
			}
			dev.Fence()
			dev.Crash()
			got := make([]byte, n)
			dev.Read(int64(p), got)
			if a.StateOf(p) != StatePersisted || string(got) != string(rec) {
				t.Errorf("%d bytes at phase %d: state %v, payload intact %v after the fence and a crash", n, phase, a.StateOf(p), string(got) == string(rec))
			}

			dev, a, p = persistAt(t, phase, n)
			st0 = dev.Stats()
			dev.Write(int64(p), rec)
			dev.Sync(int64(p), n)
			a.SetPersisted(p)
			old = append(old, dev.Stats().Sub(st0).Stores)
		}
		if n == 49 && old[0] == old[1] && old[1] == old[2] && old[2] == old[3] {
			t.Errorf("Write + Sync + SetPersisted of %d bytes cost %v stores at the four phases: the test no longer shows the difference", n, old)
		}
	}
}

// TestPersistCrashWindows: StreamPersisted leaves header and payload to the
// caller's fence, so a crash before it keeps any subset of their lines, torn
// or whole. Under every fault mode the recovery scan still walks the heap to
// its end and finds the chunk reclaimed or persisted — never allocated, and
// never at the cost of the chunk behind it; once the fence has passed, the
// chunk is persisted and every byte is the one written.
func TestPersistCrashWindows(t *testing.T) {
	rec := make([]byte, 200)
	for i := range rec {
		rec[i] = byte(i + 1)
	}
	for _, phase := range []int64{0, 16, 32, 48} {
		for _, mode := range []nvm.FaultMode{nvm.FaultLoseAll, nvm.FaultReorder, nvm.FaultTear} {
			for fence := 0; fence <= 1; fence++ {
				for seed := int64(0); seed < 8; seed++ {
					dev, a, p := persistAt(t, phase, len(rec))
					after, err := a.Alloc(64, TagTable)
					if err != nil {
						t.Fatal(err)
					}
					a.SetPersisted(after)
					dev.InjectFaults(nvm.FaultPlan{Seed: seed, Mode: mode, CrashAfterFences: fence, KeepProb: 0.5, TearProb: 0.5})
					fenced := false
					func() {
						defer func() {
							if r := recover(); r != nil && r != nvm.ErrInjectedCrash {
								panic(r)
							}
						}()
						a.StreamPersisted(p, rec)
						dev.Fence()
						fenced = true
					}()
					if fenced != (fence == 1) {
						t.Fatalf("fence %d: the caller's fence passed = %v", fence, fenced)
					}
					dev.Crash()
					a2, err := Open(dev, 0)
					if err != nil {
						t.Fatal(err)
					}
					where := func() string {
						return fmt.Sprintf("phase %d, %s, seed %d, crash at fence %d", phase, mode, seed, fence)
					}
					if a2.StateOf(after) != StatePersisted {
						t.Fatalf("%s: the chunk behind is %v after recovery", where(), a2.StateOf(after))
					}
					switch st := a2.StateOf(p); {
					case st == StateAllocated:
						t.Fatalf("%s: chunk left allocated by the recovery scan", where())
					case fenced && st != StatePersisted:
						t.Fatalf("%s: chunk %v after the fence", where(), st)
					case fenced:
						got := make([]byte, len(rec))
						dev.Read(int64(p), got)
						if string(got) != string(rec) {
							t.Fatalf("%s: persisted chunk holds %v", where(), got)
						}
					}
				}
			}
		}
	}
}
