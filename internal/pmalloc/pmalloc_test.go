package pmalloc

import (
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
