package pmalloc

import (
	"flag"
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

// carving names the three ways StreamPersisted finds room for a chunk: fresh
// memory at the heap end, a free chunk of exactly its size, and a larger free
// chunk it splits. The chunk about to be taken is preceded by small chunks
// totalling pad bytes, so the heap end or the free chunk sits wherever in a
// line those left it.
type carving int

const (
	carveFresh carving = iota
	carveWhole
	carveSplit
)

func (c carving) String() string { return [...]string{"fresh", "whole", "split"}[c] }

// persistSetup formats an arena in which the next StreamPersisted of n bytes
// is carved as c, after pad bytes of small chunks. behind is a persisted chunk
// behind the free chunk the carving takes (0 for fresh memory).
func persistSetup(t *testing.T, c carving, pad, n int) (dev *nvm.Device, a *Arena, behind Ptr) {
	t.Helper()
	dev = nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	a = Format(dev, 0, 1<<20)
	for ; pad > 0; pad -= 32 {
		p, err := a.Alloc(16, TagOther)
		if err != nil {
			t.Fatal(err)
		}
		a.SetPersisted(p)
	}
	if c == carveFresh {
		return dev, a, 0
	}
	size := n
	if c == carveSplit {
		size = n + 300
	}
	hole, err := a.Alloc(size, TagOther)
	if err != nil {
		t.Fatal(err)
	}
	if behind, err = a.Alloc(64, TagTable); err != nil {
		t.Fatal(err)
	}
	a.SetPersisted(hole, behind)
	a.Free(hole)
	dev.Fence()
	return dev, a, behind
}

// TestPersistCostIgnoresLinePhase: a chunk over a line owns its lines, so
// StreamPersisted streams them whole — one device store per line, no fill
// and no CLWB — wherever in a line the chunks before it ended. Taken whole
// from a free list it costs exactly that and no fence; a split adds the
// remainder's header line and the fence that orders it first; fresh memory
// adds the fence before the heap end and the heap end's durable write — and,
// where the heap ended inside a line, the free chunk that fills the rest of
// it, whose header shares that line and is written back through the cache.
func TestPersistCostIgnoresLinePhase(t *testing.T) {
	for _, n := range []int{49, 200, 1000} {
		rec := make([]byte, n)
		for i := range rec {
			rec[i] = byte(i + 1)
		}
		lines := uint64(chunkSize(int64(n)) / nvm.LineSize)
		for _, c := range []carving{carveWhole, carveSplit, carveFresh} {
			for _, pad := range []int{0, 32, 64, 96} {
				want := map[carving]nvm.Stats{
					carveWhole: {Stores: lines},
					carveSplit: {Stores: lines + 1, Fences: 1},
					carveFresh: {Stores: lines + 1, Flushes: 1, Fences: 2},
				}[c]
				if c == carveFresh && pad%nvm.LineSize != 0 {
					want = nvm.Stats{Stores: lines + 2, Flushes: 2, Fences: 2}
				}
				dev, a, _ := persistSetup(t, c, pad, n)
				st0 := dev.Stats()
				p, err := a.StreamPersisted(TagLog, rec)
				if err != nil {
					t.Fatal(err)
				}
				d := dev.Stats().Sub(st0)
				got := nvm.Stats{Loads: d.Loads, Stores: d.Stores, Flushes: d.Flushes, Fences: d.Fences}
				if got != want {
					t.Errorf("%d bytes, %s, after %d bytes of small chunks: StreamPersisted cost %d loads, %d stores, %d flushes, %d fences; want %d, %d, %d, %d",
						n, c, pad, got.Loads, got.Stores, got.Flushes, got.Fences, want.Loads, want.Stores, want.Flushes, want.Fences)
				}
				if (int64(p)-HeaderSize)%nvm.LineSize != 0 {
					t.Errorf("%d bytes, %s: chunk at %d is not on a line", n, c, p)
				}
				dev.Fence()
				dev.Crash()
				got2 := make([]byte, n)
				dev.Read(int64(p), got2)
				if a.StateOf(p) != StatePersisted || string(got2) != string(rec) {
					t.Errorf("%d bytes, %s: state %v, payload intact %v after the fence and a crash", n, c, a.StateOf(p), string(got2) == string(rec))
				}
			}
		}
	}
}

// TestStreamAllocIsAllocStreamed: StreamAlloc is Alloc and a write of the
// whole payload, at a stream's cost. A chunk that owns its lines costs what
// StreamPersisted's does — taken whole from a free list, one store per line
// and no load, CLWB or fence — where Alloc and a write fill every line. It
// lands where Alloc puts it, in StateAllocated, under the same accounting,
// and a crash leaves the recovery scan to reclaim it as it reclaims an
// Alloc'ed chunk. A chunk inside a line costs exactly what Alloc and the
// write cost. Each arena starts cold, its free marks on the medium.
func TestStreamAllocIsAllocStreamed(t *testing.T) {
	shared := 0
	for _, n := range []int{8, 20, 49, 200, 1000, 4096} {
		rec := make([]byte, n)
		for i := range rec {
			rec[i] = byte(i + 1)
		}
		for _, cp := range []struct {
			c   carving
			pad int
		}{{carveWhole, 0}, {carveSplit, 0}, {carveFresh, 0}, {carveWhole, 32}, {carveFresh, 32}} {
			c, pad := cp.c, cp.pad
			where := fmt.Sprintf("%d bytes, %s after %d bytes", n, c, pad)
			devA, a, _ := persistSetup(t, c, pad, n)
			devA.EvictAll()
			st0 := devA.Stats()
			pa, err := a.Alloc(n, TagTable)
			if err != nil {
				t.Fatal(err)
			}
			devA.Write(int64(pa), rec)
			alloc := devA.Stats().Sub(st0)

			dev, s, _ := persistSetup(t, c, pad, n)
			dev.EvictAll()
			st0 = dev.Stats()
			p, err := s.StreamAlloc(TagTable, rec)
			if err != nil {
				t.Fatal(err)
			}
			d := dev.Stats().Sub(st0)
			got := nvm.Stats{Loads: d.Loads, Stores: d.Stores, Flushes: d.Flushes, Fences: d.Fences}
			lines := uint64(lineUp(HeaderSize+int64(s.SizeOf(p))) / nvm.LineSize)
			// Fresh memory also loads the cold line of the heap end it moves
			// and, where the heap ended inside a line, the line of the free
			// chunk that fills the rest of it.
			want := map[carving]nvm.Stats{
				carveWhole: {Stores: lines},
				carveSplit: {Stores: lines + 1, Fences: 1},
				carveFresh: {Loads: 1, Stores: lines + 1, Flushes: 1, Fences: 2},
			}[c]
			if c == carveFresh && pad%nvm.LineSize != 0 {
				want = nvm.Stats{Loads: 2, Stores: lines + 2, Flushes: 2, Fences: 2}
			}
			// ownsLine's rule: a line or more, or first in a line of fresh memory.
			if owns := (int64(p)-HeaderSize)%nvm.LineSize == 0 && (s.SizeOf(p)+HeaderSize >= nvm.LineSize || c == carveFresh); !owns {
				want = nvm.Stats{Loads: alloc.Loads, Stores: alloc.Stores, Flushes: alloc.Flushes, Fences: alloc.Fences}
				shared++
			} else if alloc.Loads < lines {
				t.Errorf("%s: Alloc and a write loaded %d lines, fewer than the chunk's %d", where, alloc.Loads, lines)
			}
			if got != want {
				t.Errorf("%s: StreamAlloc cost %d loads, %d stores, %d CLWBs, %d fences; want %d, %d, %d, %d",
					where, got.Loads, got.Stores, got.Flushes, got.Fences, want.Loads, want.Stores, want.Flushes, want.Fences)
			}
			if p != pa || s.StateOf(p) != StateAllocated || fmt.Sprint(s.Usage()) != fmt.Sprint(a.Usage()) ||
				s.Allocated() != a.Allocated() || s.HeapBytes() != a.HeapBytes() {
				t.Errorf("%s: StreamAlloc gave %d (%v), usage %v, allocated %d, heap %d; Alloc gave %d, %v, %d, %d",
					where, p, s.StateOf(p), s.Usage(), s.Allocated(), s.HeapBytes(), pa, a.Usage(), a.Allocated(), a.HeapBytes())
			}
			back := make([]byte, n)
			dev.Read(int64(p), back)
			if string(back) != string(rec) {
				t.Errorf("%s: the payload did not read back", where)
			}
			var after [2]*Arena
			for i, dv := range []*nvm.Device{devA, dev} {
				dv.Fence()
				dv.Crash()
				if after[i], err = Open(dv, 0); err != nil {
					t.Fatal(err)
				}
				checkLayout(t, after[i], where+", crashed")
			}
			if after[1].StateOf(p) != StateFree || fmt.Sprint(after[1].Usage()) != fmt.Sprint(after[0].Usage()) ||
				after[1].Allocated() != after[0].Allocated() {
				t.Errorf("%s: after a crash the streamed chunk is %v, usage %v (%d); the Alloc'ed one's arena %v (%d)",
					where, after[1].StateOf(p), after[1].Usage(), after[1].Allocated(), after[0].Usage(), after[0].Allocated())
			}
		}
	}
	if shared == 0 {
		t.Error("no case carved a chunk that shares its line")
	}
}

// TestFreeStreamedReadsNothing: a chunk StreamPersisted wrote is freed by its
// length and tag with no device access at all, and its space is the next
// chunk's, accounting and all. Until that chunk takes it, the medium keeps it
// persisted: a crash leaves it for the owner's sweep, whole and parseable.
func TestFreeStreamedReadsNothing(t *testing.T) {
	for _, n := range []int{48, 120} {
		dev, a, _ := persistSetup(t, carveFresh, 0, 0)
		rec := make([]byte, n)
		p, err := a.StreamPersisted(TagLog, rec)
		if err != nil {
			t.Fatal(err)
		}
		dev.Fence()
		st0 := dev.Stats()
		a.FreeStreamed(p, len(rec), TagLog)
		if d := dev.Stats().Sub(st0); d != (nvm.Stats{}) {
			t.Errorf("%d bytes: FreeStreamed cost %+v, want nothing", n, d)
		}
		if a.StateOf(p) != StateFree || a.Usage()[TagLog] != 0 || a.Allocated() != 0 {
			t.Errorf("%d bytes: after FreeStreamed: state %v, usage %v, allocated %d", n, a.StateOf(p), a.Usage(), a.Allocated())
		}
		q, err := a.StreamPersisted(TagLog, rec)
		if err != nil || q != p {
			t.Errorf("%d bytes: the next chunk of the same size is at %d (%v), want the freed one at %d", n, q, err, p)
		}
		a.FreeStreamed(q, len(rec), TagLog)
		dev.Crash()
		a2, err := Open(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, a2, fmt.Sprintf("%d bytes, freed and crashed", n))
		if st := a2.StateOf(p); st != StatePersisted {
			t.Errorf("%d bytes: a freed streamed chunk is %v after a crash, want persisted for the sweep", n, st)
		}
	}
}

// TestRestreamReadsNothing: Restream refills a live chunk of its payload's
// chunk size as StreamPersisted fills a new one — one store per line, no
// load, no CLWB, no fence, the accounting unmoved — and the new image and the
// persisted mark are what a crash behind the caller's fence keeps.
func TestRestreamReadsNothing(t *testing.T) {
	for _, n := range []int{48, 104, 300} {
		dev, a, _ := persistSetup(t, carveFresh, 0, 0)
		p, err := a.StreamPersisted(TagTable, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		dev.Fence()
		usage := a.Usage()
		img := make([]byte, n)
		for i := range img {
			img[i] = byte(i + 1)
		}
		st0 := dev.Stats()
		a.Restream(p, TagTable, img)
		lines := uint64(ChunkSize(n) / nvm.LineSize)
		if d := dev.Stats().Sub(st0); d.Loads != 0 || d.Flushes != 0 || d.Fences != 0 || d.Stores != lines {
			t.Errorf("%d bytes: Restream cost %d loads, %d CLWBs, %d fences, %d stores; want 0, 0, 0, %d", n, d.Loads, d.Flushes, d.Fences, d.Stores, lines)
		}
		if got := a.Usage(); got[TagTable] != usage[TagTable] || a.Allocated() != usage[TagTable] {
			t.Errorf("%d bytes: Restream moved the accounting: %v, allocated %d, was %v", n, got, a.Allocated(), usage)
		}
		dev.Fence()
		dev.Crash()
		a2, err := Open(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, a2, fmt.Sprintf("%d bytes, restreamed and crashed", n))
		got := make([]byte, n)
		dev.Read(int64(p), got)
		if a2.StateOf(p) != StatePersisted || string(got) != string(img) {
			t.Errorf("%d bytes: after the fence and a crash the chunk is %v, image intact %v", n, a2.StateOf(p), string(got) == string(img))
		}
	}
}

// TestFreeStreamedKeepsOne: FreeStreamed keeps one chunk aside; the next
// pushes it out, which streams its free mark — one store, no load, no CLWB —
// and joins the free lists, durable as free at the next fence.
func TestFreeStreamedKeepsOne(t *testing.T) {
	dev, a, _ := persistSetup(t, carveFresh, 0, 0)
	var ps []Ptr
	for i := 0; i < 2; i++ {
		p, err := a.StreamPersisted(TagLog, make([]byte, 100+64*i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	dev.Fence()
	a.FreeStreamed(ps[0], 100, TagLog)
	st0 := dev.Stats()
	a.FreeStreamed(ps[1], 164, TagLog)
	if d := dev.Stats().Sub(st0); d.Loads != 0 || d.Stores != 1 || d.Flushes != 0 || d.Fences != 0 {
		t.Errorf("pushing out the kept chunk cost %d loads, %d stores, %d flushes, %d fences; want 0, 1, 0, 0", d.Loads, d.Stores, d.Flushes, d.Fences)
	}
	if a.kept.off != int64(ps[1])-HeaderSize {
		t.Errorf("the kept chunk is at %d, want the newer one at %d", a.kept.off, int64(ps[1])-HeaderSize)
	}
	dev.Fence()
	dev.Crash()
	a2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, a2, "after a crash")
	if a2.StateOf(ps[0]) != StateFree || a2.StateOf(ps[1]) != StatePersisted {
		t.Errorf("after a crash the pushed-out chunk is %v, the kept one %v; want free, persisted", a2.StateOf(ps[0]), a2.StateOf(ps[1]))
	}
}

// TestFitsIsAFit: whenever Fits says chunks of n bytes in all, none over
// largest, fit — n counting each chunk with a line of slack — a batch of such chunks
// is carved whole, on a heap scattered by seeded allocations and frees of
// every size; and Fits refuses a batch a scattered heap holds the bytes for
// in chunks too small for its largest.
func TestFitsIsAFit(t *testing.T) {
	const largest = 1024 + HeaderSize + line
	for s := int64(0); s < 60; s++ {
		rng := rand.New(rand.NewSource(*layoutSeed*1000 + s))
		dev := nvm.NewDevice(nvm.DefaultConfig(256 << 10))
		a := Format(dev, 0, 256<<10)
		var live []Ptr
		for a.base+a.size-a.heapEnd > 64<<10 {
			p, err := a.StreamPersisted(TagTable, make([]byte, 1+rng.Intn(3000)))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
			if rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				a.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
		var batch []int
		need := int64(0)
		for {
			n := 1 + rng.Intn(largest-HeaderSize-line)
			if !a.Fits(need+chunkSize(int64(n))+line, largest) {
				break
			}
			batch = append(batch, n)
			need += chunkSize(int64(n)) + line
		}
		for i, n := range batch {
			if _, err := a.StreamPersisted(TagTable, make([]byte, n)); err != nil {
				t.Fatalf("seed %d: chunk %d of %d (%d bytes) did not fit a batch of %d bytes that Fits took: %v", s, i, len(batch), n, need, err)
			}
		}
	}

	// Free chunks of 192 bytes between persisted ones, and no fresh memory:
	// the bytes are there, a 1 KB chunk's room is not.
	dev := nvm.NewDevice(nvm.DefaultConfig(64 << 10))
	a := Format(dev, 0, 64<<10)
	var ps []Ptr
	for {
		p, err := a.StreamPersisted(TagTable, make([]byte, 150))
		if err != nil {
			break
		}
		ps = append(ps, p)
	}
	for i := 0; i < len(ps); i += 2 {
		a.Free(ps[i])
	}
	spare := int64(0)
	for _, b := range a.freeBytes {
		spare += b
	}
	if spare < 8<<10 || a.Fits(2*(largest+line), largest) {
		t.Fatalf("%d free bytes in 192-byte chunks: Fits takes two %d-byte chunks: %v", spare, largest, a.Fits(2*(largest+line), largest))
	}
	if _, err := a.StreamPersisted(TagTable, make([]byte, 1024)); err == nil {
		t.Fatal("a scattered heap fit a chunk larger than any of its free chunks")
	}
}

// TestPersistCrashWindows: StreamPersisted leaves header and payload to the
// caller's fence, so a crash before it keeps any subset of their lines, torn
// or whole — and a crash at a fence inside the allocation keeps any subset of
// what that fence had not yet ordered. Under every fault mode and carving the
// recovery scan still walks the heap to its end and finds the chunk
// reclaimed or persisted — never allocated, and never at the cost of the
// chunk behind it; once the caller's fence has passed, the chunk is
// persisted and every byte is the one written.
func TestPersistCrashWindows(t *testing.T) {
	rec := make([]byte, 200)
	for i := range rec {
		rec[i] = byte(i + 1)
	}
	for _, c := range []carving{carveWhole, carveSplit, carveFresh} {
		for _, pad := range []int{0, 32} {
			for _, mode := range []nvm.FaultMode{nvm.FaultLoseAll, nvm.FaultReorder, nvm.FaultTear} {
				for fence := 0; fence <= 3; fence++ {
					for seed := int64(0); seed < 8; seed++ {
						dev, a, behind := persistSetup(t, c, pad, len(rec))
						dev.InjectFaults(nvm.FaultPlan{Seed: seed, Mode: mode, CrashAfterFences: fence, KeepProb: 0.5, TearProb: 0.5})
						var p Ptr
						fenced := false
						if _, err := nvm.Crashed(func() error {
							var err error
							if p, err = a.StreamPersisted(TagLog, rec); err != nil {
								return err
							}
							dev.Fence()
							fenced = true
							return nil
						}); err != nil {
							t.Fatal(err)
						}
						dev.Crash()
						a2, err := Open(dev, 0)
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s after %d bytes, %s, seed %d, crash at fence %d", c, pad, mode, seed, fence)
						if behind != 0 && a2.StateOf(behind) != StatePersisted {
							t.Fatalf("%s: the chunk behind is %v after recovery", where, a2.StateOf(behind))
						}
						checkLayout(t, a2, where)
						if p == 0 {
							continue // the crash struck inside the allocation
						}
						switch st := a2.StateOf(p); {
						case st == StateAllocated:
							t.Fatalf("%s: chunk left allocated by the recovery scan", where)
						case fenced && st != StatePersisted:
							t.Fatalf("%s: chunk %v after the fence", where, st)
						case fenced:
							got := make([]byte, len(rec))
							dev.Read(int64(p), got)
							if string(got) != string(rec) {
								t.Fatalf("%s: persisted chunk holds %v", where, got)
							}
						}
					}
				}
			}
		}
	}
}

// checkLayout walks a's heap and fails unless the chunks tile it from its
// base to its end, every one over a line on whole lines and every other
// inside one line, and every free-list entry and the kept chunk is one of
// its free chunks.
func checkLayout(t *testing.T, a *Arena, where string) {
	t.Helper()
	off := a.heapBase()
	free := make(map[int64]int64)
	a.Chunks(func(p Ptr, size int, _ Tag, st State) {
		start, total := int64(p)-HeaderSize, HeaderSize+int64(size)
		if start != off {
			t.Fatalf("%s: chunk at %d, the one before ended at %d", where, start, off)
		}
		if total > nvm.LineSize && (start%nvm.LineSize != 0 || total%nvm.LineSize != 0) {
			t.Fatalf("%s: %d-byte chunk at line phase %d is not on whole lines", where, total, start%nvm.LineSize)
		}
		if total <= nvm.LineSize && start%nvm.LineSize+total > nvm.LineSize {
			t.Fatalf("%s: %d-byte chunk at line phase %d crosses a line", where, total, start%nvm.LineSize)
		}
		if st == StateFree {
			free[start] = int64(size)
		}
		off = start + total
	})
	if off != a.heapEnd {
		t.Fatalf("%s: the chunks end at %d, the heap at %d", where, off, a.heapEnd)
	}
	for c, list := range a.free {
		bytes := int64(0)
		for _, fc := range list {
			if size, ok := free[fc.off]; !ok || size != fc.size {
				t.Fatalf("%s: free-list entry %d (%d bytes) is no free chunk of the heap", where, fc.off, fc.size)
			}
			bytes += fc.size
		}
		if bytes != a.freeBytes[c] {
			t.Fatalf("%s: class %d's free list holds %d bytes, the arena counts %d", where, c, bytes, a.freeBytes[c])
		}
	}
	if _, ok := free[a.kept.off]; a.kept.off != 0 && !ok {
		t.Fatalf("%s: kept chunk %d is no free chunk of the heap", where, a.kept.off)
	}
}

var layoutSeed = flag.Int64("seed", 1, "base seed for the chunk-layout property")

// TestChunkLayout: after any seeded mix of allocations (Alloc and
// StreamPersisted, small and large), frees (Free and FreeStreamed), splits of
// larger free chunks, and reopens — clean, or after a crash with the
// un-fenced lines kept or lost — the chunks tile the heap, every one over 64
// bytes starts and ends on a line and every smaller one lies inside one, and
// every persisted chunk holds what was streamed into it.
func TestChunkLayout(t *testing.T) {
	seqs := 40
	if testing.Short() {
		seqs = 10
	}
	for s := 0; s < seqs; s++ {
		seed := *layoutSeed*1000 + int64(s)
		rng := rand.New(rand.NewSource(seed))
		dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
		a := Format(dev, int64(rng.Intn(200)), 1<<20-256)
		type chunk struct {
			data []byte
			tag  Tag // the tag it was streamed under; numTags for Alloc + Write
		}
		live := map[Ptr]chunk{}
		var order []Ptr // live chunks in allocation order, for seeded choices
		for op := 0; op < 600; op++ {
			where := fmt.Sprintf("seed %d (replay with -seed=%d), op %d", seed, *layoutSeed, op)
			switch r := rng.Intn(20); {
			case r < 8:
				n := 1 + rng.Intn(90)
				if rng.Intn(3) == 0 {
					n = 1 + rng.Intn(1500)
				}
				c := chunk{make([]byte, n), Tag(rng.Intn(int(numTags) + 1))}
				rng.Read(c.data)
				var p Ptr
				var err error
				if c.tag < numTags {
					p, err = a.StreamPersisted(c.tag, c.data)
				} else if p, err = a.Alloc(n, TagTable); err == nil {
					dev.Write(int64(p), c.data)
					dev.Sync(int64(p), n)
					a.SetPersisted(p)
				}
				if err != nil {
					continue
				}
				dev.Fence()
				live[p] = c
				order = append(order, p)
			case r < 16 && len(order) > 0:
				i := rng.Intn(len(order))
				p := order[i]
				order = append(order[:i], order[i+1:]...)
				if c := live[p]; c.tag < numTags && rng.Intn(2) == 0 {
					a.FreeStreamed(p, len(c.data), c.tag)
				} else {
					a.Free(p)
				}
				delete(live, p)
			case r < 19:
				checkLayout(t, a, where)
				for _, list := range append(a.free[:], []freeChunk{a.kept}) {
					for _, fc := range list {
						if _, ok := live[Ptr(fc.off+HeaderSize)]; ok {
							t.Fatalf("%s: live chunk %d is free", where, fc.off+HeaderSize)
						}
					}
				}
			default:
				if rng.Intn(2) == 0 {
					dev.EvictAll()
				}
				dev.Crash()
				var err error
				if a, err = Open(dev, a.base); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				checkLayout(t, a, where+", after a reopen")
				for _, p := range order {
					got := make([]byte, len(live[p].data))
					dev.Read(int64(p), got)
					if a.StateOf(p) != StatePersisted || string(got) != string(live[p].data) {
						t.Fatalf("%s: persisted chunk %d is %v after a reopen, payload intact %v", where, p, a.StateOf(p), string(got) == string(live[p].data))
					}
				}
			}
		}
		checkLayout(t, a, fmt.Sprintf("seed %d, at the end", seed))
	}
}
