package nvbtree

import (
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// sortedKVs draws n distinct ascending keys with random values.
func sortedKVs(rng *rand.Rand, n int) []KV {
	kvs := make([]KV, n)
	k := uint64(0)
	for i := range kvs {
		k += 1 + uint64(rng.Intn(1000))
		kvs[i] = KV{K: k, V: rng.Uint64() &^ (1 << 63)}
	}
	return kvs
}

// TestBuildEqualsPuts: a bulk-loaded tree answers Get and Iter exactly like
// one grown by N Puts, across node sizes and the sizes around a node's fill,
// survives a crash, and takes later Puts and Deletes (a compacted run's
// values are repointed in place by value-log GC).
func TestBuildEqualsPuts(t *testing.T) {
	for _, nodeSize := range []int{128, 256, 512} {
		fill := (nodeSize-nEntries)/entSize - minFree
		for _, n := range []int{0, 1, fill, fill + 1, fill*fill + 1, 3000} {
			t.Run(fmt.Sprintf("node%d/n%d", nodeSize, n), func(t *testing.T) {
				kvs := sortedKVs(rand.New(rand.NewSource(int64(nodeSize+n))), n)
				dev, arena, grown := newTree(t, nodeSize)
				model := make(map[uint64]uint64, n)
				for _, kv := range kvs {
					put(t, grown, kv.K, kv.V)
					model[kv.K] = kv.V
				}
				built, err := Build(arena, nodeSize, kvs)
				if err != nil {
					t.Fatal(err)
				}
				for _, from := range []uint64{0, 1, 500_000} {
					if err := checkScan(built, model, from); err != nil {
						t.Fatalf("built tree: %v", err)
					}
					if err := checkScan(grown, model, from); err != nil {
						t.Fatalf("grown tree: %v", err)
					}
				}
				for _, kv := range kvs {
					if v, ok := built.Get(kv.K); !ok || v != kv.V {
						t.Fatalf("Get(%d) = (%d,%v), want %d", kv.K, v, ok, kv.V)
					}
					if _, loaded := model[kv.K+1]; !loaded {
						if _, ok := built.Get(kv.K + 1); ok {
							t.Fatalf("Get(%d) found a key that was never loaded", kv.K+1)
						}
					}
				}

				arena.SetRoot(0, built.Header())
				dev.Crash()
				arena, err = pmalloc.Open(dev, 0)
				if err != nil {
					t.Fatal(err)
				}
				built, err = Open(arena, arena.Root(0))
				if err != nil {
					t.Fatal(err)
				}
				if err := checkScan(built, model, 0); err != nil {
					t.Fatalf("built tree after crash: %v", err)
				}

				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 400; i++ {
					k := uint64(rng.Intn(4_000_000))
					if len(kvs) > 0 && i%2 == 0 {
						k = kvs[rng.Intn(len(kvs))].K
					}
					if i%5 == 4 {
						_, had := model[k]
						if del(t, built, k) != had {
							t.Fatalf("Delete(%d) on a built tree disagrees with the model", k)
						}
						delete(model, k)
						continue
					}
					put(t, built, k, uint64(i))
					model[k] = uint64(i)
				}
				if err := checkScan(built, model, 0); err != nil {
					t.Fatalf("built tree after updates: %v", err)
				}
			})
		}
	}
}

// TestBuildCrashLeavesNothing: Build makes nothing durable-reachable. A power
// failure at any of its fences, the last one (the batched persisted mark)
// included, leaves only chunks the allocator's own recovery scan reclaims.
// The arena is pre-aged so Build draws from the free lists as well as from
// the bump region.
func TestBuildCrashLeavesNothing(t *testing.T) {
	const nodeSize = 256
	kvs := sortedKVs(rand.New(rand.NewSource(11)), 700)
	setup := func() (*nvm.Device, *pmalloc.Arena) {
		dev := nvm.NewDevice(nvm.DefaultConfig(16 << 20))
		arena := pmalloc.Format(dev, 0, 16<<20)
		var hold []pmalloc.Ptr
		for i := 0; i < 12; i++ {
			p, err := arena.Alloc(nodeSize, pmalloc.TagIndex)
			if err != nil {
				t.Fatal(err)
			}
			arena.SetPersisted(p)
			hold = append(hold, p)
		}
		for i, p := range hold {
			if i%2 == 0 {
				arena.Free(p)
			}
		}
		dev.EvictAll() // Free does not sync; make the aged state the durable one
		return dev, arena
	}

	dev, arena := setup()
	before := dev.Stats().Fences
	if _, err := Build(arena, nodeSize, kvs); err != nil {
		t.Fatal(err)
	}
	fences := int(dev.Stats().Fences - before)
	if fences < 2 {
		t.Fatalf("Build issued %d fences", fences)
	}

	for n := 0; n < fences; n++ {
		dev, arena := setup()
		held := arena.Allocated()
		dev.FailAfterFences(n)
		func() {
			defer func() {
				if r := recover(); r != nvm.ErrInjectedCrash {
					t.Fatalf("fence %d: Build ended with %v, want the injected crash", n, r)
				}
			}()
			_, _ = Build(arena, nodeSize, kvs)
		}()
		dev.Crash()
		arena, err := pmalloc.Open(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := arena.Allocated(); got != held {
			t.Fatalf("crash at fence %d of %d: arena holds %d bytes after recovery, %d before Build", n, fences, got, held)
		}
	}
}
