package nvbtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// capacity returns the entries a node of nodeSize bytes holds.
func capacity(nodeSize int) int {
	var t Tree
	t.setSize(nodeSize - pmalloc.HeaderSize)
	return t.cap
}

// TestBuildEqualsPuts: a bulk-loaded tree answers Get and Iter exactly like
// one grown by N Puts, across node sizes and the sizes around a node's fill,
// survives a crash, and takes later Puts and Deletes (a compacted run's
// values are repointed in place by value-log GC).
func TestBuildEqualsPuts(t *testing.T) {
	for _, nodeSize := range []int{128, 256, 512} {
		// fill is what Build packs into a node; part is a node's 16-byte
		// slots less one for its head and minFree for insert headroom, at
		// most fill, so its trees end each level in a partly full node.
		fill := capacity(nodeSize)
		part := nodeSize/entSize - 1 - minFree
		var sizes []int
		for _, n := range []int{0, 1, part, part + 1, part*part + 1, fill, fill + 1, fill*fill + 1, 3000} {
			if !slices.Contains(sizes, n) {
				sizes = append(sizes, n)
			}
		}
		for _, n := range sizes {
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

// TestBuildCrashLeavesNothing: Build makes nothing durable-reachable. The walk
// crashes it at each of its fences and after it, with the un-fenced lines all
// lost, all kept and each kept alone. Up to its last fence, the batched
// persisted mark, the allocator's recovery scan then leaves the arena holding
// what it held before Build; from that fence on it may hold chunks Build
// marked, and each must hold the bytes the uninterrupted Build wrote — a
// persisted chunk over bytes that never became durable is one the owner's
// sweep cannot tell from a node. The arena is pre-aged so Build draws from
// the free lists as well as from the bump region.
func TestBuildCrashLeavesNothing(t *testing.T) {
	const nodeSize = 256
	kvs := sortedKVs(rand.New(rand.NewSource(11)), 700)
	setup := func() (*nvm.Device, *pmalloc.Arena) {
		// The device and its cache are small: the walk copies both once per
		// crash outcome.
		cfg := nvm.DefaultConfig(1 << 20)
		cfg.CacheSize = 64 << 10
		dev := nvm.NewDevice(cfg)
		arena := pmalloc.Format(dev, 0, 1<<20)
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

	built, arena := setup()
	held := arena.Allocated()
	if _, err := Build(arena, nodeSize, kvs); err != nil {
		t.Fatal(err)
	}
	fences, err := nvm.WalkFences(func() (*nvm.Device, func() error, error) {
		dev, arena := setup()
		return dev, func() error {
			_, err := Build(arena, nodeSize, kvs)
			return err
		}, nil
	}, func(k, fences int, dev *nvm.Device) error {
		arena, err := pmalloc.Open(dev, 0)
		if err != nil {
			return err
		}
		if got := arena.Allocated(); k < fences-1 && got != held {
			return fmt.Errorf("arena holds %d bytes after recovery, %d before Build", got, held)
		}
		var bad error
		arena.Chunks(func(p pmalloc.Ptr, size int, _ pmalloc.Tag, st pmalloc.State) {
			if st != pmalloc.StatePersisted || bad != nil {
				return
			}
			got, want := make([]byte, size), make([]byte, size)
			dev.Read(int64(p), got)
			built.Read(int64(p), want)
			if !bytes.Equal(got, want) {
				bad = fmt.Errorf("chunk %d (%d B) is persisted over bytes Build did not write", p, size)
			}
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
	if fences < 2 {
		t.Fatalf("Build issued %d fences", fences)
	}
}
