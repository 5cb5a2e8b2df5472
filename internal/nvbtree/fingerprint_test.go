package nvbtree

import (
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// scanGet is Get without fingerprints: the leaf's committed entries, every
// one of them, searched newest first.
func (t *Tree) scanGet(k uint64) (uint64, bool) {
	n := t.root()
	for !t.isLeaf(n) {
		var ok bool
		if n, ok = t.routeChild(n, k); !ok {
			return 0, false
		}
	}
	es, c := t.readNode(n)
	for i := c - 1; i >= 0; i-- {
		if e := bufEnt(es, i); e.k == k {
			return e.v, e.v&tombstone == 0
		}
	}
	return 0, false
}

// leafOf returns the leaf a descent for k ends in.
func (t *Tree) leafOf(k uint64) uint64 {
	n := t.root()
	for !t.isLeaf(n) {
		n, _ = t.routeChild(n, k)
	}
	return n
}

// collidingKeys draws n keys of which about half share one fingerprint, so a
// leaf holds entries whose fingerprints match a key they are not.
func collidingKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64() % (1 << 40)
		if len(keys)%2 == 0 || fingerprint(k) == 0x5a {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestFingerprintLookupMatchesScan: on seeded put/delete sequences over a key
// set rich in fingerprint collisions, Get — which reads only the entries whose
// fingerprint matches — answers every key exactly as a scan of the leaf's
// committed entries and the map model do, at node sizes whose fingerprints
// share the count's line (128, 256, 512) and run past it (2048). Replaced and
// deleted keys leave shadowed entries and tombstones in the leaves. Every
// leaf's checksum must vouch for its fingerprints: a healthy tree never falls
// back to the scan. Replay with -seed=N.
func TestFingerprintLookupMatchesScan(t *testing.T) {
	seqs, opsPer := 20, 600
	if testing.Short() {
		seqs, opsPer = 5, 300
	}
	for _, nodeSize := range []int{128, 256, 512, 2048} {
		t.Run(fmt.Sprintf("node%d", nodeSize), func(t *testing.T) {
			for s := 0; s < seqs; s++ {
				seed := *propSeed + int64(s)
				rng := rand.New(rand.NewSource(seed))
				_, _, tr := newTree(t, nodeSize)
				keys := collidingKeys(rng, 40+rng.Intn(400))
				model := make(map[uint64]uint64)
				for i := 0; i < opsPer; i++ {
					k := keys[rng.Intn(len(keys))]
					if rng.Intn(3) == 0 {
						del(t, tr, k)
						delete(model, k)
					} else {
						v := rng.Uint64() &^ tombstone
						put(t, tr, k, v)
						model[k] = v
					}
					if i%25 != 0 && i != opsPer-1 {
						continue
					}
					for _, k := range keys {
						got, ok := tr.Get(k)
						want, inModel := model[k]
						sv, sok := tr.scanGet(k)
						if ok != inModel || ok && got != want || sok != ok || sok && sv != got {
							t.Fatalf("seed %d (replay: -run FingerprintLookup -seed=%d) op %d: key %d: Get (%d,%v), scan (%d,%v), model (%d,%v)",
								seed, seed, i, k, got, ok, sv, sok, want, inModel)
						}
						if _, _, ok := tr.head(tr.leafOf(k)); !ok {
							t.Fatalf("seed %d op %d: the leaf of key %d has fingerprints its count word does not vouch for", seed, i, k)
						}
					}
				}
			}
		})
	}
}

// TestTornFingerprintLine: a crash that tears the count's line can keep the
// new count word and lose the fingerprint byte beside it (the device's torn
// write-back keeps a line's bytes in 8-byte units). Here the count word is
// durable and one committed entry's fingerprint is stale: a newly put key's,
// and a tombstone's, whose stale fingerprint would let Get return the value
// it deleted. The checksum in the count word tells Get to scan the leaf, so
// every committed key reads as committed; the next append derives the
// fingerprints again.
func TestTornFingerprintLine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		last   func(tr *Tree) // the append whose fingerprint goes stale
		k      uint64
		v      uint64
		exists bool
	}{
		{"put", func(tr *Tree) { put(t, tr, 100, 1000) }, 100, 1000, true},
		{"tombstone", func(tr *Tree) { del(t, tr, 3) }, 3, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, arena, tr := newTree(t, 512)
			arena.SetRoot(0, tr.Header())
			for k := uint64(1); k <= 10; k++ {
				put(t, tr, k, 10*k)
			}
			tc.last(tr)
			leaf := tr.root()
			c := tr.count(leaf)
			fp := int64(leaf) + nFps + int64(c-1)
			dev.WriteU8(fp, ^dev.ReadU8(fp))
			dev.Sync(fp, 1)
			dev.Crash()
			arena, err := pmalloc.Open(dev, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr, err = Open(arena, arena.Root(0))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := tr.head(leaf); ok {
				t.Fatal("the count word vouches for a stale fingerprint")
			}
			check := func(when string) {
				t.Helper()
				for k := uint64(1); k <= 10; k++ {
					want, exists := 10*k, true
					if k == tc.k {
						want, exists = tc.v, tc.exists
					}
					if got, ok := tr.Get(k); ok != exists || ok && got != want {
						t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", when, k, got, ok, want, exists)
					}
				}
				if got, ok := tr.Get(tc.k); ok != tc.exists || ok && got != tc.v {
					t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", when, tc.k, got, ok, tc.v, tc.exists)
				}
			}
			check("stale fingerprint")
			put(t, tr, 200, 2000)
			if _, _, ok := tr.head(leaf); !ok {
				t.Fatal("the next append left the fingerprints unvouched for")
			}
			check("after the next append")
		})
	}
}

// TestColdLeafLookupLoads: a lookup in a cold leaf loads the leaf's first
// line — count word, flag and fingerprints — and the line of each entry whose
// fingerprint matches the key, newest first down to the key's own entry; a
// key the leaf does not hold loads the first line and the colliding entries'
// lines only. (A scan of its committed entries loads all seven of their
// lines.)
func TestColdLeafLookupLoads(t *testing.T) {
	dev, _, tr := newTree(t, 512)
	rng := rand.New(rand.NewSource(5))
	keys := collidingKeys(rng, tr.cap)
	for i, k := range keys {
		put(t, tr, k, uint64(i))
	}
	leaf := tr.root()
	if !tr.isLeaf(leaf) || tr.count(leaf) != tr.cap {
		t.Fatalf("%d keys did not fill one leaf", tr.cap)
	}
	absent := uint64(1 << 41)
	for fingerprint(absent) != 0x5a {
		absent++
	}
	for _, k := range append(keys, absent) {
		lines := map[int64]bool{int64(leaf) / nvm.LineSize: true}
		for i := tr.cap - 1; i >= 0; i-- {
			if fingerprint(keys[i]) != fingerprint(k) {
				continue
			}
			lines[(int64(leaf)+int64(tr.ents)+int64(i)*entSize)/nvm.LineSize] = true
			if keys[i] == k {
				break
			}
		}
		dev.EvictAll()
		tr.root() // the tree's header line: warm, as on any lookup path
		before := dev.Stats().Loads
		tr.Get(k)
		if got := dev.Stats().Loads - before; got != uint64(len(lines)) {
			t.Errorf("Get(%d) in a cold leaf loaded %d lines, want %d", k, got, len(lines))
		}
	}
}
