package nvbtree

import (
	"flag"
	"fmt"
	"sort"
	"testing"

	"math/rand"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// propSeed replays one failing property sequence: go test -run Property -seed=N
var propSeed = flag.Int64("seed", 1, "base seed for the property-test sequences")

// propOp is one step of a randomized tree workload.
type propOp struct {
	kind byte // 'p' put, 'd' delete, 'g' get, 's' scan
	k, v uint64
}

func (o propOp) String() string {
	switch o.kind {
	case 'p':
		return fmt.Sprintf("Put(%d,%d)", o.k, o.v)
	case 'd':
		return fmt.Sprintf("Delete(%d)", o.k)
	case 'g':
		return fmt.Sprintf("Get(%d)", o.k)
	default:
		return fmt.Sprintf("Scan(from=%d)", o.k)
	}
}

// genProp draws a sequence over a deliberately small key space so replaces,
// delete hits, and re-inserts of deleted keys all occur.
func genProp(rng *rand.Rand, n int) []propOp {
	keyspace := uint64(64 + rng.Intn(1024))
	ops := make([]propOp, n)
	for i := range ops {
		k := rng.Uint64() % keyspace
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // bias toward growth so node rewrites and splits happen
			// Values must stay below 2^63: the top bit is the tombstone flag.
			ops[i] = propOp{kind: 'p', k: k, v: rng.Uint64() &^ (1 << 63)}
		case 5, 6:
			ops[i] = propOp{kind: 'd', k: k}
		case 7, 8:
			ops[i] = propOp{kind: 'g', k: k}
		default:
			ops[i] = propOp{kind: 's', k: k}
		}
	}
	return ops
}

// runProp replays ops on a fresh tree against a map model, checking every
// return value and, on scans, order and completeness vs the sorted model.
// At the end the tree is re-attached with Open over the same arena and the
// reopened handle must expose the identical contents — the durable root and
// journal must describe exactly the state the live handle reported.
func runProp(ops []propOp, nodeSize int) error {
	dev := nvm.NewDevice(nvm.DefaultConfig(64 << 20))
	arena := pmalloc.Format(dev, 0, 64<<20)
	tr, err := Create(arena, nodeSize)
	if err != nil {
		return fmt.Errorf("Create: %w", err)
	}
	model := make(map[uint64]uint64)
	for i, o := range ops {
		switch o.kind {
		case 'p':
			if err := tr.Put(o.k, o.v); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			model[o.k] = o.v
		case 'd':
			_, had := model[o.k]
			ok, err := tr.Delete(o.k)
			if err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
			if ok != had {
				return fmt.Errorf("op %d %v: Delete returned %v, model had=%v", i, o, ok, had)
			}
			delete(model, o.k)
		case 'g':
			want, had := model[o.k]
			got, ok := tr.Get(o.k)
			if ok != had || (had && got != want) {
				return fmt.Errorf("op %d %v: Get = (%d,%v), model (%d,%v)", i, o, got, ok, want, had)
			}
		case 's':
			if err := checkScan(tr, model, o.k); err != nil {
				return fmt.Errorf("op %d %v: %w", i, o, err)
			}
		}
		if tr.Count() != len(model) {
			return fmt.Errorf("op %d %v: Count=%d, model %d", i, o, tr.Count(), len(model))
		}
	}
	if err := checkScan(tr, model, 0); err != nil {
		return err
	}
	re, err := Open(arena, tr.Header())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if err := checkScan(re, model, 0); err != nil {
		return fmt.Errorf("reopened tree: %w", err)
	}
	return nil
}

// checkScan compares Iter(from) against the sorted model suffix.
func checkScan(tr *Tree, model map[uint64]uint64, from uint64) error {
	var want []uint64
	for k := range model {
		if k >= from {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	i := 0
	var scanErr error
	tr.Iter(from, func(k, v uint64) bool {
		if i >= len(want) {
			scanErr = fmt.Errorf("scan from %d: extra key %d past model end", from, k)
			return false
		}
		if k != want[i] || v != model[k] {
			scanErr = fmt.Errorf("scan from %d: position %d got (%d,%d), want (%d,%d)", from, i, k, v, want[i], model[want[i]])
			return false
		}
		i++
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if i != len(want) {
		return fmt.Errorf("scan from %d: stopped after %d keys, model has %d", from, i, len(want))
	}
	return nil
}

// shrinkProp greedily removes chunks of the failing sequence while the
// failure reproduces, replaying each candidate on a fresh tree (ddmin-style).
func shrinkProp(ops []propOp, nodeSize int) []propOp {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= len(ops); {
			cand := append(append([]propOp(nil), ops[:lo]...), ops[lo+chunk:]...)
			if runProp(cand, nodeSize) != nil {
				ops = cand // failure survives without this chunk — keep it out
			} else {
				lo += chunk
			}
		}
	}
	return ops
}

// TestPropertyRestartCycles drives long seeded insert/delete sequences with
// a clean crash + reopen every 500 steps, then requires every model key to
// be reachable by descent and the full scan to match the model exactly.
// Seed 193 is pinned: it reproduced a separator bug where rewriting a
// non-root inner node raised its routing separator from sepOld to its first
// entry key, stranding min-fallback keys below it (invisible to Get,
// infinite loop in Iter, which then searched the tree for a successor).
func TestPropertyRestartCycles(t *testing.T) {
	seeds := []int64{193, *propSeed, *propSeed + 1, *propSeed + 2, *propSeed + 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		dev := nvm.NewDevice(nvm.DefaultConfig(64 << 20))
		arena := pmalloc.Format(dev, 0, 64<<20)
		tr, err := Create(arena, 0)
		if err != nil {
			t.Fatal(err)
		}
		arena.SetRoot(0, tr.Header())
		model := make(map[uint64]uint64)
		for step := 1; step <= 3000; step++ {
			k := rng.Uint64()%4000 + 1
			v := rng.Uint64() &^ (1 << 63)
			if rng.Intn(2) == 0 {
				_, inModel := model[k]
				removed, err := tr.Delete(k)
				if err != nil || removed != inModel {
					t.Fatalf("seed %d step %d: Delete(%d) = %v, %v; model had=%v", seed, step, k, removed, err, inModel)
				}
				delete(model, k)
			} else {
				if err := tr.Put(k, v); err != nil {
					t.Fatalf("seed %d step %d: Put(%d): %v", seed, step, k, err)
				}
				model[k] = v
			}
			want, inModel := model[k]
			if got, ok := tr.Get(k); ok != inModel || (ok && got != want) {
				t.Fatalf("seed %d step %d: Get(%d) = (%d,%v), model (%d,%v)", seed, step, k, got, ok, want, inModel)
			}
			if step%500 == 0 {
				dev.Crash()
				arena, err = pmalloc.Open(dev, 0)
				if err != nil {
					t.Fatalf("seed %d step %d: arena reopen: %v", seed, step, err)
				}
				tr, err = Open(arena, arena.Root(0))
				if err != nil {
					t.Fatalf("seed %d step %d: tree reopen: %v", seed, step, err)
				}
			}
		}
		for mk, mv := range model {
			if got, ok := tr.Get(mk); !ok || got != mv {
				t.Fatalf("seed %d: model key %d unreachable by descent: Get = (%d,%v), want %d", seed, mk, got, ok, mv)
			}
		}
		if err := checkScan(tr, model, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPropertyRandomOps drives seeded randomized insert/delete/get/scan
// sequences against a map model across node sizes small enough to force
// multi-level trees, and re-attaches the tree after each sequence to check
// the durable image. A failure is shrunk to a minimal op list and reported
// with its replay seed.
func TestPropertyRandomOps(t *testing.T) {
	seqs, opsPer := 60, 400
	if testing.Short() {
		seqs, opsPer = 12, 200
	}
	for _, nodeSize := range []int{256, 512, 1024} {
		nodeSize := nodeSize
		t.Run(fmt.Sprintf("node%d", nodeSize), func(t *testing.T) {
			t.Parallel()
			for s := 0; s < seqs; s++ {
				seed := *propSeed + int64(s)
				rng := rand.New(rand.NewSource(seed))
				ops := genProp(rng, opsPer)
				if err := runProp(ops, nodeSize); err != nil {
					min := shrinkProp(ops, nodeSize)
					t.Fatalf("seed %d (replay: go test -run Property -seed=%d): %v\nminimal sequence (%d ops of %d): %v\nshrunk failure: %v",
						seed, seed, err, len(min), len(ops), min, runProp(min, nodeSize))
				}
			}
		})
	}
}
