package nvminp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/enginetest"
	"nstore/internal/engine/undolog"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/txn2pc"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "nvm-inp",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return Open(env, schemas, opts)
		},
	})
}

func simpleSchema() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TString, Size: 100},
		},
	}}
}

// TestImmediateDurability: NVM-InP commits are durable with no Flush.
func TestImmediateDurability(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	e, err := New(env, simpleSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Begin()
	e.Insert("t", 1, []core.Value{core.IntVal(1), core.IntVal(2), core.StrVal("x")})
	e.Commit()
	// No Flush — crash immediately.
	_, e2 := crashOpen(t, env, simpleSchema(), core.Options{})
	row, ok, _ := e2.Get("t", 1)
	if !ok || row[1].I != 2 {
		t.Fatalf("commit not durable without group flush: %v,%v", row, ok)
	}
}

// TestNoRedoOnRecovery: after a clean crash with nothing in flight, the WAL
// is empty — recovery has nothing to replay regardless of history length.
func TestNoRedoOnRecovery(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 256 << 20})
	e, _ := New(env, simpleSchema(), core.Options{})
	for i := int64(1); i <= 2000; i++ {
		e.Begin()
		e.Insert("t", uint64(i), []core.Value{core.IntVal(i), core.IntVal(i), core.StrVal("payload")})
		e.Commit()
	}
	env.Dev.Crash()
	env2, _ := env.Reopen()
	before := env2.Dev.Stats()
	e2, err := Open(env2, simpleSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diff := env2.Dev.Stats().Sub(before)
	// Opening must not scale with the 2000 executed txns: no checkpoint
	// load, no WAL replay, no index rebuild. The heap open scans block
	// headers (bounded by live data), so just assert reads stay far below
	// one-pass-over-all-tuple-content territory AND the engine works.
	if _, ok, _ := e2.Get("t", 1500); !ok {
		t.Fatal("data missing after instant recovery")
	}
	if diff.Stores > 2000 {
		t.Errorf("recovery performed %d NVM stores; expected near-zero write work", diff.Stores)
	}
}

// TestWALRecordsPointersNotData: the WAL footprint per insert is tiny
// compared to the tuple, since only pointers are logged (§4.1).
func TestWALRecordsPointersNotData(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	e, _ := New(env, simpleSchema(), core.Options{})
	e.Begin()
	big := make([]byte, 4000)
	e.Insert("t", 1, []core.Value{core.IntVal(1), core.IntVal(2), core.BytesVal(big)})
	fp := e.Footprint()
	if fp.Log > 256 {
		t.Errorf("WAL holds %d bytes for one insert of a 4 KB tuple; should be pointer-sized", fp.Log)
	}
	e.Commit()
	if got := e.Footprint().Log; got != 0 {
		t.Errorf("WAL not truncated at commit: %d bytes", got)
	}
}

// TestRecoveryLatencyIndependentOfHistory measures Fig. 12's key property.
func TestRecoveryLatencyIndependentOfHistory(t *testing.T) {
	// Fixed database size; vary only the number of executed transactions.
	// InP/Log must replay them all; NVM-InP's recovery work must not grow.
	measure := func(txns int) int64 {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 512 << 20})
		e, _ := New(env, simpleSchema(), core.Options{})
		e.Begin()
		for i := 1; i <= 2000; i++ {
			e.Insert("t", uint64(i), []core.Value{core.IntVal(int64(i)), core.IntVal(1), core.StrVal("row")})
		}
		e.Commit()
		for i := 1; i <= txns; i++ {
			e.Begin()
			e.Update("t", uint64(i%2000)+1, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(int64(i))}})
			e.Commit()
		}
		env.Dev.Crash()
		env2, _ := env.Reopen()
		before := env2.Dev.Stats()
		if _, err := Open(env2, simpleSchema(), core.Options{}); err != nil {
			t.Fatal(err)
		}
		d := env2.Dev.Stats().Sub(before)
		return int64(d.Loads)
	}
	small := measure(500)
	large := measure(5000)
	if large > small*3/2 {
		t.Errorf("recovery loads grew %d -> %d with 10x the transactions; not history-independent", small, large)
	}
}

// TestVarSlotReclaimedOnUpdateCommit checks Table 2's space reclamation: the
// arena does not grow over same-size updates, the var-slot the heap keeps
// aside for the next update is no leak, and after a crash the reopen sweep
// frees it.
func TestVarSlotReclaimedOnUpdateCommit(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20})
	e, _ := New(env, simpleSchema(), core.Options{})
	e.Begin()
	e.Insert("t", 1, []core.Value{core.IntVal(1), core.IntVal(2), core.BytesVal(make([]byte, 1000))})
	e.Commit()
	stable := e.Environment().Arena.Allocated()
	for i := 0; i < 50; i++ {
		e.Begin()
		e.Update("t", 1, core.Update{Cols: []int{2}, Vals: []core.Value{core.BytesVal(make([]byte, 1000))}})
		e.Commit()
	}
	after := e.Environment().Arena.Allocated()
	if after > stable+2048 {
		t.Errorf("allocator grew %d -> %d over 50 same-size updates; old var-slots leak", stable, after)
	}
	if err := leaks(e); err != nil {
		t.Errorf("beside a kept var-slot: %v", err)
	}
	env2, e2 := crashOpen(t, env, simpleSchema(), core.Options{})
	if err := leaks(e2); err != nil {
		t.Errorf("after a crash: %v", err)
	}
	if got := env2.Arena.Allocated(); got >= after {
		t.Errorf("after a crash the arena holds %d bytes, %d before it: the kept var-slot was not swept", got, after)
	}
}

// crashOpen cuts the power under env and opens the engine on what the
// medium kept.
func crashOpen(t *testing.T, env *core.Env, schemas []*core.Schema, opts core.Options) (*core.Env, *Engine) {
	t.Helper()
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(env2, schemas, opts)
	if err != nil {
		t.Fatal(err)
	}
	return env2, e
}

// leaks reports a persisted chunk that the engine header, the heaps and the
// indexes do not reach — after Open the WAL is empty, so every persisted chunk
// must be one of theirs — and an index node in a free chunk: a node freed
// while its tree still routes to it.
func leaks(ce core.Engine) error {
	e := ce.(*Engine)
	reach := map[pmalloc.Ptr]bool{e.hdr: true}
	nodes := map[pmalloc.Ptr]bool{}
	for t := range e.Tables {
		e.heaps[t].Reach(func(p pmalloc.Ptr) { reach[p] = true })
		for _, tr := range append([]*nvbtree.Tree{e.primary[t]}, e.second[t]...) {
			tr.Nodes(func(p pmalloc.Ptr) { reach[p], nodes[p] = true, true })
		}
	}
	var err error
	e.Env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
		switch {
		case err != nil:
		case st == pmalloc.StatePersisted && !reach[p]:
			err = fmt.Errorf("leaked chunk %d (%s, %d B): persisted and unreachable", p, pmalloc.TagNames[tag], size)
		case st == pmalloc.StateFree && nodes[p]:
			err = fmt.Errorf("an index routes to node %d, a free chunk", p)
		}
	})
	return err
}

func confFactory() enginetest.Factory {
	return enginetest.Factory{
		Name: "nvminp",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return Open(env, schemas, opts)
		},
		Leaks: leaks,
	}
}

// TestFenceWindows: every fence of a one-transaction schedule, every outcome
// of the lines behind it that the walk tries.
func TestFenceWindows(t *testing.T) {
	enginetest.RunFenceWindows(t, confFactory())
}

// TestFenceWindowsCatchDroppedFence: an update whose entry takes back the
// chunk the previous commit's entry left (pmalloc.Arena.FreeStreamed) ends
// record, in-place write, commit — three fences, no allocation's among them.
// Without the record's fence the field can outlive the record that would
// restore it.
func TestFenceWindowsCatchDroppedFence(t *testing.T) {
	enginetest.RunFenceWindowsCatchesDroppedFence(t, confFactory(), "over-freed-entry", 3)
}

// TestDropEachFence: the walk with each fence of a schedule's transaction
// deleted in turn, every schedule (the first alone under -short); it logs
// which crash state caught each loss, and must catch the commit line's.
func TestDropEachFence(t *testing.T) {
	enginetest.RunDropEachFence(t, confFactory())
}

func TestRecoveryConformance(t *testing.T) {
	enginetest.RunRecoveryConformance(t, confFactory())
}

func TestConcurrentRecoveryConformance(t *testing.T) {
	enginetest.RunConcurrentRecoveryConformance(t, confFactory())
}

// TestConformanceCatchesMissingFence: the conformance battery must fail an
// engine whose commit-path SFENCE has been removed.
func TestConformanceCatchesMissingFence(t *testing.T) {
	enginetest.RunConformanceCatchesMissingFence(t, confFactory(), enginetest.BaseSeed())
}

func TestSnapshotConformance(t *testing.T) {
	enginetest.RunSnapshotConformance(t, confFactory())
}

func TestCrossShardConformance(t *testing.T) {
	enginetest.RunCrossShardConformance(t, confFactory())
}

// TestColReader: core.GetCols, served natively from the heap, equals the
// projection of Get.
func TestColReader(t *testing.T) {
	enginetest.RunColReader(t, confFactory(), true)
}

// TestEmptyTableSurvivesCrash pins a recovery edge the cross-shard battery
// found: a table that is created and NEVER written (the usual state of the
// hidden 2PC bookkeeping tables) must still be scannable after a power cut.
// nvbtree.Create used to leave the empty root's flag/count lines unfenced —
// the header survived the crash but pointed at a zeroed node that read back
// as an inner node with no children.
func TestEmptyTableSurvivesCrash(t *testing.T) {
	schemas := append(simpleSchema(), &core.Schema{
		Name:    "empty",
		Columns: []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TInt}},
	})
	env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20})
	if _, err := New(env, schemas, core.Options{GroupCommitSize: 1}); err != nil {
		t.Fatal(err)
	}
	_, e2 := crashOpen(t, env, schemas, core.Options{GroupCommitSize: 1})
	for _, s := range schemas {
		n := 0
		if err := e2.ScanRange(s.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("%s: %d phantom rows in a never-written table", s.Name, n)
		}
	}
}

// TestDeviceBudget pins the write path's cost per transaction in device
// counters, about a tenth above what the fixed schedule costs today: loads /
// stores / flushes / fences 1.3 / 5.0 / 1.0 / 3.00 — one fence each for the
// WAL entry, the tuple and the commit, and the WAL entry, the new var-slot
// and the commit line streamed on lines of their own, the var-slot over the
// one the previous update superseded; the one CLWB is the field's. (It
// stored 6.0 while the undo entry header was padded to 32 bytes and a
// one-column entry spilled onto a second line; it was 1.3 / 6.0 / 2.0 / 3.00 while the commit wrote back an epoch word that
// shared a line of the header; 1.3 / 7.0 / 3.0 / 4.00 while each entry was
// linked through the WAL head with a durable write of its own; it loaded 2.3
// while the index lookup read the
// leaf's every entry and the commit read the superseded var-slot's header to
// free it; it was 3.9 / 7.7 / 7.0 / 4.00 while a chunk shared its first and
// last lines with its neighbours, so its header line was filled and both were
// written back; 4.8 / 8.4 / 9.9 / 7.00 while the new var-slot was written
// through the cache, the slot written back whole and every chunk marked
// persisted behind a fence of its own; it loaded 29.7 lines while Update read
// the whole row to change one column.)
func TestDeviceBudget(t *testing.T) {
	enginetest.RunDeviceBudget(t, confFactory(), enginetest.Budget, enginetest.DeviceBudget{Loads: 1.4, Stores: 5.5, Flushes: 1.1, Fences: 3.3})
}

// TestUpdateTouchesOnlyItsLines: a cold one-column update loads the index
// path — of the leaf, its first line and the entry its key's fingerprint
// matches — the slot's lines and the lines it writes through the cache: 11
// lines, the same with thirty columns or kilobyte ones beside the one it
// writes (12 while the commit wrote the epoch through the cache and filled
// its line); the var-slot it supersedes is kept aside for the next update,
// unread. It streams its WAL entry, its new var-slot and the commit line,
// each on lines of its own, and writes back the one line it dirtied through
// the cache, the field's — one CLWB (two while the epoch shared a line of
// the header and was written back, three while the WAL head was written back
// to link the entry too). It stores five lines: the WAL entry one (two while
// the entry header was padded to 32 bytes and the 49-byte entry spilled one
// byte onto a second line), the var-slot two, the field's line and the
// commit line. A read-only transaction writes nothing at all.
func TestUpdateTouchesOnlyItsLines(t *testing.T) {
	enginetest.RunUpdateTouchesOnlyItsLines(t, confFactory(), enginetest.UpdateLines{
		MaxLoads: []uint64{11, 11, 11}, Stores: []uint64{5, 5, 5}, CLWBs: []uint64{1, 1, 1}})
}

// TestArenaExhaustion: a full arena is a typed error at the operation, not a
// panic in the partition's goroutine, and costs the transaction only.
func TestArenaExhaustion(t *testing.T) {
	enginetest.RunArenaExhaustion(t, confFactory())
}

// TestLogEntryCostIgnoresLinePhase: the WAL entry chunk is recycled from
// commit to commit, so it stays where the allocator first put it, and that
// depends on every allocation made before. A chunk over a line starts one, so
// wherever the heap ended — a small chunk in front leaves it at either phase a
// chunk can — the entry starts a line, and an update costs the same device
// stores, CLWBs and fences. (Before chunks owned their lines the entry sat at
// any 16-byte phase, and the benchmark's write_amp stepped by 5 % from seed
// to seed with it.) The update is of an int column, so the entry is the only
// chunk it writes; the first update carves it and is not counted.
func TestLogEntryCostIgnoresLinePhase(t *testing.T) {
	ends := map[int64]bool{}
	var want nvm.Stats
	for i, pad := range []int{0, 16, 32, 48} {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20, Profile: nvm.ProfileLowNVM})
		e, err := New(env, simpleSchema(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.Begin()
		for k := uint64(1); k <= 8; k++ {
			if err := e.Insert("t", k, []core.Value{core.IntVal(int64(k)), core.IntVal(0), core.StrVal("x")}); err != nil {
				t.Fatal(err)
			}
		}
		e.Commit()
		// Move the heap end the first update entry is carved at: small
		// chunks until one comes from fresh memory.
		for end := env.Arena.HeapBytes(); pad > 0 && env.Arena.HeapBytes() == end; {
			if _, err := env.Arena.Alloc(pad, pmalloc.TagOther); err != nil {
				t.Fatal(err)
			}
		}
		ends[env.Arena.HeapBytes()%nvm.LineSize] = true
		var st0 nvm.Stats
		for n := int64(0); n <= 20; n++ {
			if n == 1 {
				st0 = env.Dev.Stats()
			}
			e.Begin()
			if err := e.Update("t", 3, core.Update{Cols: []int{1}, Vals: []core.Value{core.IntVal(n)}}); err != nil {
				t.Fatal(err)
			}
			env.Arena.Chunks(func(p pmalloc.Ptr, size int, tag pmalloc.Tag, st pmalloc.State) {
				if tag == pmalloc.TagLog && st == pmalloc.StatePersisted && (int64(p)-pmalloc.HeaderSize)%nvm.LineSize != 0 {
					t.Fatalf("behind a %d-byte chunk the %d-byte entry chunk at %d does not start a line", pad, pmalloc.HeaderSize+size, p)
				}
			})
			e.Commit()
		}
		got := env.Dev.Stats().Sub(st0)
		if i == 0 {
			want = got
		} else if got.Stores != want.Stores || got.Flushes != want.Flushes || got.Fences != want.Fences {
			t.Errorf("behind a %d-byte chunk 20 updates cost %d stores, %d flushes, %d fences; behind none %d, %d, %d",
				pad, got.Stores, got.Flushes, got.Fences, want.Stores, want.Flushes, want.Fences)
		}
	}
	if len(ends) < 2 {
		t.Fatalf("the heap ended at line phases %v only: the test did not move it", ends)
	}
}

// walkEnv is small: the walk copies the device, cache included, once per
// crash outcome.
var walkEnv = core.EnvConfig{DeviceSize: 1 << 20, FSExtent: 64 << 10, CacheSize: 64 << 10}

// TestCrashInIndexRewriteKeepsLiveNode: an nvbtree rewrite frees the node it
// replaces, the allocator hands that address to the next rewrite's new node,
// and the parent's append-only entry array still holds the old, shadowed
// route to it. A crash between that next rewrite's journal and its commit used
// to recover as "committed" — some entry of the parent points at the probe —
// and freed the old node, which the tree still routed to: its chunk was then
// reused and acked inserts vanished (the serve soak's "acked key lost"). The
// table has two int columns, so no var-slot or second index takes the freed
// node before the next rewrite does, as they do on the fence windows' users
// table. Three interleaved ascending key streams arrive in twelve seeded
// orders (four under -short), and nvm.WalkFences crashes a window of eight
// inserts a third of the way in at each of its fences: after recovery every
// node of an index is an allocated chunk, no chunk is persisted yet
// unreachable, the committed keys are a prefix of the arrivals that
// reaches the window (all of it once the window has returned), and the rest
// of the load goes in and reads back.
func TestCrashInIndexRewriteKeepsLiveNode(t *testing.T) {
	schema := []*core.Schema{{Name: "t", Columns: []core.Column{{Name: "id", Type: core.TInt}, {Name: "v", Type: core.TInt}}}}
	insert := func(e *Engine, k uint64) error {
		return txn2pc.Run(e, func() error {
			return e.Insert("t", k, []core.Value{core.IntVal(int64(k)), core.IntVal(int64(k) * 3)})
		})
	}
	seeds := int64(12) // arrival orders; each walk takes about half a second
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var keys []uint64
		for i := uint64(0); i < 80; i++ {
			for _, stream := range []uint64{1, 3, 5} {
				keys = append(keys, (stream*150+i)*2+1)
			}
		}
		for i := 0; i+1 < len(keys); i++ { // three clients' arrival order
			if rng.Intn(3) == 0 {
				keys[i], keys[i+1] = keys[i+1], keys[i]
			}
		}
		at := 150 + rng.Intn(30)
		window := keys[at : at+8]
		_, err := nvm.WalkFences(func() (*nvm.Device, func() error, error) {
			env := core.NewEnv(walkEnv)
			e, err := New(env, schema, core.Options{})
			if err != nil {
				return nil, nil, err
			}
			for _, k := range keys[:at] {
				if err := insert(e, k); err != nil {
					return nil, nil, err
				}
			}
			return env.Dev, func() error {
				for _, k := range window {
					if err := insert(e, k); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}, func(k, fences int, dev *nvm.Device) error {
			env, err := (&core.Env{Dev: dev}).Reopen()
			if err != nil {
				return err
			}
			e, err := Open(env, schema, core.Options{})
			if err != nil {
				return fmt.Errorf("open: %w", err)
			}
			if err := leaks(e); err != nil {
				return err
			}
			// The window's committed arrivals: a prefix of it, all of it once
			// it has returned. A later arrival that survived a lost one fails
			// its insert below as a duplicate.
			n := at
			for ; n < at+len(window); n++ {
				if _, ok, err := e.Get("t", keys[n]); err != nil || !ok {
					break
				}
			}
			if k == fences && n < at+len(window) {
				return fmt.Errorf("the window had returned, yet arrival %d is lost", n)
			}
			for _, k := range keys[n:] {
				if err := insert(e, k); err != nil {
					return fmt.Errorf("insert %d after recovery: %w", k, err)
				}
			}
			for i, k := range keys {
				if row, ok, err := e.Get("t", k); err != nil || !ok || row[1].I != int64(k)*3 {
					return fmt.Errorf("arrival %d, key %d, after the rest of the load: %v found=%v err=%v", i, k, row, ok, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d, the window of arrivals %d..%d: %v", seed, at, at+len(window)-1, err)
		}
	}
}

// TestCrashInRecoveryKeepsLiveNodes: undo runs again when recovery itself
// crashes, so it must free nothing that its own index work could have taken
// in between. The strings here are larger than an index node (BTreeNodeSize
// 128): a var-slot freed while an entry is still linked is a chunk the next
// nvbtree rewrite recycles as a node, and a second undo of the same entry
// would free it under the tree. A transaction that updates strings, moves
// tuples within a secondary index and inserts is cut off before its commit;
// nvm.WalkFences crashes its recovery at every fence, with the un-fenced
// lines all lost, all kept and each kept alone, and once more at every fence
// with a seeded half of them kept; recovery then runs once more to the end:
// the table is the committed one, every index node is a live chunk, no chunk
// is persisted yet unreachable, and the engine takes more load.
func TestCrashInRecoveryKeepsLiveNodes(t *testing.T) {
	schema := []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TString, Size: 400},
		},
		Secondary: []core.IndexSpec{{
			Name:   "by_a",
			SecKey: func(row []core.Value) uint32 { return uint32(row[1].I) },
			Cols:   []int{1},
		}},
	}}
	opts := core.Options{BTreeNodeSize: 128}
	str := func(k uint64, salt int) core.Value {
		return core.StrVal(fmt.Sprintf("%d/%d:%0*d", k, salt, 200+int(k%5)*40, 0))
	}
	row := func(k uint64, salt int) []core.Value {
		return []core.Value{core.IntVal(int64(k)), core.IntVal(int64(k % 7)), str(k, salt)}
	}
	const keys = 40
	// build cuts the transaction off and returns the recovery to crash.
	build := func() (*nvm.Device, func() error, error) {
		env := core.NewEnv(walkEnv)
		e, err := New(env, schema, opts)
		if err != nil {
			return nil, nil, err
		}
		for key := uint64(1); key <= keys; key++ {
			if err := txn2pc.Run(e, func() error { return e.Insert("t", key, row(key, 0)) }); err != nil {
				return nil, nil, err
			}
		}
		// The transaction the crash cuts off.
		if err := e.Begin(); err != nil {
			return nil, nil, err
		}
		for key := uint64(1); key <= keys; key++ {
			var err error
			switch key % 3 {
			case 0:
				err = e.Update("t", key, core.Update{Cols: []int{2}, Vals: []core.Value{str(key, 1)}})
			case 1:
				err = e.Update("t", key, core.Update{Cols: []int{1, 2}, Vals: []core.Value{core.IntVal(int64(key%7) + 100), str(key, 2)}})
			default:
				err = e.Insert("t", keys+key, row(keys+key, 3))
			}
			if err != nil {
				return nil, nil, err
			}
		}
		env.Dev.Crash()
		env, err = env.Reopen()
		if err != nil {
			return nil, nil, err
		}
		return env.Dev, func() error {
			_, err := Open(env, schema, opts)
			return err
		}, nil
	}
	// again runs the second recovery on the crashed device and checks it.
	// (An index node a rewrite replaced is freed without a write-back; the
	// crash resurrects it, and the second recovery's sweep frees it.)
	again := func(_, _ int, dev *nvm.Device) error {
		env, err := (&core.Env{Dev: dev}).Reopen()
		if err != nil {
			return err
		}
		e, err := Open(env, schema, opts)
		if err != nil {
			return fmt.Errorf("the second recovery: %w", err)
		}
		if err := leaks(e); err != nil {
			return err
		}
		// The table is the committed one, and after more load the table
		// with it.
		want := map[uint64][]core.Value{}
		for key := uint64(1); key <= keys; key++ {
			want[key] = row(key, 0)
		}
		for i, stage := range []string{"after recovery", "after more load"} {
			n := 0
			var bad error
			err := e.ScanRange("t", 0, ^uint64(0), func(pk uint64, r []core.Value) bool {
				n++
				if w, ok := want[pk]; !ok || !core.RowsEqual(schema[0], r, w) {
					bad = fmt.Errorf("key %d reads %v, want %v", pk, r, w)
				}
				return bad == nil
			})
			if err == nil && bad == nil && n != len(want) {
				bad = fmt.Errorf("%d rows, want %d", n, len(want))
			}
			if err := errors.Join(err, bad); err != nil {
				return fmt.Errorf("%s: %w", stage, err)
			}
			for key := uint64(200); i == 0 && key < 260; key++ {
				want[key] = row(key, 4)
				if err := txn2pc.Run(e, func() error { return e.Insert("t", key, want[key]) }); err != nil {
					return fmt.Errorf("insert %d: %w", key, err)
				}
			}
		}
		return nil
	}
	fences, err := nvm.WalkFences(build, again)
	if err != nil {
		t.Fatal(err)
	}
	if fences < 10 {
		t.Fatalf("recovery finished within %d fences: the walk crashed it nowhere", fences)
	}
	// The walk keeps none, all or one of the un-fenced lines; a seeded half
	// keeps several and loses several.
	for k := 0; k < fences; k++ {
		dev, recovery, err := build()
		if err != nil {
			t.Fatal(err)
		}
		dev.InjectFaults(nvm.FaultPlan{Seed: int64(k), Mode: nvm.FaultReorder, CrashAfterFences: k, KeepProb: 0.5})
		if crashed, err := nvm.Crashed(recovery); !crashed || err != nil {
			t.Fatalf("recovery to fence %d: crashed %v: %v", k, crashed, err)
		}
		dev.Crash()
		if err := again(k, fences, dev); err != nil {
			t.Fatalf("recovery crashed at fence %d, a seeded half of its un-fenced lines kept: %v", k, err)
		}
	}
}

// TestOpenRefusesCorruptUndoEntry: an undo entry of the open epoch that
// proves itself — its CRC holds — yet names a table the schemas do not have
// is refused by Open with a corrupt error. It panicked with an index out of
// range when the entry was read unchecked.
func TestOpenRefusesCorruptUndoEntry(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20})
	e, err := New(env, simpleSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Begin()
	if err := e.Insert("t", 1, []core.Value{core.IntVal(1), core.IntVal(0), core.StrVal("x")}); err != nil {
		t.Fatal(err)
	}
	if err := e.log.Append(undolog.Entry{Type: core.WalInsert, Table: 200, Key: 1, Body: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	env.Dev.Fence()
	env.Dev.Crash()
	env2, err := env.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(env2, simpleSchema(), core.Options{}); !core.IsCorrupt(err) {
		t.Fatalf("Open over an undo entry of table 200: %v, want a corrupt error", err)
	}
}

// TestOpenRejectsEarlierFormat: an image of an earlier format is refused by
// Open with a corrupt error. One from before self-validating undo entries
// (NVMINP12) links its entries from the epoch word, and one from before the
// commit line (NVMINP13) keeps the epoch at header offset 16, beside other
// words: Open would take a pointer, or a reserved word, for an epoch. One
// from before the undo entry header was packed (NVMINP14) holds entries whose
// body length and key lie three bytes further on.
func TestOpenRejectsEarlierFormat(t *testing.T) {
	for _, magic := range []uint64{0x4e564d494e503132, 0x4e564d494e503133, 0x4e564d494e503134} {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20})
		e, err := New(env, simpleSchema(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		env.Dev.WriteU64Durable(int64(e.hdr)+hMagic, magic)
		env.Dev.Crash()
		env2, err := env.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(env2, simpleSchema(), core.Options{}); !core.IsCorrupt(err) {
			t.Fatalf("Open on a %q image: %v, want a corrupt error", binary.BigEndian.AppendUint64(nil, magic), err)
		}
	}
}

// TestCommitLineOwnsItsLine: the undo log's commit line starts a cache line
// of the engine header, and no other header word lies in it — on the medium,
// after commits, it holds the epoch and zeros, and the words around it what
// New wrote.
func TestCommitLineOwnsItsLine(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20})
	e, err := New(env, simpleSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	line := int64(e.hdr) + hCommit
	if line%nvm.LineSize != 0 || hNTables+8 > hCommit || hAnchors < hCommit+nvm.LineSize {
		t.Fatalf("the commit line at header offset %d (device %d) is not a line of its own", hCommit, line)
	}
	for k := uint64(1); k <= 3; k++ {
		e.Begin()
		if err := e.Insert("t", k, []core.Value{core.IntVal(int64(k)), core.IntVal(0), core.StrVal("x")}); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	want := binary.LittleEndian.AppendUint64(nil, 4) // Format's epoch 1, then three commits
	if !env.Dev.DurableEqual(line, append(want, make([]byte, nvm.LineSize-8)...)) {
		t.Error("the commit line is not the epoch and zeros on the medium")
	}
	if env.Dev.ReadU64(int64(e.hdr)+hMagic) != hdrMagic || env.Dev.ReadU64(int64(e.hdr)+hNTables) != uint64(len(simpleSchema())) {
		t.Error("the header words beside the commit line changed")
	}
}
