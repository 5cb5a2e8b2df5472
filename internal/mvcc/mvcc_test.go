package mvcc

import (
	"sync"
	"testing"

	"nstore/internal/core"
)

func testSchemas() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "v", Type: core.TInt},
		},
		Secondary: []core.IndexSpec{{
			Name:   "by_v",
			SecKey: func(row []core.Value) uint32 { return uint32(row[1].I) },
			Cols:   []int{1},
		}},
	}}
}

func row(id, v int64) []core.Value {
	return []core.Value{core.IntVal(id), core.IntVal(v)}
}

// commit stages and durably publishes one upsert at ts.
func commit(s *Store, ts uint64, key uint64, v int64) {
	s.StageUpsert("t", key, row(int64(key), v))
	s.CommitStaged(ts, true)
}

func TestViewPinsSnapshot(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	commit(s, 1, 10, 100)
	v1 := s.NewView()
	defer v1.Close()
	commit(s, 2, 10, 200)

	got, ok, err := v1.Get("t", 10)
	if err != nil || !ok || got[1].I != 100 {
		t.Fatalf("pinned view: got %v ok=%v err=%v, want v=100", got, ok, err)
	}
	v2 := s.NewView()
	defer v2.Close()
	got, ok, _ = v2.Get("t", 10)
	if !ok || got[1].I != 200 {
		t.Fatalf("fresh view: got %v ok=%v, want v=200", got, ok)
	}
	if v1.Ts() != 1 || v2.Ts() != 2 {
		t.Fatalf("view ts: %d, %d", v1.Ts(), v2.Ts())
	}
}

func TestUnpublishedCommitInvisible(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	s.StageUpsert("t", 1, row(1, 10))
	s.CommitStaged(1, false) // committed but not durable
	v := s.NewView()
	if _, ok, _ := v.Get("t", 1); ok {
		t.Fatal("unpublished commit visible to a snapshot")
	}
	if v.Ts() != 0 {
		t.Fatalf("ts advanced past an unpublished commit: %d", v.Ts())
	}
	v.Close()

	s.PublishDurable()
	v = s.NewView()
	defer v.Close()
	if got, ok, _ := v.Get("t", 1); !ok || got[1].I != 10 {
		t.Fatalf("published commit not visible: %v ok=%v", got, ok)
	}
}

func TestAbortDropsStaged(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	s.StageUpsert("t", 1, row(1, 10))
	s.DropStaged()
	s.CommitStaged(1, true)
	v := s.NewView()
	defer v.Close()
	if _, ok, _ := v.Get("t", 1); ok {
		t.Fatal("aborted write visible")
	}
}

func TestDeleteAndSecondary(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	commit(s, 1, 1, 7)
	commit(s, 2, 2, 7)
	old := s.NewView()
	defer old.Close()

	s.StageDelete("t", 1)
	s.CommitStaged(3, true)
	s.StageUpsert("t", 2, row(2, 9)) // moves 2 out of sec bucket 7
	s.CommitStaged(4, true)

	collect := func(v core.ReadView, sec uint32) []uint64 {
		var pks []uint64
		if err := v.ScanSecondary("t", "by_v", sec, func(pk uint64) bool {
			pks = append(pks, pk)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return pks
	}
	if got := collect(old, 7); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("old view sec scan: %v, want [1 2]", got)
	}
	now := s.NewView()
	defer now.Close()
	if got := collect(now, 7); len(got) != 0 {
		t.Fatalf("new view sec bucket 7: %v, want empty", got)
	}
	if got := collect(now, 9); len(got) != 1 || got[0] != 2 {
		t.Fatalf("new view sec bucket 9: %v, want [2]", got)
	}
	if _, ok, _ := now.Get("t", 1); ok {
		t.Fatal("deleted key visible in new view")
	}
}

func TestScanRangeSnapshot(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	for i := uint64(1); i <= 5; i++ {
		commit(s, i, i, int64(i)*10)
	}
	v := s.NewView()
	defer v.Close()
	commit(s, 6, 3, 999) // after the view: invisible
	var keys []uint64
	var vals []int64
	if err := v.ScanRange("t", 2, 5, func(pk uint64, r []core.Value) bool {
		keys = append(keys, pk)
		vals = append(vals, r[1].I)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != 2 || keys[1] != 3 || keys[2] != 4 {
		t.Fatalf("scan keys %v, want [2 3 4]", keys)
	}
	if vals[1] != 30 {
		t.Fatalf("scan saw post-snapshot write: %v", vals)
	}
}

func TestGCRespectsWatermark(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	s.GCEvery = 0 // manual GC only
	for i := uint64(1); i <= 10; i++ {
		commit(s, i, 1, int64(i))
	}
	// Pin a view, write past it, GC: the pinned version must survive.
	vOld := s.NewView() // ts 10
	for i := uint64(11); i <= 15; i++ {
		commit(s, i, 1, int64(i))
	}
	reclaimed := s.GC()
	if reclaimed == 0 {
		t.Fatal("GC reclaimed nothing despite 9 superseded versions")
	}
	if got, ok, _ := vOld.Get("t", 1); !ok || got[1].I != 10 {
		t.Fatalf("GC reclaimed the watermark version: %v ok=%v", got, ok)
	}
	vNew := s.NewView()
	if got, ok, _ := vNew.Get("t", 1); !ok || got[1].I != 15 {
		t.Fatalf("newest version damaged by GC: %v ok=%v", got, ok)
	}
	vNew.Close()
	vOld.Close()

	// With no views pinned, a second GC collapses to one version per key.
	s.GC()
	if n := s.Versions(); n > 2 { // one primary + one sec membership
		t.Fatalf("post-GC live versions = %d, want <= 2", n)
	}
}

func TestGCRemovesDeadChains(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	s.GCEvery = 0
	commit(s, 1, 1, 10)
	s.StageDelete("t", 1)
	s.CommitStaged(2, true)
	s.GC()
	if n := s.Versions(); n != 0 {
		t.Fatalf("dead chain survived GC: %d versions", n)
	}
	v := s.NewView()
	defer v.Close()
	if _, ok, _ := v.Get("t", 1); ok {
		t.Fatal("reclaimed key visible")
	}
	if err := v.ScanRange("t", 0, ^uint64(0), func(uint64, []core.Value) bool {
		t.Fatal("reclaimed key surfaced in scan")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersRace(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	const writers = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.NewView()
				ts := v.Ts()
				sum := int64(0)
				_ = v.ScanRange("t", 0, ^uint64(0), func(pk uint64, r []core.Value) bool {
					sum += r[1].I
					return true
				})
				// Every row's value encodes its commit ts; nothing newer
				// than the view may surface.
				_ = v.ScanRange("t", 0, ^uint64(0), func(pk uint64, r []core.Value) bool {
					if uint64(r[1].I) > ts {
						t.Errorf("view ts %d observed commit %d", ts, r[1].I)
						return false
					}
					return true
				})
				_, _, _ = v.Get("t", 3)
				_ = v.ScanSecondary("t", "by_v", 1, func(uint64) bool { return true })
				v.Close()
			}
		}()
	}
	for i := uint64(1); i <= writers; i++ {
		s.StageUpsert("t", i%8, []core.Value{core.IntVal(int64(i % 8)), core.IntVal(int64(i))})
		s.CommitStaged(i, i%3 != 0) // mix deferred and immediate publishes
		if i%3 == 0 {
			s.PublishDurable()
		}
		if i%16 == 0 {
			s.GC()
		}
	}
	close(stop)
	wg.Wait()
}

// TestOccValidatorTracksCommits pins the conflict oracle's contract: a
// commit stamps its keys (and the table frontier) at the commit timestamp,
// pending-but-unpublished groups are already visible to validation, and GC
// prunes per-key entries only up to the watermark — which a pinned view
// holds down, the invariant OCC validation-under-pin relies on.
func TestOccValidatorTracksCommits(t *testing.T) {
	s := NewStore(testSchemas(), 0)
	s.GCEvery = 0

	if ts := s.LatestKeyTs("t", 1); ts != 0 {
		t.Fatalf("unwritten key ts = %d, want 0", ts)
	}
	if ts := s.LatestKeyTs("nope", 1); ts != 0 {
		t.Fatalf("unknown table ts = %d, want 0", ts)
	}

	commit(s, 5, 1, 10)
	if ts := s.LatestKeyTs("t", 1); ts != 5 {
		t.Fatalf("key ts = %d, want 5", ts)
	}
	if ts := s.LatestTableTs("t"); ts != 5 {
		t.Fatalf("table ts = %d, want 5", ts)
	}

	// A view pinned at ts 5 holds the watermark at 5 across what follows.
	v := s.NewView()
	if v.Ts() != 5 {
		t.Fatalf("view ts = %d, want 5", v.Ts())
	}

	// Committed but NOT yet published: a group-commit buffer resident must
	// already conflict with overlapping snapshots — it will become durable.
	s.StageUpsert("t", 2, row(2, 20))
	s.CommitStaged(6, false)
	if ts := s.LatestKeyTs("t", 2); ts != 6 {
		t.Fatalf("pending key ts = %d, want 6", ts)
	}
	s.PublishDurable()

	// With the watermark pinned at 5, key 2's entry (ts 6) must survive GC
	// so a validator with snapshot 5 still sees it.
	s.GC()
	if ts := s.LatestKeyTs("t", 2); ts != 6 {
		t.Fatalf("pinned-above entry pruned: ts = %d, want 6", ts)
	}
	// Key 1 (ts 5) sits exactly at the watermark — prunable: no validator
	// can hold a snapshot older than the watermark by construction.
	if ts := s.LatestKeyTs("t", 1); ts != 0 {
		t.Fatalf("at-watermark entry kept: ts = %d, want 0 after GC", ts)
	}
	v.Close()

	// Fully unpinned GC prunes the remaining entries; the table-level
	// frontier is never pruned (scan/phantom protection).
	s.GC()
	if ts := s.LatestKeyTs("t", 2); ts != 0 {
		t.Fatalf("entry survived full GC: ts = %d", ts)
	}
	if ts := s.LatestTableTs("t"); ts != 6 {
		t.Fatalf("table frontier pruned: ts = %d, want 6", ts)
	}
}
