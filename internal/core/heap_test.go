package core

import (
	"errors"
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

func newHeapEnv(t testing.TB, nvmMode bool) (*nvm.Device, *pmalloc.Arena, *Heap) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(64 << 20))
	arena := pmalloc.Format(dev, 0, 64<<20)
	return dev, arena, NewHeap(arena, testSchema(), nvmMode)
}

// putRow allocates a slot for key and writes row into it.
func putRow(t testing.TB, h *Heap, key uint64, row []Value) uint64 {
	t.Helper()
	slot, err := h.StoreRow(key, row)
	if err != nil {
		t.Fatalf("key %d: %v", key, err)
	}
	return slot
}

func TestHeapWriteReadRow(t *testing.T) {
	_, _, h := newHeapEnv(t, false)
	row := sampleRow()
	slot := putRow(t, h, 7, row)
	h.PersistSlot(slot)
	got := h.ReadRow(slot)
	if !RowsEqual(h.Schema(), got, row) {
		t.Fatalf("row mismatch: %v vs %v", got, row)
	}
	if h.Key(slot) != 7 {
		t.Errorf("Key = %d", h.Key(slot))
	}
	if h.Live() != 1 {
		t.Errorf("Live = %d", h.Live())
	}
}

func TestHeapFreeAndReuse(t *testing.T) {
	_, arena, h := newHeapEnv(t, false)
	var slots []uint64
	for i := uint64(1); i <= 200; i++ {
		s := putRow(t, h, i, sampleRow())
		h.PersistSlot(s)
		slots = append(slots, s)
	}
	before := arena.Allocated()
	for _, s := range slots {
		h.FreeSlot(s)
	}
	if h.Live() != 0 {
		t.Errorf("Live = %d after freeing all", h.Live())
	}
	// Re-inserting must not grow the arena (slots and var-chunks recycle).
	for i := uint64(1); i <= 200; i++ {
		s := putRow(t, h, i, sampleRow())
		h.PersistSlot(s)
	}
	if got := arena.Allocated(); got > before {
		t.Errorf("arena grew %d -> %d on reuse", before, got)
	}
}

func TestHeapScan(t *testing.T) {
	_, _, h := newHeapEnv(t, false)
	keys := map[uint64]bool{}
	for i := uint64(1); i <= 150; i++ {
		s := putRow(t, h, i, sampleRow())
		h.PersistSlot(s)
		keys[i] = true
	}
	n := 0
	h.Scan(func(slot uint64) bool {
		if !keys[h.Key(slot)] {
			t.Fatalf("scan found unknown key %d", h.Key(slot))
		}
		n++
		return true
	})
	if n != 150 {
		t.Errorf("scanned %d slots", n)
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHeapNVMReopen(t *testing.T) {
	dev, arena, h := newHeapEnv(t, true)
	for i := uint64(1); i <= 100; i++ {
		h.PersistSlot(putRow(t, h, i, sampleRow()))
	}
	dev.Fence()
	// One allocated-but-never-persisted slot (in-flight insert at crash),
	// whose first store an eviction made durable.
	orphan, err := h.AllocSlot(999)
	if err != nil {
		t.Fatal(err)
	}
	dev.Sync(int64(orphan), 16)
	arena.SetRoot(1, h.Header())

	dev.Crash()
	arena2, err := pmalloc.Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2 := OpenHeap(arena2, testSchema(), arena2.Root(1))
	if h2.Live() != 100 {
		t.Fatalf("Live = %d after reopen, want 100", h2.Live())
	}
	seen := 0
	h2.Scan(func(slot uint64) bool {
		row := h2.ReadRow(slot)
		if !RowsEqual(h2.Schema(), row, sampleRow()) {
			t.Fatalf("row for key %d corrupted", h2.Key(slot))
		}
		seen++
		return true
	})
	if seen != 100 {
		t.Errorf("scanned %d after reopen", seen)
	}
	// The orphaned slot must have been reclaimed: inserting reuses it
	// without growing live count incorrectly.
	h2.PersistSlot(putRow(t, h2, 555, sampleRow()))
	if h2.Live() != 101 {
		t.Errorf("Live = %d after one more insert", h2.Live())
	}
}

func TestHeapWriteColReplacesVar(t *testing.T) {
	_, _, h := newHeapEnv(t, false)
	slot := putRow(t, h, 1, sampleRow())
	oldVar := h.ColVarPtr(slot, 1)
	if oldVar == 0 {
		t.Fatal("no var slot for string column")
	}
	h.FreeVar(oldVar)
	if err := h.WriteCol(slot, 1, StrVal("replacement")); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadCol(slot, 1); string(got.S) != "replacement" {
		t.Errorf("ReadCol = %q", got.S)
	}
}

func TestHeapFreeSlotOnly(t *testing.T) {
	_, _, h := newHeapEnv(t, true)
	slot := putRow(t, h, 1, sampleRow())
	h.PersistSlot(slot)
	vp := h.ColVarPtr(slot, 1)
	h.FreeSlotOnly(slot)
	if h.Live() != 0 {
		t.Errorf("Live = %d", h.Live())
	}
	// Var slot intentionally untouched.
	h.FreeVar(vp) // caller cleans up
}

// TestHeapWriteColsAllOrNothing: a write the arena cannot hold returns the
// allocator's error — a plain one, neither retryable nor corrupt — and leaves
// the slot, the arena's accounting and the heap's free list as they were.
func TestHeapWriteColsAllOrNothing(t *testing.T) {
	for _, nvmMode := range []bool{false, true} {
		dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
		arena := pmalloc.Format(dev, 0, 64<<10)
		h := NewHeap(arena, testSchema(), nvmMode)
		slot := putRow(t, h, 1, sampleRow())
		h.PersistSlot(slot)
		// Fill the arena, then give back one chunk that holds the first new
		// var-slot and not the second.
		for {
			if _, err := arena.Alloc(4096, pmalloc.TagOther); err != nil {
				break
			}
		}
		var last pmalloc.Ptr
		for {
			p, err := arena.Alloc(16, pmalloc.TagOther)
			if err != nil {
				break
			}
			last = p
		}
		arena.Free(last)
		held := arena.Allocated()
		big := BytesVal(make([]byte, 100))
		err := h.WriteCols(slot, []int{1, 2, 3}, []Value{StrVal("bob"), IntVal(9), big})
		if !errors.Is(err, pmalloc.ErrOutOfMemory) || IsRetryable(err) || IsCorrupt(err) {
			t.Fatalf("nvm=%v: WriteCols on a full arena = %v, want a plain out-of-memory error", nvmMode, err)
		}
		if got := h.ReadRow(slot); !RowsEqual(h.Schema(), got, sampleRow()) {
			t.Errorf("nvm=%v: failed write changed the row: %v", nvmMode, got)
		}
		if arena.Allocated() != held {
			t.Errorf("nvm=%v: failed write holds %d bytes", nvmMode, arena.Allocated()-held)
		}
		// A heap that cannot grow says so and keeps its free list.
		for i := uint64(2); ; i++ {
			s, err := h.StoreRow(i, sampleRow())
			if err != nil {
				if !errors.Is(err, pmalloc.ErrOutOfMemory) {
					t.Fatalf("nvm=%v: StoreRow = %v", nvmMode, err)
				}
				break
			}
			h.PersistSlot(s)
		}
		if err := h.Validate(); err != nil {
			t.Errorf("nvm=%v: %v", nvmMode, err)
		}
	}
}

// TestHeapUpdateMarksWhatItWrites: on an NVM heap an update's WriteCols
// streams each var-slot it allocates with its persisted mark and stores the
// fields, WriteBackCols writes back their line and nothing else of the slot,
// neither fences, and no other column's field, var-slot or chunk header is
// touched; the caller's one fence makes the update durable.
func TestHeapUpdateMarksWhatItWrites(t *testing.T) {
	dev, arena, h := newHeapEnv(t, true)
	slot := putRow(t, h, 1, sampleRow())
	h.PersistSlot(slot)
	dev.Fence()
	old, other := h.ColVarPtr(slot, 1), h.ColVarPtr(slot, 3)
	cols, vals := []int{1, 2}, []Value{StrVal("bob"), IntVal(9)}
	// A chunk of the size on the free list: the allocator splits nothing.
	spare, err := arena.Alloc(4+len("bob"), pmalloc.TagTable)
	if err != nil {
		t.Fatal(err)
	}
	arena.Free(spare)
	dev.EvictAll()
	st0 := dev.Stats()
	if err := h.WriteCols(slot, cols, vals); err != nil {
		t.Fatal(err)
	}
	h.WriteBackCols(slot, cols)
	got := dev.Stats().Sub(st0)
	// The var-slot's line and each line the two fields lie in, each filled
	// once and written back once: "bob" and its chunk header share a line,
	// which it shares with its neighbours.
	lines := uint64(1)
	if first, last := int64(slot)+slotData+8, int64(slot)+slotData+16; first/nvm.LineSize != last/nvm.LineSize {
		lines++
	}
	if n := 1 + lines; got.Loads != n || got.Flushes != n || got.Stores != n || got.Fences != 0 {
		t.Errorf("a two-column update cost %d loads, %d CLWBs, %d stores, %d fences; want %d, %d, %d, 0", got.Loads, got.Flushes, got.Stores, got.Fences, n, n, n)
	}
	if vp := h.ColVarPtr(slot, 1); vp == old || arena.StateOf(vp) != pmalloc.StatePersisted {
		t.Errorf("updated column points at %d (was %d) in state %d, want a new persisted var-slot", vp, old, arena.StateOf(vp))
	}
	if h.ColVarPtr(slot, 3) != other {
		t.Errorf("untouched column now points at %d", h.ColVarPtr(slot, 3))
	}
	dev.Fence()
	dev.Crash()
	want := sampleRow()
	want[1], want[2] = vals[0], vals[1]
	if row := h.ReadRow(slot); !RowsEqual(h.Schema(), row, want) {
		t.Errorf("after the fence and a crash the row reads %v", row)
	}
}

// TestHeapTryReadSurvivesGarbage: a string field that points outside the
// arena, or at a length word larger than the arena, is an error from the Try
// reads instead of a panic in the device.
func TestHeapTryReadSurvivesGarbage(t *testing.T) {
	dev, _, h := newHeapEnv(t, true)
	slot := putRow(t, h, 1, sampleRow())
	if _, err := h.TryReadRow(slot); err != nil {
		t.Fatal(err)
	}
	dev.WriteU32(int64(h.ColVarPtr(slot, 1)), 1<<31)
	if v, err := h.TryReadCol(slot, 1); err == nil {
		t.Errorf("garbage length read as %d bytes", len(v.S))
	}
	for _, bad := range []uint64{24, 1 << 40, 1 << 63} {
		h.RestoreCol(slot, 3, bad)
		if v, err := h.TryReadCols(slot, []int{0, 3}); err == nil {
			t.Errorf("pointer %d read as %v", bad, v)
		}
	}
}
