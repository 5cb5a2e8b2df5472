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
		s := putRow(t, h, i, sampleRow())
		h.SyncTuple(s)
		h.PersistSlot(s)
	}
	// One allocated-but-never-persisted slot (in-flight insert at crash).
	if _, err := h.AllocSlot(999); err != nil {
		t.Fatal(err)
	}
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
	s := putRow(t, h2, 555, sampleRow())
	h2.SyncTuple(s)
	h2.PersistSlot(s)
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
	h.SyncTuple(slot)
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

// TestHeapPersistCols: an update marks persisted the var-slots of the columns
// it names and reads no other column's chunk header.
func TestHeapPersistCols(t *testing.T) {
	dev, arena, h := newHeapEnv(t, true)
	slot := putRow(t, h, 1, sampleRow())
	h.SyncTuple(slot)
	h.PersistSlot(slot)
	other := h.ColVarPtr(slot, 3)
	if err := h.WriteCols(slot, []int{1, 2}, []Value{StrVal("bob"), IntVal(9)}); err != nil {
		t.Fatal(err)
	}
	h.SyncTuple(slot)
	dev.EvictAll()
	loads := dev.Stats().Loads
	h.PersistCols(slot, 1, 2)
	if got := dev.Stats().Loads - loads; got > 3 {
		t.Errorf("PersistCols of one string column loaded %d lines, want the slot's and one chunk header", got)
	}
	if st := arena.StateOf(h.ColVarPtr(slot, 1)); st != pmalloc.StatePersisted {
		t.Errorf("updated column's var-slot in state %d", st)
	}
	if st := arena.StateOf(other); st != pmalloc.StatePersisted {
		t.Errorf("untouched column's var-slot in state %d", st)
	}
}
