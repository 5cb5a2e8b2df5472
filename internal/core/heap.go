package core

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// Heap is the slotted table storage of §3.1: fixed-size tuple slots grouped
// into blocks, with fields larger than 8 bytes stored in separate
// variable-length slots referenced by an 8-byte pointer. A heap runs in one
// of two modes:
//
//   - volatile (InP, Log): no sync primitives; the heap is rebuilt from the
//     checkpoint/WAL during recovery.
//   - NVM mode (NVM-InP): slot state transitions are synced, the block list
//     is a durable linked list anchored at a header chunk, and the heap can
//     be reopened immediately after a crash (OpenHeap).
//
// Slot layout: state byte (+7 pad), primary key u64, then 8 bytes per
// column: an int inline, or a string's VarRef to a var-slot holding u32
// length + bytes.
type Heap struct {
	arena  *pmalloc.Arena
	dev    *nvm.Device
	schema *Schema
	nvmMod bool

	slotSize int
	perBlock int
	hdr      pmalloc.Ptr // NVM mode: durable chunk holding the block-list head

	blocks []uint64 // volatile mirror of the block list
	free   []uint64 // volatile free-slot pointers
	live   int

	allCols []int    // 0..len(Columns)-1, for WriteRow
	vps     []uint64 // scratch: var-slots of the call in progress
	img     []byte   // scratch: a var-slot's image on its way to the arena

	// kept is the var-slot of a line or more that FreeVar last released on
	// an NVM heap (0: none). It is not freed: still marked persisted and named
	// by nothing durable, it waits for the next var-slot of its chunk size,
	// which WriteCols streams over it (pmalloc.Arena.Restream) with no load
	// and no free mark. Reach names it; after a crash the owner's sweep frees
	// it like any var-slot no slot names.
	kept VarRef
}

// VarRef is a string column's 8-byte field: the pointer to its var-slot below
// bit 40, the string's length above, so the var-slot's chunk size is known
// without reading it. Zero is a field never written.
type VarRef uint64

const (
	varPtrBits = 40
	// MaxStringLen is the longest string a heap column holds.
	MaxStringLen = 1<<(64-varPtrBits) - 1
)

func varRef(p pmalloc.Ptr, n int) VarRef { return VarRef(uint64(n)<<varPtrBits | p) }

// Ptr returns the var-slot's payload pointer.
func (r VarRef) Ptr() pmalloc.Ptr { return uint64(r) & (1<<varPtrBits - 1) }

// Len returns the string's length in bytes.
func (r VarRef) Len() int { return int(r >> varPtrBits) }

// chunk returns the size of the var-slot's chunk, header included.
func (r VarRef) chunk() int { return pmalloc.ChunkSize(4 + r.Len()) }

// Slot states within a heap block.
const (
	SlotFree      uint8 = 0
	SlotAllocated uint8 = 1 // allocated, tuple not yet persisted
	SlotPersisted uint8 = 2 // live (traditional engines use this directly)
)

const (
	slotState = 0
	slotKey   = 8
	slotData  = 16

	blockNext       = 0
	blockHdr        = 16
	defaultPerBlock = 64
)

func newHeapHandle(arena *pmalloc.Arena, schema *Schema, nvmMode bool) *Heap {
	if arena.Device().Size() > 1<<varPtrBits {
		panic("core: a heap's var-slot pointers need a device below 1 TB")
	}
	h := &Heap{
		arena:    arena,
		dev:      arena.Device(),
		schema:   schema,
		nvmMod:   nvmMode,
		slotSize: slotData + schema.FixedSize(),
		perBlock: defaultPerBlock,
	}
	for i := range schema.Columns {
		h.allCols = append(h.allCols, i)
	}
	return h
}

// NewHeap creates an empty heap. In NVM mode the block list is durably
// anchored; store Header() in an engine root to reopen after a crash.
func NewHeap(arena *pmalloc.Arena, schema *Schema, nvmMode bool) *Heap {
	h := newHeapHandle(arena, schema, nvmMode)
	if nvmMode {
		hdr, err := arena.Alloc(16, pmalloc.TagTable)
		if err != nil {
			panic(err)
		}
		h.hdr = hdr
		h.dev.WriteU64(int64(hdr), 0)
		h.dev.Sync(int64(hdr), 8)
		arena.SetPersisted(hdr)
	}
	return h
}

// OpenHeap reopens an NVM-mode heap after a crash: it walks the durable
// block list, rebuilds the free list, treats persisted slots as live, and
// reclaims slots that were allocated but never persisted and are not
// covered by a WAL entry (the caller must run WAL undo first).
func OpenHeap(arena *pmalloc.Arena, schema *Schema, hdr pmalloc.Ptr) *Heap {
	h := newHeapHandle(arena, schema, true)
	h.hdr = hdr
	for b := h.dev.ReadU64(int64(hdr)); b != 0; b = h.dev.ReadU64(int64(b) + blockNext) {
		h.blocks = append(h.blocks, b)
		for i := 0; i < h.perBlock; i++ {
			slot := h.slotAt(b, i)
			switch h.dev.ReadU8(int64(slot) + slotState) {
			case SlotPersisted:
				h.live++
			case SlotAllocated:
				// An eviction made an in-flight insert's first store durable.
				// The var-slots streamed for it are marked and now unnamed: the
				// owner's sweep frees them (Reach).
				h.dev.WriteU8(int64(slot)+slotState, SlotFree)
				h.dev.Sync(int64(slot)+slotState, 1)
				h.free = append(h.free, slot)
			default:
				h.free = append(h.free, slot)
			}
		}
	}
	return h
}

// Header returns the durable anchor of an NVM-mode heap.
func (h *Heap) Header() pmalloc.Ptr { return h.hdr }

// Live returns the number of live (persisted-state) slots.
func (h *Heap) Live() int { return h.live }

// Schema returns the table schema.
func (h *Heap) Schema() *Schema { return h.schema }

func (h *Heap) slotAt(block uint64, i int) uint64 {
	return block + blockHdr + uint64(i*h.slotSize)
}

func (h *Heap) newBlock() error {
	size := blockHdr + h.perBlock*h.slotSize
	b, err := h.arena.Alloc(size, pmalloc.TagTable)
	if err != nil {
		return err
	}
	// Zero slot states.
	for i := 0; i < h.perBlock; i++ {
		h.dev.WriteU8(int64(h.slotAt(b, i))+slotState, SlotFree)
	}
	if h.nvmMod {
		head := h.dev.ReadU64(int64(h.hdr))
		h.dev.WriteU64(int64(b)+blockNext, head)
		h.dev.Sync(int64(b), int(size))
		h.arena.SetPersisted(b)
		h.dev.WriteU64Durable(int64(h.hdr), b)
	} else {
		h.dev.WriteU64(int64(b)+blockNext, 0)
	}
	h.blocks = append(h.blocks, b)
	for i := h.perBlock - 1; i >= 0; i-- {
		h.free = append(h.free, h.slotAt(b, i))
	}
	return nil
}

// AllocSlot grabs a free slot for the given primary key and marks it
// SlotAllocated. Nothing is written back: a slot that is not SlotPersisted is
// free to OpenHeap, and PersistSlot writes state and key back. The tuple
// contents are garbage until written. Growing the heap can exhaust the arena;
// nothing changed then.
func (h *Heap) AllocSlot(key uint64) (uint64, error) {
	if len(h.free) == 0 {
		if err := h.newBlock(); err != nil {
			return 0, err
		}
	}
	slot := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	h.dev.WriteU64(int64(slot)+slotKey, key)
	h.dev.WriteU8(int64(slot)+slotState, SlotAllocated)
	return slot, nil
}

// Key returns the primary key stored in the slot.
func (h *Heap) Key(slot uint64) uint64 { return h.dev.ReadU64(int64(slot) + slotKey) }

// State returns the slot's durability state.
func (h *Heap) State(slot uint64) uint8 { return h.dev.ReadU8(int64(slot) + slotState) }

// StoreRow allocates a slot for key and writes row into it. When the arena
// runs out the heap is as it was.
func (h *Heap) StoreRow(key uint64, row []Value) (uint64, error) {
	slot, err := h.AllocSlot(key)
	if err != nil {
		return 0, err
	}
	if err := h.WriteRow(slot, row); err != nil {
		h.FreeSlotOnly(slot) // WriteRow kept no var-slot
		return 0, err
	}
	return slot, nil
}

// WriteRow stores a full row into the slot; see WriteCols.
func (h *Heap) WriteRow(slot uint64, row []Value) error {
	return h.WriteCols(slot, h.allCols, row)
}

// WriteCol stores one column value; see WriteCols.
func (h *Heap) WriteCol(slot uint64, col int, v Value) error {
	return h.WriteCols(slot, []int{col}, []Value{v})
}

// WriteCols stores the values of the given columns. Every string column gets
// a fresh var-slot; the caller owns freeing the previous one (ColVar before
// the call, FreeVar after). The var-slots are taken before the slot is
// touched, so when the arena runs out the ones already taken are released,
// the slot still holds what it held, and the allocator's error is returned.
// On an NVM heap each var-slot is streamed with its persisted mark in one
// fence interval (pmalloc.Arena.StreamPersisted, or Restream over the kept
// var-slot when that is of its chunk size) and the fields are left in the
// cache (WriteBackCols, PersistSlot): all of it is durable at a fence of the
// caller's, and a var-slot a crash leaves marked with no live slot naming it
// is the owner's to sweep (Reach). On a volatile heap each var-slot is
// streamed the same way but left allocated (pmalloc.Arena.StreamAlloc).
func (h *Heap) WriteCols(slot uint64, cols []int, vals []Value) error {
	vps := h.vps[:0]
	for j, ci := range cols {
		if h.schema.Columns[ci].Type != TString {
			continue
		}
		b := vals[j].S
		var vp pmalloc.Ptr
		var err error
		if len(b) > MaxStringLen {
			err = fmt.Errorf("core: a %d-byte string is over the heap's %d-byte limit", len(b), MaxStringLen)
		} else {
			h.img = append(binary.LittleEndian.AppendUint32(h.img[:0], uint32(len(b))), b...)
			switch k := h.kept; {
			case !h.nvmMod:
				vp, err = h.arena.StreamAlloc(pmalloc.TagTable, h.img)
			case k != 0 && k.chunk() == pmalloc.ChunkSize(len(h.img)):
				vp, h.kept = k.Ptr(), 0
				h.arena.Restream(vp, pmalloc.TagTable, h.img)
			default:
				vp, err = h.arena.StreamPersisted(pmalloc.TagTable, h.img)
			}
		}
		if err != nil {
			for _, p := range vps {
				h.arena.Free(p)
			}
			return err
		}
		vps = append(vps, vp)
	}
	h.vps = vps[:0]
	for j, ci := range cols {
		field := int64(slot) + slotData + int64(ci*8)
		if h.schema.Columns[ci].Type == TInt {
			h.dev.WriteU64(field, uint64(vals[j].I))
			continue
		}
		h.dev.WriteU64(field, uint64(varRef(vps[0], len(vals[j].S))))
		vps = vps[1:]
	}
	return nil
}

// WriteBackCols writes back the cache lines holding the slot's fields for
// cols, each line once — what an update dirtied, not the slot. Durable at the
// caller's next fence. No-op on a volatile heap.
func (h *Heap) WriteBackCols(slot uint64, cols []int) {
	if !h.nvmMod {
		return
	}
	done := int64(-1)
	for _, ci := range cols {
		field := int64(slot) + slotData + int64(ci*8)
		if line := field &^ (nvm.LineSize - 1); line != done {
			h.dev.WriteBack(field, 8)
			done = line
		}
	}
}

// RawCol returns a column's 8-byte field as stored: an int's value, a
// string's VarRef. It is the before-image RestoreCol takes back.
func (h *Heap) RawCol(slot uint64, col int) uint64 {
	return h.dev.ReadU64(int64(slot) + slotData + int64(col*8))
}

// RestoreCol stores a field RawCol returned earlier. The var-slot a string
// field pointed at since is the caller's to free.
func (h *Heap) RestoreCol(slot uint64, col int, raw uint64) {
	h.dev.WriteU64(int64(slot)+slotData+int64(col*8), raw)
}

// ColVar returns a string column's VarRef (0 if unset or an int column).
func (h *Heap) ColVar(slot uint64, col int) VarRef {
	if h.schema.Columns[col].Type != TString {
		return 0
	}
	return VarRef(h.dev.ReadU64(int64(slot) + slotData + int64(col*8)))
}

// TryReadCol reads one column value. A string field that points outside the
// arena, or at a var-slot whose length word is not the field's, is an error:
// only an image written with its fences disabled holds one, and it must not
// take the process down.
func (h *Heap) TryReadCol(slot uint64, col int) (Value, error) {
	field := int64(slot) + slotData + int64(col*8)
	if h.schema.Columns[col].Type == TInt {
		return Value{I: int64(h.dev.ReadU64(field))}, nil
	}
	r := VarRef(h.dev.ReadU64(field))
	if r == 0 {
		return Value{}, nil
	}
	vp, ln := r.Ptr(), r.Len()
	if !h.arena.Holds(vp, 4+ln) {
		return Value{}, fmt.Errorf("core: slot %d column %d points at %d bytes at %d, outside the arena", slot, col, ln, vp)
	}
	if got := h.dev.ReadU32(int64(vp)); got != uint32(ln) {
		return Value{}, fmt.Errorf("core: var-slot %d of slot %d column %d claims %d bytes, its field %d", vp, slot, col, got, ln)
	}
	b := make([]byte, ln)
	h.dev.Read(int64(vp)+4, b)
	return Value{S: b}, nil
}

// TryReadCols reads the named columns into a schema-width row; the others
// stay the zero Value and their fields and var-slots are not touched.
func (h *Heap) TryReadCols(slot uint64, cols []int) ([]Value, error) {
	row := make([]Value, len(h.schema.Columns))
	for _, ci := range cols {
		v, err := h.TryReadCol(slot, ci)
		if err != nil {
			return nil, err
		}
		row[ci] = v
	}
	return row, nil
}

// TryReadRow reads the full row from a slot.
func (h *Heap) TryReadRow(slot uint64) ([]Value, error) { return h.TryReadCols(slot, h.allCols) }

// ReadCol, ReadCols and ReadRow are the Try reads for a heap whose pointers
// cannot be garbage — a volatile one, rebuilt from its log: an error panics.
func (h *Heap) ReadCol(slot uint64, col int) Value {
	v, err := h.TryReadCol(slot, col)
	if err != nil {
		panic(err)
	}
	return v
}

func (h *Heap) ReadCols(slot uint64, cols []int) []Value {
	row, err := h.TryReadCols(slot, cols)
	if err != nil {
		panic(err)
	}
	return row
}

func (h *Heap) ReadRow(slot uint64) []Value { return h.ReadCols(slot, h.allCols) }

// PersistSlot transitions a freshly written slot to the persisted state. In
// NVM mode the whole slot is new and is written back — state, key and fields —
// and the caller's next fence is the point after which the tuple survives
// recovery.
func (h *Heap) PersistSlot(slot uint64) {
	h.dev.WriteU8(int64(slot)+slotState, SlotPersisted)
	if h.nvmMod {
		h.dev.WriteBack(int64(slot), h.slotSize)
	}
	h.live++
}

// FreeVar releases the var-slot r names, which must be live and no longer
// named by anything durable. On an NVM heap a var-slot of a line or more is
// kept aside for the next of its chunk size (see kept) without a word to the
// device, and the one kept before is freed.
func (h *Heap) FreeVar(r VarRef) {
	if r == 0 {
		return
	}
	if !h.nvmMod || r.chunk() < nvm.LineSize {
		h.arena.Free(r.Ptr())
		return
	}
	if h.kept != 0 {
		h.arena.Free(h.kept.Ptr())
	}
	h.kept = r
}

// FreeSlot releases the slot and all its var-slots.
func (h *Heap) FreeSlot(slot uint64) {
	if h.State(slot) == SlotPersisted {
		h.live--
	}
	for i := range h.schema.Columns {
		h.FreeVar(h.ColVar(slot, i))
	}
	h.dev.WriteU8(int64(slot)+slotState, SlotFree)
	if h.nvmMod {
		h.dev.Sync(int64(slot)+slotState, 1)
	}
	h.free = append(h.free, slot)
}

// FreeSlotOnly releases the slot without touching var-slots (used by undo
// paths that handle var-slots themselves).
func (h *Heap) FreeSlotOnly(slot uint64) {
	if h.State(slot) == SlotPersisted {
		h.live--
	}
	h.dev.WriteU8(int64(slot)+slotState, SlotFree)
	if h.nvmMod {
		h.dev.Sync(int64(slot)+slotState, 1)
	}
	h.free = append(h.free, slot)
}

// Scan calls fn for every live slot.
func (h *Heap) Scan(fn func(slot uint64) bool) {
	for _, b := range h.blocks {
		for i := 0; i < h.perBlock; i++ {
			slot := h.slotAt(b, i)
			if h.State(slot) == SlotPersisted {
				if !fn(slot) {
					return
				}
			}
		}
	}
}

// Reach calls mark with every allocator chunk the heap holds: its anchor, its
// blocks, the var-slots its live slots name and the one it keeps aside. A
// persisted table chunk that neither this nor an index reaches is a leak.
func (h *Heap) Reach(mark func(p pmalloc.Ptr)) {
	if h.hdr != 0 {
		mark(h.hdr)
	}
	for _, b := range h.blocks {
		mark(b)
	}
	if h.kept != 0 {
		mark(h.kept.Ptr())
	}
	h.Scan(func(slot uint64) bool {
		for ci := range h.schema.Columns {
			if r := h.ColVar(slot, ci); r != 0 {
				mark(r.Ptr())
			}
		}
		return true
	})
}

// Validate checks internal consistency (test helper).
func (h *Heap) Validate() error {
	n := 0
	h.Scan(func(uint64) bool { n++; return true })
	if n != h.live {
		return fmt.Errorf("core: live count %d != scanned %d", h.live, n)
	}
	return nil
}
