// Package pmalloc is an NVM-aware memory allocator, modelled on the paper's
// extension of libpmem (§2.3). It provides:
//
//   - a durability mechanism: the sync primitive (CLWB + SFENCE via the
//     device) plus per-chunk durability states, so that storage occupied by
//     transactions that were uncommitted at a crash can be reclaimed;
//   - a naming mechanism: a fixed directory of root pointers so that
//     non-volatile pointers (device offsets) remain valid after restart;
//   - a rotating best-fit allocation policy that spreads allocations across
//     the heap to level wear on the NVM device.
//
// Chunk layout: every chunk has a 16-byte header followed by the payload,
// and every payload pointer is 16-byte aligned.
// The first header word packs the payload size, durability state, and a
// usage tag (for the storage-footprint accounting of Fig. 14). Headers are
// synced on every state change, so a recovery scan can walk the heap and
// rebuild the free lists, reclaiming chunks that were allocated but never
// marked persisted ("non-volatile memory leaks", §4.1).
package pmalloc

import (
	"errors"
	"fmt"

	"nstore/internal/nvm"
)

// Ptr is a non-volatile pointer: an absolute offset into the NVM device.
// The zero value is the nil pointer.
type Ptr = uint64

// State is the durability state of a chunk (§4.1: a slot can be unallocated,
// allocated but not persisted, or persisted).
type State uint8

// Chunk durability states.
const (
	StateFree State = iota
	StateAllocated
	StatePersisted
)

// Tag categorizes an allocation for storage-footprint accounting (Fig. 14).
type Tag uint8

// Allocation categories.
const (
	TagOther Tag = iota
	TagTable
	TagIndex
	TagLog
	TagCheckpoint
	numTags
)

// TagNames maps tags to the labels used in Fig. 14.
var TagNames = [numTags]string{"other", "table", "index", "log", "checkpoint"}

const (
	magic      = 0x4e56414c4c4f4331 // "NVALLOC1"
	headerSize = 16                 // per-chunk header
	minPayload = 16
	alignMask  = 15

	// NumRoots is the number of named root-pointer slots.
	NumRoots = 56

	// Arena header layout (one region at base):
	//   +0  magic
	//   +8  arena size
	//   +16 durable heap end (bump pointer)
	//   +24 reserved
	//   +64 root directory (NumRoots * 8 bytes)
	//   +512 heap start
	offMagic   = 0
	offSize    = 8
	offHeapEnd = 16
	rootDirOff = 64
	heapStart  = 512

	numClasses = 32
	// bestFitScan bounds the number of free chunks examined per class.
	bestFitScan = 64
)

// ErrOutOfMemory is returned when the arena cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("pmalloc: out of memory")

// Arena is an allocator over a region of an NVM device.
type Arena struct {
	dev  *nvm.Device
	base int64
	size int64

	heapEnd int64 // volatile mirror of the durable bump pointer
	// free lists are volatile and rebuilt by the recovery scan on Open. They
	// carry each chunk's size so the best-fit scan reads no header from the
	// device; the durable header is read and written only where a chunk
	// changes state.
	free [numClasses][]freeChunk
	// rotate implements the rotating policy: each class starts its best-fit
	// scan at a moving position so allocations spread across the heap.
	rotate [numClasses]int

	usage     [numTags]int64 // live payload bytes per tag
	allocated int64          // total live payload bytes
}

// freeChunk is one free-list entry: the chunk's header offset and payload
// size, a volatile copy of what its durable header says.
type freeChunk struct{ off, size int64 }

// Format initializes a fresh arena over dev[base, base+size) and returns it.
func Format(dev *nvm.Device, base, size int64) *Arena {
	if size < heapStart+alignMask+headerSize+minPayload {
		panic("pmalloc: arena too small")
	}
	a := &Arena{dev: dev, base: base, size: size}
	a.heapEnd = a.heapBase()
	zero := make([]byte, rootDirOff+NumRoots*8)
	dev.Write(base, zero)
	dev.WriteU64(base+offMagic, magic)
	dev.WriteU64(base+offSize, uint64(size))
	dev.WriteU64(base+offHeapEnd, uint64(a.heapEnd))
	dev.Sync(base, heapStart)
	return a
}

// Open attaches to an existing arena and runs the recovery scan: free lists
// are rebuilt, and chunks in StateAllocated (allocated by a transaction that
// never persisted them before the crash) are reclaimed.
func Open(dev *nvm.Device, base int64) (*Arena, error) {
	if dev.ReadU64(base+offMagic) != magic {
		return nil, fmt.Errorf("pmalloc: no arena at offset %d", base)
	}
	a := &Arena{
		dev:     dev,
		base:    base,
		size:    int64(dev.ReadU64(base + offSize)),
		heapEnd: int64(dev.ReadU64(base + offHeapEnd)),
	}
	a.recoverScan()
	return a, nil
}

// heapBase is the offset of the first chunk header. Headers and payload sizes
// are multiples of 16, so rounding the heap's start up to a 16-byte device
// offset makes every payload pointer 16-byte aligned whatever base the arena
// was given: callers may keep four bits of their own in a Ptr's low end.
func (a *Arena) heapBase() int64 { return alignUp(a.base + heapStart) }

// header word: size<<16 | tag<<8 | state
func packHeader(size int64, tag Tag, st State) uint64 {
	return uint64(size)<<16 | uint64(tag)<<8 | uint64(st)
}

func unpackHeader(w uint64) (size int64, tag Tag, st State) {
	return int64(w >> 16), Tag(w >> 8 & 0xff), State(w & 0xff)
}

func classOf(n int64) int {
	c := 0
	for s := int64(minPayload); s < n && c < numClasses-1; s <<= 1 {
		c++
	}
	return c
}

func alignUp(n int64) int64 { return (n + alignMask) &^ alignMask }

// recoverScan walks the heap, coalescing adjacent free chunks, reclaiming
// allocated-but-not-persisted chunks, and rebuilding the free lists and
// usage accounting.
func (a *Arena) recoverScan() {
	off := a.heapBase()
	for off < a.heapEnd {
		w := a.dev.ReadU64(off)
		size, tag, st := unpackHeader(w)
		if size <= 0 || off+headerSize+size > a.heapEnd || tag >= numTags {
			// Torn heap tail (crash between header write and bump-pointer
			// update): everything from here is beyond the durable end.
			break
		}
		if st == StateAllocated {
			// Reclaim the non-volatile memory leak.
			a.writeHeader(off, size, tag, StateFree)
			st = StateFree
		}
		if st == StateFree {
			// Coalesce with following free chunks.
			next := off + headerSize + size
			for next < a.heapEnd {
				nw := a.dev.ReadU64(next)
				nsize, _, nst := unpackHeader(nw)
				if nst != StateFree || nsize <= 0 || next+headerSize+nsize > a.heapEnd {
					break
				}
				size += headerSize + nsize
				next += headerSize + nsize
			}
			a.writeHeader(off, size, TagOther, StateFree)
			a.pushFree(off, size)
		} else {
			a.usage[tag] += size
			a.allocated += size
		}
		off += headerSize + size
	}
}

// writeHeader durably writes a chunk header. Size-changing writes must be
// durable before any dependent data persists, or the recovery heap walk
// would misparse the chain.
func (a *Arena) writeHeader(off, size int64, tag Tag, st State) {
	a.dev.WriteU64(off, packHeader(size, tag, st))
	a.dev.Sync(off, 8)
}

// writeHeaderLazy writes a header without syncing: valid only for
// state/tag-only transitions, where a stale durable header still parses to a
// same-size chunk.
func (a *Arena) writeHeaderLazy(off, size int64, tag Tag, st State) {
	a.dev.WriteU64(off, packHeader(size, tag, st))
}

func (a *Arena) pushFree(off, size int64) {
	c := classOf(size)
	a.free[c] = append(a.free[c], freeChunk{off, size})
}

// Alloc allocates n payload bytes tagged with tag and returns a non-volatile
// pointer to the payload. The chunk is in StateAllocated; if the caller does
// not mark it persisted (SetPersisted) before a crash, recovery reclaims it.
func (a *Arena) Alloc(n int, tag Tag) (Ptr, error) {
	if n <= 0 {
		n = 1
	}
	need := alignUp(int64(n))
	if need < minPayload {
		need = minPayload
	}
	// Rotating best-fit across the free lists, starting at the size class.
	for c := classOf(need); c < numClasses; c++ {
		if off := a.takeFrom(c, need, tag); off != 0 {
			return off, nil
		}
	}
	// Fresh memory from the bump region.
	off := a.heapEnd
	if off+headerSize+need > a.base+a.size {
		return 0, ErrOutOfMemory
	}
	// The header must be durable before the bump pointer covers it: a
	// durable heap end past a header that never reached the medium would end
	// every later recovery walk at that hole, hiding the chunks behind it
	// from the free lists, the accounting and the owners' sweeps for good.
	a.writeHeader(off, need, tag, StateAllocated)
	a.heapEnd = off + headerSize + need
	a.dev.WriteU64Durable(a.base+offHeapEnd, uint64(a.heapEnd))
	a.usage[tag] += need
	a.allocated += need
	return Ptr(off + headerSize), nil
}

// takeFrom does a bounded best-fit scan of class c's free list, starting at
// the rotating cursor. It returns the payload pointer, or 0 if no fit.
func (a *Arena) takeFrom(c int, need int64, tag Tag) Ptr {
	list := a.free[c]
	if len(list) == 0 {
		return 0
	}
	limit := len(list)
	if limit > bestFitScan {
		limit = bestFitScan
	}
	start := a.rotate[c] % len(list)
	bestIdx, bestSize := -1, int64(-1)
	for k := 0; k < limit; k++ {
		i := (start + k) % len(list)
		size := list[i].size
		if size >= need && (bestSize < 0 || size < bestSize) {
			bestIdx, bestSize = i, size
			if size == need {
				break
			}
		}
	}
	if bestIdx < 0 {
		return 0
	}
	a.rotate[c]++
	off := list[bestIdx].off
	list[bestIdx] = list[len(list)-1]
	a.free[c] = list[:len(list)-1]

	// Split if the remainder is worth keeping. Splits change chunk sizes
	// and must be durable; whole-chunk reuse is a state-only transition.
	if rem := bestSize - need; rem >= headerSize+minPayload {
		remOff := off + headerSize + need
		a.writeHeader(remOff, rem-headerSize, TagOther, StateFree)
		a.pushFree(remOff, rem-headerSize)
		a.writeHeader(off, need, tag, StateAllocated)
	} else {
		need = bestSize
		a.writeHeaderLazy(off, need, tag, StateAllocated)
	}
	a.usage[tag] += need
	a.allocated += need
	return Ptr(off + headerSize)
}

// Free releases the chunk whose payload starts at p. The state change is
// written but not synced: the chunk's size is unchanged, so the recovery
// heap walk stays valid either way; at worst a crash resurrects the chunk
// as allocated/persisted, which the engines' sweeps reclaim.
func (a *Arena) Free(p Ptr) {
	off := int64(p) - headerSize
	size, tag, st := unpackHeader(a.dev.ReadU64(off))
	if st == StateFree {
		panic("pmalloc: double free")
	}
	a.usage[tag] -= size
	a.allocated -= size
	a.dev.WriteU64(off, packHeader(size, TagOther, StateFree))
	a.pushFree(off, size)
}

// SetPersisted durably marks the chunks persisted, with one fence for all of
// them. After this, the chunks survive the recovery scan. Callers must sync
// the payload contents first.
func (a *Arena) SetPersisted(ps ...Ptr) {
	for _, p := range ps {
		off := int64(p) - headerSize
		size, tag, st := unpackHeader(a.dev.ReadU64(off))
		if st == StateFree {
			panic("pmalloc: SetPersisted on free chunk")
		}
		a.writeHeaderLazy(off, size, tag, StatePersisted)
		a.dev.WriteBack(off, 8)
	}
	a.dev.Fence()
}

// StreamPersisted fills the fresh chunk at p with payload and marks it
// persisted in one fence interval: chunk and mark are durable at the caller's
// next fence. The line the header shares with the payload's first bytes is
// written through the cache and written back once, carrying the mark; what
// lies behind it is streamed (nvm.Device.WriteStream), so a brand-new chunk's
// old bytes are not filled, except in a last line the payload covers only in
// part, which may hold the next chunk's header. The cost is one device store
// per line that header and payload cover, one write-back for the header's line
// and one for a partial last line, wherever in a line the chunk starts, and no
// fence.
//
// Until that fence the lines reach the medium in any order, so a crash can
// leave the chunk marked persisted around unwritten bytes. Nothing durable
// names the chunk yet; the caller's owner must reclaim a persisted chunk that
// nothing names when it reopens.
func (a *Arena) StreamPersisted(p Ptr, payload []byte) {
	off := int64(p) - headerSize
	size, tag, st := unpackHeader(a.dev.ReadU64(off))
	if st == StateFree {
		panic("pmalloc: StreamPersisted on free chunk")
	}
	if int64(len(payload)) > size {
		panic("pmalloc: StreamPersisted past the chunk's capacity")
	}
	a.writeHeaderLazy(off, size, tag, StatePersisted)
	// The header word is 8 bytes at a 16-aligned offset, so it lies in one
	// line, and the next line starts at or after the payload.
	head := int(off&^(nvm.LineSize-1) + nvm.LineSize - int64(p))
	if head > len(payload) {
		head = len(payload)
	}
	a.dev.Write(int64(p), payload[:head])
	a.dev.WriteBack(off, 8)
	if rest := payload[head:]; len(rest) > 0 {
		a.dev.WriteStream(int64(p)+int64(head), rest)
	}
}

// StateOf returns the durability state of the chunk at p.
func (a *Arena) StateOf(p Ptr) State {
	_, _, st := unpackHeader(a.dev.ReadU64(int64(p) - headerSize))
	return st
}

// SizeOf returns the payload capacity of the chunk at p.
func (a *Arena) SizeOf(p Ptr) int {
	size, _, _ := unpackHeader(a.dev.ReadU64(int64(p) - headerSize))
	return int(size)
}

// Holds reports whether the n bytes at p lie inside the heap's used extent. It
// reads nothing from the device: a reader handed a pointer or a length by an
// image it cannot trust checks them here before it follows them.
func (a *Arena) Holds(p Ptr, n int) bool {
	return n >= 0 && int64(p) >= a.heapBase()+headerSize && int64(p) <= a.heapEnd-int64(n)
}

// Root returns the value of root-pointer slot i (the naming mechanism).
func (a *Arena) Root(i int) Ptr {
	if i < 0 || i >= NumRoots {
		panic("pmalloc: root index out of range")
	}
	return a.dev.ReadU64(a.base + rootDirOff + int64(i)*8)
}

// SetRoot durably sets root-pointer slot i with an atomic 8-byte write.
func (a *Arena) SetRoot(i int, v Ptr) {
	if i < 0 || i >= NumRoots {
		panic("pmalloc: root index out of range")
	}
	a.dev.WriteU64Durable(a.base+rootDirOff+int64(i)*8, v)
}

// Device returns the underlying NVM device.
func (a *Arena) Device() *nvm.Device { return a.dev }

// Sync runs the sync primitive over the payload range [p, p+n).
func (a *Arena) Sync(p Ptr, n int) { a.dev.Sync(int64(p), n) }

// Usage returns live payload bytes per allocation tag.
func (a *Arena) Usage() map[Tag]int64 {
	m := make(map[Tag]int64, numTags)
	for t := Tag(0); t < numTags; t++ {
		if a.usage[t] != 0 {
			m[t] = a.usage[t]
		}
	}
	return m
}

// Allocated returns total live payload bytes.
func (a *Arena) Allocated() int64 { return a.allocated }

// HeapBytes returns the bytes of heap consumed (bump high-water mark),
// which is the arena's storage footprint.
func (a *Arena) HeapBytes() int64 { return a.heapEnd - a.heapBase() }

// Chunks walks every chunk in the heap in address order, calling fn with the
// payload pointer, capacity, tag, and state. Engines use it for reachability
// sweeps that asynchronously reclaim storage orphaned by a crash (§3.2).
// fn must not allocate or free.
func (a *Arena) Chunks(fn func(p Ptr, size int, tag Tag, st State)) {
	off := a.heapBase()
	for off < a.heapEnd {
		size, tag, st := unpackHeader(a.dev.ReadU64(off))
		if size <= 0 || off+headerSize+size > a.heapEnd {
			return
		}
		fn(Ptr(off+headerSize), int(size), tag, st)
		off += headerSize + size
	}
}
