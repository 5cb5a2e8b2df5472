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
// Chunk layout: every chunk is a 16-byte header followed by the payload, and
// every payload pointer is 16-byte aligned. A chunk owns its cache lines: one
// of more than a line (header included) starts and ends on a line boundary,
// and one of at most a line lies inside one. So a large chunk's lines are its
// own to stream whole (nvm.Device.WriteStream) — no line is filled because a
// neighbour shares it, and none is written back through the cache.
// The first header word packs the payload size, durability state, and a
// usage tag (for the storage-footprint accounting of Fig. 14). Headers are
// synced on every state change, so a recovery scan can walk the heap and
// rebuild the free lists, reclaiming chunks that were allocated but never
// marked persisted ("non-volatile memory leaks", §4.1).
package pmalloc

import (
	"encoding/binary"
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
	magic = 0x4e56414c4c4f4332 // "NVALLOC2": every chunk owns its cache lines

	// HeaderSize is the per-chunk header in front of every payload.
	HeaderSize = 16
	minPayload = 16
	alignMask  = 15
	line       = nvm.LineSize

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
	// freeBytes holds, per class, the payload bytes of its free chunks.
	freeBytes [numClasses]int64
	// kept is the chunk FreeStreamed last released (off 0: none). Its header
	// still says persisted, and the arena answers for it as free. The next
	// chunk of its size takes it back; the next FreeStreamed pushes it out to
	// the free lists, writing its free mark.
	kept freeChunk
}

// freeChunk is one free-list entry: the chunk's header offset and payload
// size, a volatile copy of what its durable header says.
type freeChunk struct{ off, size int64 }

// MinSize is the smallest arena Format accepts at base: the header and one
// line of heap.
func MinSize(base int64) int64 { return lineUp(base+heapStart) + line - base }

// Format initializes a fresh arena over dev[base, base+size) and returns it.
// It panics on a size under MinSize(base).
func Format(dev *nvm.Device, base, size int64) *Arena {
	if size < MinSize(base) {
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

// heapBase is the offset of the first chunk header: the first device line at
// or after heapStart, whatever base the arena was given. Chunk sizes are
// multiples of 16, so every payload pointer is 16-byte aligned: callers may
// keep four bits of their own in a Ptr's low end.
func (a *Arena) heapBase() int64 { return lineUp(a.base + heapStart) }

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

func lineUp(n int64) int64 { return (n + line - 1) &^ (line - 1) }

// chunkSize returns the bytes, header included, of the chunk that holds n
// payload bytes: a multiple of 16 while it fits in a line, else of the line.
func chunkSize(n int64) int64 {
	t := HeaderSize + alignUp(max(n, minPayload))
	if t > line {
		t = lineUp(t)
	}
	return t
}

// laidOut reports whether a chunk of total bytes at off keeps the layout
// rule: on whole lines if it is larger than one, else inside one.
func laidOut(off, total int64) bool {
	if total > line {
		return off%line == 0 && total%line == 0
	}
	return off%line+total <= line
}

// absorb returns total, grown by 16 bytes if a chunk of total bytes at off
// would leave a 16-byte tail of its line before end: no chunk fits there.
func absorb(off, total, end int64) int64 {
	if r := off + total; r < end && r%line == line-HeaderSize {
		return total + HeaderSize
	}
	return total
}

// recoverScan walks the heap, coalescing runs of free chunks, reclaiming
// allocated-but-not-persisted chunks, and rebuilding the free lists and
// usage accounting.
func (a *Arena) recoverScan() {
	off, run := a.heapBase(), int64(-1) // run: where the free run being gathered starts
	for off < a.heapEnd {
		size, tag, st := unpackHeader(a.dev.ReadU64(off))
		total := HeaderSize + size
		if size < minPayload || off+total > a.heapEnd || tag >= numTags || st > StatePersisted || !laidOut(off, total) {
			// Torn heap tail (crash between header write and bump-pointer
			// update): everything from here is beyond the durable end.
			break
		}
		switch {
		case st == StatePersisted:
			if run >= 0 {
				a.freeRegion(run, off)
				run = -1
			}
			a.account(tag, size)
		case run < 0:
			// Free, or allocated and never persisted: a non-volatile memory
			// leak to reclaim.
			run = off
		}
		off += total
	}
	if run >= 0 {
		a.freeRegion(run, off)
	}
	a.dev.Fence()
}

// freeRegion frees [s, e), whose ends are chunk boundaries, as the chunks the
// layout rule allows — the rest of s's line, the whole lines, the head of e's
// line — and puts them on the free lists. Their headers are durable at the
// caller's next fence.
func (a *Arena) freeRegion(s, e int64) {
	for s < e {
		n := e - s
		if s%line != 0 {
			n = min(n, lineUp(s)-s)
		} else if n > line {
			n &^= line - 1
		}
		a.putHeader(s, n, TagOther, StateFree)
		a.pushFree(s, n-HeaderSize)
		s += n
	}
}

// ownsLine reports whether the line a chunk of total bytes at off starts in
// is the chunk's alone — it is a line or more, or the first chunk of fresh
// memory at the heap end — so it may be streamed whole, with no fill.
func (a *Arena) ownsLine(off, total int64) bool {
	return off%line == 0 && (total >= line || off >= a.heapEnd)
}

// putHeader writes the header of the chunk of total bytes at off and writes
// it back: durable at the next fence. A chunk that owns its first line
// streams it, the header and zeros behind it; any other writes the header
// through the cache.
func (a *Arena) putHeader(off, total int64, tag Tag, st State) {
	w := packHeader(total-HeaderSize, tag, st)
	if a.ownsLine(off, total) {
		var b [line]byte
		binary.LittleEndian.PutUint64(b[:], w)
		a.dev.WriteStream(off, b[:])
		return
	}
	a.dev.WriteU64(off, w)
	a.dev.WriteBack(off, 8)
}

// writeHeaderLazy writes a header through the cache without writing it
// back: valid where a stale durable header still parses to a chunk of the
// same extent — a state or tag change, or a size the free remainders'
// durable headers already bound.
func (a *Arena) writeHeaderLazy(off, size int64, tag Tag, st State) {
	a.dev.WriteU64(off, packHeader(size, tag, st))
}

func (a *Arena) pushFree(off, size int64) {
	c := classOf(size)
	a.free[c] = append(a.free[c], freeChunk{off, size})
	a.freeBytes[c] += size
}

// account adds size payload bytes (negative: releases them) to tag's usage.
func (a *Arena) account(tag Tag, size int64) {
	a.usage[tag] += size
	a.allocated += size
}

// carve finds room for a chunk holding n payload bytes — best fit from the
// free lists, else fresh memory at the heap end — and returns its offset and
// its size, header included: chunkSize(n), or 16 bytes more where the line it
// ends in would keep a tail no chunk fits in. What a taken free chunk had
// beyond it is free again, its headers durable on return: they must reach
// the medium before the chunk's smaller size can. grow reports fresh memory:
// what carve cut off in front of it is written back, and the caller makes
// the chunk's header durable, then publishes the new heap end (a.grow).
func (a *Arena) carve(n int64) (off, total int64, grow bool, err error) {
	total = chunkSize(n)
	if k := a.kept; k.off != 0 && HeaderSize+k.size == total {
		a.kept = freeChunk{}
		return k.off, total, false, nil
	}
	for c := classOf(total - HeaderSize); c < numClasses; c++ {
		if off, end, ok := a.takeFrom(c, total-HeaderSize); ok {
			if total = absorb(off, total, end); off+total < end {
				a.freeRegion(off+total, end)
				a.dev.Fence()
			}
			return off, total, false, nil
		}
	}
	off = a.heapEnd
	if !laidOut(off, total) {
		off = lineUp(off)
	}
	total = absorb(off, total, a.base+a.size)
	if off+total > a.base+a.size {
		return 0, 0, false, ErrOutOfMemory
	}
	// The rest of the heap's last line, too short for the chunk, is a free
	// chunk of its own.
	a.freeRegion(a.heapEnd, off)
	return off, total, true, nil
}

// grow publishes end as the durable heap end. The headers of the chunks it
// covers must be durable first: a durable heap end past a header that never
// reached the medium would end every later recovery walk at that hole, hiding
// the chunks behind it from the free lists, the accounting and the owners'
// sweeps for good.
func (a *Arena) grow(end int64) {
	a.heapEnd = end
	a.dev.WriteU64Durable(a.base+offHeapEnd, uint64(end))
}

// Alloc allocates n payload bytes tagged with tag and returns a non-volatile
// pointer to the payload. The chunk is in StateAllocated; if the caller does
// not mark it persisted (SetPersisted) before a crash, recovery reclaims it.
func (a *Arena) Alloc(n int, tag Tag) (Ptr, error) {
	off, total, grow, err := a.carve(int64(n))
	if err != nil {
		return 0, err
	}
	if grow {
		a.putHeader(off, total, tag, StateAllocated)
		a.dev.Fence()
		a.grow(off + total)
	} else {
		a.writeHeaderLazy(off, total-HeaderSize, tag, StateAllocated)
	}
	a.account(tag, total-HeaderSize)
	return Ptr(off + HeaderSize), nil
}

// takeFrom does a bounded best-fit scan of class c's free list, starting at
// the rotating cursor, for a chunk of at least need payload bytes. It takes
// the chunk off the list and returns where it starts and ends.
func (a *Arena) takeFrom(c int, need int64) (off, end int64, ok bool) {
	list := a.free[c]
	if len(list) == 0 {
		return 0, 0, false
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
		return 0, 0, false
	}
	a.rotate[c]++
	off = list[bestIdx].off
	list[bestIdx] = list[len(list)-1]
	a.free[c] = list[:len(list)-1]
	a.freeBytes[c] -= bestSize
	return off, off + HeaderSize + bestSize, true
}

// Free releases the chunk whose payload starts at p. The state change is
// written but not synced: the chunk's size is unchanged, so the recovery
// heap walk stays valid either way; at worst a crash resurrects the chunk
// as allocated/persisted, which the engines' sweeps reclaim.
func (a *Arena) Free(p Ptr) {
	off := int64(p) - HeaderSize
	size, tag, st := a.header(off)
	if st == StateFree {
		panic("pmalloc: double free")
	}
	a.account(tag, -size)
	a.dev.WriteU64(off, packHeader(size, TagOther, StateFree))
	a.pushFree(off, size)
}

// FreeStreamed releases the chunk at p that StreamPersisted filled with n
// payload bytes under tag, and touches no line to do it. A chunk of a line or
// more is exactly chunkSize(n) bytes, so nothing need be read; and nothing is
// written: the chunk is kept aside for the next chunk of its size, which
// rewrites the header, while the arena answers for it as free. A crash before
// that leaves a persisted chunk nothing names — the owner's reopen sweep
// reclaims it, as it reclaims a WAL entry a crash left behind its truncation.
// It is for a chunk no one reads once it is freed: a WAL entry at commit,
// whose successor is often of its size (EXPERIMENTS.md, Figs. 9–10). The
// chunk kept before makes room by streaming its free mark (one store) to
// join the free lists. A smaller chunk may have taken a 16-byte tail, so it
// is freed as Free frees it, through the line it shares.
func (a *Arena) FreeStreamed(p Ptr, n int, tag Tag) {
	total := chunkSize(int64(n))
	if total < line {
		a.Free(p)
		return
	}
	off := int64(p) - HeaderSize
	if off == a.kept.off {
		panic("pmalloc: double free")
	}
	if k := a.kept; k.off != 0 {
		a.putHeader(k.off, HeaderSize+k.size, TagOther, StateFree)
		a.pushFree(k.off, k.size)
	}
	a.kept = freeChunk{off, total - HeaderSize}
	a.account(tag, HeaderSize-total)
}

// header reads the header of the chunk at off as the arena has it: free if
// FreeStreamed kept it aside without a word to the device.
func (a *Arena) header(off int64) (size int64, tag Tag, st State) {
	size, tag, st = unpackHeader(a.dev.ReadU64(off))
	if st != StateFree && off == a.kept.off {
		tag, st = TagOther, StateFree
	}
	return size, tag, st
}

// SetPersisted durably marks the chunks persisted, with one fence for all of
// them. After this, the chunks survive the recovery scan. Callers must sync
// the payload contents first.
func (a *Arena) SetPersisted(ps ...Ptr) {
	for _, p := range ps {
		off := int64(p) - HeaderSize
		size, tag, st := a.header(off)
		if st == StateFree {
			panic("pmalloc: SetPersisted on free chunk")
		}
		a.writeHeaderLazy(off, size, tag, StatePersisted)
		a.dev.WriteBack(off, 8)
	}
	a.dev.Fence()
}

// StreamPersisted allocates a chunk for payload under tag, fills it and
// marks it persisted in one fence interval: chunk and mark are durable at the
// caller's next fence. A chunk of more than a line is streamed whole
// (nvm.Device.WriteStream) — header, payload and zero padding to its last
// line — so it costs one device store per line, no load and no CLWB; so is a
// smaller chunk that starts a line of fresh memory. A chunk sharing its line
// is written through the cache and written back. The chunk costs no fence of
// its own, but the allocation may: cutting a free chunk fences the
// remainder's header, and fresh memory fences the chunk before the heap end
// moves over it.
//
// Until the caller's fence the lines reach the medium in any order, so a
// crash can leave the chunk marked persisted around unwritten bytes. Nothing
// durable names the chunk yet; the caller's owner must reclaim a persisted
// chunk that nothing names when it reopens.
func (a *Arena) StreamPersisted(tag Tag, payload []byte) (Ptr, error) {
	return a.streamNew(tag, StatePersisted, payload)
}

// StreamAlloc is Alloc followed by a write of the whole payload, for a
// volatile chunk: the chunk is in StateAllocated, and recovery reclaims it.
// It is laid out and streamed as StreamPersisted streams a chunk, so a chunk
// that owns its lines costs one device store per line, no load and no CLWB —
// where Alloc and a write through the cache fill every line they touch. A
// chunk sharing its line is written through the cache, as Alloc and a write
// leave it. Accounting and placement are Alloc's.
func (a *Arena) StreamAlloc(tag Tag, payload []byte) (Ptr, error) {
	return a.streamNew(tag, StateAllocated, payload)
}

// streamNew carves a chunk for payload and fills it in state st: streamed
// whole if it owns its lines, else through the cache — written back only
// where the chunk's header must be durable, a persisted chunk's or one in
// fresh memory.
func (a *Arena) streamNew(tag Tag, st State, payload []byte) (Ptr, error) {
	off, total, grow, err := a.carve(int64(len(payload)))
	if err != nil {
		return 0, err
	}
	w := packHeader(total-HeaderSize, tag, st)
	switch {
	case a.ownsLine(off, total):
		a.stream(off, total, w, payload)
	case st == StatePersisted:
		a.dev.WriteU64(off, w)
		a.dev.Write(off+HeaderSize, payload)
		a.dev.WriteBack(off, HeaderSize+len(payload))
	default:
		a.dev.WriteU64(off, w)
		if grow {
			a.dev.WriteBack(off, 8)
		}
		a.dev.Write(off+HeaderSize, payload)
	}
	if grow {
		a.dev.Fence()
		a.grow(off + total)
	}
	a.account(tag, total-HeaderSize)
	return Ptr(off + HeaderSize), nil
}

// stream writes the chunk of total bytes at off whole, as non-temporal lines:
// the first line carries header word w, the last ones the payload's tail and
// the zero padding; whole lines of payload between them stream from the
// caller's buffer.
func (a *Arena) stream(off, total int64, w uint64, payload []byte) {
	var b [line]byte
	binary.LittleEndian.PutUint64(b[:], w)
	rest := payload[copy(b[HeaderSize:], payload):]
	a.dev.WriteStream(off, b[:])
	at := off + line
	if whole := len(rest) &^ (line - 1); whole > 0 {
		a.dev.WriteStream(at, rest[:whole])
		at, rest = at+int64(whole), rest[whole:]
	}
	for end := off + lineUp(total); at < end; at += line {
		b = [line]byte{}
		rest = rest[copy(b[:], rest):]
		a.dev.WriteStream(at, b[:])
	}
}

// Restream refills the live chunk at p with payload, as StreamPersisted fills
// a new one: header, payload and padding streamed whole, marked persisted,
// durable at the caller's next fence. It reads nothing and allocates nothing:
// the caller knows the chunk is ChunkSize(len(payload)) bytes, at least a
// line, that it is accounted under tag, and that nothing durable names it —
// an owner's chunk it superseded and kept aside instead of freeing. A crash
// before the fence leaves a persisted chunk nothing names, as StreamPersisted
// does.
func (a *Arena) Restream(p Ptr, tag Tag, payload []byte) {
	total := chunkSize(int64(len(payload)))
	if total < line {
		panic("pmalloc: Restream of a chunk inside a line")
	}
	a.stream(int64(p)-HeaderSize, total, packHeader(total-HeaderSize, tag, StatePersisted), payload)
}

// ChunkSize returns the bytes, header included, of a chunk holding n payload
// bytes. From a line up (n of 48 or more) that is exactly the chunk
// StreamPersisted fills; a smaller one may have taken 16 bytes more.
func ChunkSize(n int) int { return int(chunkSize(int64(n))) }

// StateOf returns the durability state of the chunk at p.
func (a *Arena) StateOf(p Ptr) State {
	_, _, st := a.header(int64(p) - HeaderSize)
	return st
}

// SizeOf returns the payload capacity of the chunk at p.
func (a *Arena) SizeOf(p Ptr) int {
	size, _, _ := unpackHeader(a.dev.ReadU64(int64(p) - HeaderSize))
	return int(size)
}

// Holds reports whether the n bytes at p lie inside the heap's used extent. It
// reads nothing from the device: a reader handed a pointer or a length by an
// image it cannot trust checks them here before it follows them.
func (a *Arena) Holds(p Ptr, n int) bool {
	return n >= 0 && int64(p) >= a.heapBase()+HeaderSize && int64(p) <= a.heapEnd-int64(n)
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

// Fits reports whether chunks of n bytes in all, headers included and none
// over max bytes, surely fit: what carve takes in fresh memory past the heap
// end, or in free chunks of a size class above max's, where the first chunk
// it looks at fits. Of such a free chunk it counts what lies above its
// class's floor, a bound each carve lowers by no more than it takes; the free
// chunks of max's class and below, which a scattered heap holds in plenty,
// it does not count. A caller that allocates later checks here first, with
// a line of slack per chunk for the heap end's rounding.
func (a *Arena) Fits(n, max int64) bool {
	room := a.base + a.size - a.heapEnd
	floor := int64(minPayload) << classOf(max-HeaderSize)
	for c := classOf(max-HeaderSize) + 1; c < numClasses; c++ {
		room += a.freeBytes[c] - int64(len(a.free[c]))*floor
	}
	return room >= n
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
		size, tag, st := a.header(off)
		if size < minPayload || off+HeaderSize+size > a.heapEnd || !laidOut(off, HeaderSize+size) {
			return
		}
		fn(Ptr(off+HeaderSize), int(size), tag, st)
		off += HeaderSize + size
	}
}
