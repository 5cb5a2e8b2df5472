// Package btree is a volatile B+tree over the NVM arena, standing in for the
// STX B+tree the InP and Log engines use for their indexes (§3.1). Keys are
// unique uint64s and values are uint64s (tuple pointers or encoded primary
// keys); engines build composite keys for secondary indexes and use range
// scans over them.
//
// "Volatile" means the tree issues no sync primitives: its nodes live in the
// arena (so index traffic is visible to the NVM perf counters, as on the
// paper's NVM-only hierarchy) but the tree is not crash-consistent and must
// be rebuilt during recovery, exactly as the traditional engines do (§3.1:
// "all of the tables' indexes are rebuilt during recovery").
//
// Node layout (the payload of a nodeSize-byte chunk, default 512 as in §5):
//
//	+0  flags (1 = leaf)
//	+2  count (u16)
//	+8  leaf: next-leaf pointer | inner: leftmost child pointer
//	+16 entries: (key u64, val u64) pairs, sorted by key
//
// Inner entry (k, c): child c covers keys in [k, next separator).
package btree

import (
	"nstore/internal/pmalloc"
)

// DefaultNodeSize matches the paper's STX B+tree configuration (512 B). A
// node is an allocator chunk of that size, its header included, so a node
// of a power-of-two size owns whole cache lines.
const DefaultNodeSize = 512

const (
	hdrFlags = 0
	hdrCount = 2
	hdrLink  = 8
	hdrSize  = 16
	entSize  = 16
)

// Tree is a volatile B+tree. Not safe for concurrent use.
type Tree struct {
	arena    *pmalloc.Arena
	nodeSize int // a node's chunk, header included
	cap      int // entries per node
	root     uint64
	size     int // number of keys
}

// New creates an empty tree with the given node size (0 = DefaultNodeSize).
func New(arena *pmalloc.Arena, nodeSize int) *Tree {
	if nodeSize == 0 {
		nodeSize = DefaultNodeSize
	}
	if nodeSize < pmalloc.HeaderSize+hdrSize+2*entSize {
		panic("btree: node size too small")
	}
	t := &Tree{arena: arena, nodeSize: nodeSize, cap: (nodeSize - pmalloc.HeaderSize - hdrSize) / entSize}
	t.root = t.newNode(true)
	return t
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.size }

// NodeSize returns the configured node size in bytes.
func (t *Tree) NodeSize() int { return t.nodeSize }

func (t *Tree) dev() devIface { return t.arena.Device() }

// devIface is the subset of *nvm.Device the tree uses.
type devIface interface {
	ReadU64(off int64) uint64
	WriteU64(off int64, v uint64)
	ReadU16(off int64) uint16
	WriteU16(off int64, v uint16)
	ReadU8(off int64) uint8
	WriteU8(off int64, v uint8)
}

func (t *Tree) newNode(leaf bool) uint64 {
	p, err := t.arena.Alloc(t.nodeSize-pmalloc.HeaderSize, pmalloc.TagIndex)
	if err != nil {
		panic(err) // index arena exhaustion is a config error
	}
	d := t.dev()
	if leaf {
		d.WriteU8(int64(p)+hdrFlags, 1)
	} else {
		d.WriteU8(int64(p)+hdrFlags, 0)
	}
	d.WriteU16(int64(p)+hdrCount, 0)
	d.WriteU64(int64(p)+hdrLink, 0)
	return p
}

func (t *Tree) isLeaf(n uint64) bool { return t.dev().ReadU8(int64(n)+hdrFlags) == 1 }
func (t *Tree) count(n uint64) int   { return int(t.dev().ReadU16(int64(n) + hdrCount)) }
func (t *Tree) setCount(n uint64, c int) {
	t.dev().WriteU16(int64(n)+hdrCount, uint16(c))
}
func (t *Tree) link(n uint64) uint64 { return t.dev().ReadU64(int64(n) + hdrLink) }
func (t *Tree) setLink(n, v uint64)  { t.dev().WriteU64(int64(n)+hdrLink, v) }
func (t *Tree) entOff(n uint64, i int) int64 {
	return int64(n) + hdrSize + int64(i)*entSize
}
func (t *Tree) key(n uint64, i int) uint64 { return t.dev().ReadU64(t.entOff(n, i)) }
func (t *Tree) val(n uint64, i int) uint64 { return t.dev().ReadU64(t.entOff(n, i) + 8) }
func (t *Tree) setEnt(n uint64, i int, k, v uint64) {
	d := t.dev()
	d.WriteU64(t.entOff(n, i), k)
	d.WriteU64(t.entOff(n, i)+8, v)
}

// lowerBound returns the first index i in node n with key(i) >= k.
func (t *Tree) lowerBound(n uint64, k uint64) int {
	lo, hi := 0, t.count(n)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.key(n, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child of inner node n that covers key k.
func (t *Tree) childFor(n uint64, k uint64) uint64 {
	i := t.lowerBound(n, k)
	if i < t.count(n) && t.key(n, i) == k {
		return t.val(n, i)
	}
	if i == 0 {
		return t.link(n) // leftmost child
	}
	return t.val(n, i-1)
}

// Get returns the value for key k.
func (t *Tree) Get(k uint64) (uint64, bool) {
	n := t.root
	for !t.isLeaf(n) {
		n = t.childFor(n, k)
	}
	i := t.lowerBound(n, k)
	if i < t.count(n) && t.key(n, i) == k {
		return t.val(n, i), true
	}
	return 0, false
}

// Put inserts k=v, replacing any existing value. It reports whether the key
// was newly inserted.
func (t *Tree) Put(k, v uint64) bool {
	var path []uint64
	n := t.root
	for !t.isLeaf(n) {
		path = append(path, n)
		n = t.childFor(n, k)
	}
	i := t.lowerBound(n, k)
	if i < t.count(n) && t.key(n, i) == k {
		t.setEnt(n, i, k, v) // replace
		return false
	}
	t.insertAt(n, i, k, v)
	t.size++
	if t.count(n) >= t.cap {
		t.split(n, path)
	}
	return true
}

// insertAt shifts entries right and writes (k, v) at index i.
func (t *Tree) insertAt(n uint64, i int, k, v uint64) {
	c := t.count(n)
	for j := c; j > i; j-- {
		t.setEnt(n, j, t.key(n, j-1), t.val(n, j-1))
	}
	t.setEnt(n, i, k, v)
	t.setCount(n, c+1)
}

// split divides full node n, promoting a separator into its parent chain.
func (t *Tree) split(n uint64, path []uint64) {
	c := t.count(n)
	mid := c / 2
	right := t.newNode(t.isLeaf(n))
	var sep uint64
	if t.isLeaf(n) {
		sep = t.key(n, mid)
		for j := mid; j < c; j++ {
			t.setEnt(right, j-mid, t.key(n, j), t.val(n, j))
		}
		t.setCount(right, c-mid)
		t.setCount(n, mid)
		t.setLink(right, t.link(n))
		t.setLink(n, right)
	} else {
		// Promote key(mid); its child becomes right's leftmost.
		sep = t.key(n, mid)
		t.setLink(right, t.val(n, mid))
		for j := mid + 1; j < c; j++ {
			t.setEnt(right, j-mid-1, t.key(n, j), t.val(n, j))
		}
		t.setCount(right, c-mid-1)
		t.setCount(n, mid)
	}
	if len(path) == 0 {
		// Root split.
		newRoot := t.newNode(false)
		t.setLink(newRoot, n)
		t.setEnt(newRoot, 0, sep, right)
		t.setCount(newRoot, 1)
		t.root = newRoot
		return
	}
	parent := path[len(path)-1]
	i := t.lowerBound(parent, sep)
	t.insertAt(parent, i, sep, right)
	if t.count(parent) >= t.cap {
		t.split(parent, path[:len(path)-1])
	}
}

// Delete removes key k. It reports whether the key was present.
func (t *Tree) Delete(k uint64) bool {
	n := t.root
	for !t.isLeaf(n) {
		n = t.childFor(n, k)
	}
	i := t.lowerBound(n, k)
	if i >= t.count(n) || t.key(n, i) != k {
		return false
	}
	c := t.count(n)
	for j := i; j < c-1; j++ {
		t.setEnt(n, j, t.key(n, j+1), t.val(n, j+1))
	}
	t.setCount(n, c-1)
	t.size--
	// Lazy deletion: no rebalancing. Underfull/empty leaves are tolerated
	// and skipped by iterators; the tree is rebuilt on recovery anyway.
	return true
}

// Iter iterates entries with key >= from, in ascending key order, calling
// fn for each; iteration stops when fn returns false.
func (t *Tree) Iter(from uint64, fn func(k, v uint64) bool) {
	n := t.root
	for !t.isLeaf(n) {
		n = t.childFor(n, from)
	}
	i := t.lowerBound(n, from)
	for n != 0 {
		c := t.count(n)
		for ; i < c; i++ {
			if !fn(t.key(n, i), t.val(n, i)) {
				return
			}
		}
		n = t.link(n)
		i = 0
	}
}

// Min returns the smallest key, if any.
func (t *Tree) Min() (k, v uint64, ok bool) {
	t.Iter(0, func(ik, iv uint64) bool {
		k, v, ok = ik, iv, true
		return false
	})
	return
}

// Release frees every node of the tree back to the arena. The tree must not
// be used afterwards.
func (t *Tree) Release() {
	t.release(t.root)
	t.root = 0
	t.size = 0
}

func (t *Tree) release(n uint64) {
	if n == 0 {
		return
	}
	if !t.isLeaf(n) {
		t.release(t.link(n))
		for i := 0; i < t.count(n); i++ {
			t.release(t.val(n, i))
		}
	}
	t.arena.Free(pmalloc.Ptr(n))
}
