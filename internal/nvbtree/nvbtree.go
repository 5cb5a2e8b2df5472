// Package nvbtree is the non-volatile B+tree used by the NVM-aware engines
// for their indexes (§4.1). Unlike the volatile STX-style tree, every
// structural change follows a durability discipline that keeps the tree
// consistent on NVM at all times, so it "can be safely accessed immediately
// after the system restarts" without being rebuilt.
//
// Following the paper's modification of the STX B+tree: "when adding an
// entry to a B+tree node, instead of inserting the key in a sorted order, it
// appends the entry to a list of entries in the node". Node entries are an
// append-only unsorted list. An append writes the new entries, syncs them,
// and then durably bumps the node's committed-entry count with a single
// atomic 8-byte write — the commit point. Beside the count each node keeps a
// one-byte fingerprint per entry (FP-tree's fingerprint array, Oukid et al.),
// so a leaf lookup loads the node's first line and only the entries whose
// fingerprint matches its key. Deletions and replacements append
// shadowing entries (a tombstone bit in the value word); full nodes are
// resolved and rewritten copy-on-write, with the swap journaled in the tree
// header so a crash at any point either completes or rolls back cleanly in
// concert with the allocator's durability states.
//
// Keys are unique uint64s; values are uint64s below 2^63 (the top bit is the
// tombstone flag). Not safe for concurrent use.
package nvbtree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"slices"
	"sort"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// DefaultNodeSize matches the paper's STX B+tree configuration (512 B). A
// node is an allocator chunk of that size, its header included, so a node
// of a power-of-two size owns whole cache lines.
const DefaultNodeSize = 512

const (
	tombstone = uint64(1) << 63

	// Node layout. The count word, the flag and the fingerprints come first
	// (one line at the default node size); the entries follow from the first
	// 16-byte boundary behind the fingerprints, so no entry straddles a line.
	nCount  = 0  // u64: committed entry count (low 16 bits, the atomic commit point) | fingerprint checksum << 16
	nFlags  = 8  // u8: 1 = leaf
	nFps    = 9  // u8 per entry slot: the fingerprint of its key
	entSize = 16 // (key u64, val u64) pairs, append-only, unsorted

	// Header chunk layout (the tree's durable anchor).
	hMagic    = 0
	hRoot     = 8
	hNodeSize = 16
	hJOld     = 24 // journal: node being replaced (0 = no journal)
	hJParent  = 32 // journal: its parent (0 = root replace)
	hJProbe   = 40 // journal: commit probe (new node that becomes reachable)
	hJNew     = 48 // journal: up to 3 new nodes
	hJSum     = 72 // journal: checksum of the six words before it
	hdrBytes  = 80

	headerMagic = 0x4e56425452454533 // "NVBTREE3": nodes carry fingerprints

	// minFree is the preemptive threshold: inner nodes visited during a
	// descent are rewritten/split if they have fewer free slots, so that a
	// child replacement (1 tombstone + up to 2 new routing entries) always
	// fits in its parent.
	minFree = 3
)

type entry struct{ k, v uint64 }

// Tree is a non-volatile B+tree anchored at a durable header chunk.
type Tree struct {
	arena *pmalloc.Arena
	dev   *nvm.Device
	hdr   pmalloc.Ptr
	nsize int // a node's payload: its chunk less the chunk header
	cap   int
	ents  int // where a node's entries start

	// Single-threaded scratch for whole-node reads and writes and shadow
	// resolution, avoiding per-entry device calls and per-lookup allocations.
	scratch []byte
	seen    []uint64
	fps     []byte // a node's fingerprints (head)
	walker  *walker
}

// Create allocates a new empty tree and returns it. Store Header() in an
// arena root slot to find the tree again after a restart. Index-arena
// exhaustion is returned as an error, never a panic: tree creation is
// reachable from runtime table growth.
func Create(arena *pmalloc.Arena, nodeSize int) (*Tree, error) {
	t := newHandle(arena, nodeSize)
	hdr, err := arena.Alloc(hdrBytes, pmalloc.TagIndex)
	if err != nil {
		return nil, err
	}
	t.hdr = hdr
	root, err := arena.Alloc(t.nsize, pmalloc.TagIndex)
	if err != nil {
		arena.Free(hdr)
		return nil, err
	}
	// An empty leaf: a zero count word (no entry, and the checksum of no
	// fingerprints) and the leaf flag, in one line. It must be durable before
	// the header points at it: a tree that is never written again (an empty
	// table) would otherwise lose it to a power cut and read back as a zeroed
	// inner node.
	t.dev.WriteU64(int64(root)+nCount, 0)
	t.dev.WriteU8(int64(root)+nFlags, 1)
	t.dev.Sync(int64(root), nFps)
	arena.SetPersisted(root)
	t.writeHeader(root)
	t.dev.Sync(int64(hdr), hdrBytes)
	arena.SetPersisted(hdr)
	return t, nil
}

func newHandle(arena *pmalloc.Arena, nodeSize int) *Tree {
	if nodeSize == 0 {
		nodeSize = DefaultNodeSize
	}
	t := &Tree{arena: arena, dev: arena.Device()}
	t.setSize(nodeSize - pmalloc.HeaderSize)
	if t.cap < 4 {
		panic("nvbtree: node size too small")
	}
	return t
}

// Capacity returns how many entries a node of nodeSize bytes (0:
// DefaultNodeSize) holds: the puts of distinct keys that fill an empty leaf,
// after which the next put rewrites it.
func Capacity(nodeSize int) int {
	if nodeSize == 0 {
		nodeSize = DefaultNodeSize
	}
	var t Tree
	t.setSize(nodeSize - pmalloc.HeaderSize)
	return t.cap
}

// setSize sizes the handle for nodes of nsize payload bytes: the most entries
// that fit behind the count word, the flag and one fingerprint each, the
// entries 16-byte aligned.
func (t *Tree) setSize(nsize int) {
	t.nsize = nsize
	for c := (nsize - nFps) / (entSize + 1); c > 0; c-- {
		if ents := (nFps + c + 15) &^ 15; ents+c*entSize <= nsize {
			t.cap, t.ents = c, ents
			return
		}
	}
}

// writeHeader stores a fresh header (clear journal) naming root; the caller
// makes it durable.
func (t *Tree) writeHeader(root uint64) {
	var b [hdrBytes]byte
	binary.LittleEndian.PutUint64(b[hMagic:], headerMagic)
	binary.LittleEndian.PutUint64(b[hRoot:], root)
	binary.LittleEndian.PutUint64(b[hNodeSize:], uint64(t.nsize))
	t.dev.Write(int64(t.hdr), b[:])
}

// KV is one key/value pair of a bulk load.
type KV struct{ K, V uint64 }

// fingerprint is the one-byte hash of key k a node keeps for its entry.
func fingerprint(k uint64) byte { return byte(k * 0x9e3779b97f4a7c15 >> 56) }

// countWord packs a node's committed count with a checksum of the
// fingerprints of its first c entries. Both reach the medium in one atomic
// store, so a count whose fingerprints a torn or lost line left stale is told
// by its checksum. Zero is an empty node.
func countWord(c int, fps []byte) uint64 {
	return uint64(c) | crc64.Checksum(fps[:c], journalTable)<<16
}

// Build bulk-loads a new tree from kvs, which must be in strictly ascending
// key order with values below 2^63. Nodes are filled sequentially, level by
// level, the used prefix of each streamed once; one fence makes all of them
// and the header durable, and one batched mark (a second fence) turns
// them persisted, the header last. Until the caller stores Header() under a
// durable root nothing references the tree: a crash before the mark leaves
// every chunk in the allocated state, which the allocator's recovery scan
// reclaims, and one after it leaves unreferenced persisted chunks for the
// owner's reachability sweep — the same two outcomes as a crash around
// Create. Nodes are filled to capacity: a built tree is an LSM run, which is
// read and never appended to (a Put into one rewrites the full node it lands
// in, as for any full node).
func Build(arena *pmalloc.Arena, nodeSize int, kvs []KV) (*Tree, error) {
	t := newHandle(arena, nodeSize)
	level := make([]entry, len(kvs))
	for i, kv := range kvs {
		if kv.V&tombstone != 0 {
			panic("nvbtree: value uses the tombstone bit")
		}
		if i > 0 && kv.K <= kvs[i-1].K {
			panic("nvbtree: Build input not in strictly ascending key order")
		}
		level[i] = entry{kv.K, kv.V}
	}
	var chunks []pmalloc.Ptr
	abandon := func(err error) (*Tree, error) {
		for _, p := range chunks {
			arena.Free(p)
		}
		return nil, err
	}
	buf := make([]byte, t.nsize)
	var root uint64
	for leaf := true; root == 0; leaf = false {
		nodes := (len(level) + t.cap - 1) / t.cap
		if nodes == 0 {
			nodes = 1 // an empty tree is one empty leaf
		}
		next := make([]entry, nodes)
		for i := range next {
			es := level[len(level)*i/nodes : len(level)*(i+1)/nodes]
			p, err := arena.Alloc(t.nsize, pmalloc.TagIndex)
			if err != nil {
				return abandon(err)
			}
			chunks = append(chunks, p)
			used := t.encodeNode(buf, leaf, es)
			t.dev.WriteStream(int64(p), buf[:used])
			next[i].v = p
			if len(es) > 0 {
				next[i].k = es[0].k
			}
		}
		if nodes == 1 {
			root = next[0].v
		}
		level = next
	}
	hdr, err := arena.Alloc(hdrBytes, pmalloc.TagIndex)
	if err != nil {
		return abandon(err)
	}
	t.hdr = hdr
	t.writeHeader(root)
	t.dev.WriteBack(int64(hdr), hdrBytes)
	t.dev.Fence()
	arena.SetPersisted(append(chunks, hdr)...)
	return t, nil
}

// encodeNode lays a node holding es out in buf and returns the bytes used.
func (t *Tree) encodeNode(buf []byte, leaf bool, es []entry) int {
	clear(buf[:t.ents])
	if leaf {
		buf[nFlags] = 1
	}
	fps := buf[nFps : nFps+len(es)]
	for i, e := range es {
		fps[i] = fingerprint(e.k)
		binary.LittleEndian.PutUint64(buf[t.ents+i*entSize:], e.k)
		binary.LittleEndian.PutUint64(buf[t.ents+i*entSize+8:], e.v)
	}
	binary.LittleEndian.PutUint64(buf[nCount:], countWord(len(es), fps))
	return t.ents + len(es)*entSize
}

// Open attaches to an existing tree at header ptr and completes or rolls
// back any structural change interrupted by a crash.
func Open(arena *pmalloc.Arena, hdr pmalloc.Ptr) (*Tree, error) {
	d := arena.Device()
	if d.ReadU64(int64(hdr)+hMagic) != headerMagic {
		return nil, fmt.Errorf("nvbtree: no tree header at %d", hdr)
	}
	t := &Tree{arena: arena, dev: d, hdr: hdr}
	t.setSize(int(d.ReadU64(int64(hdr) + hNodeSize)))
	t.recoverJournal()
	return t, nil
}

// Header returns the tree's durable anchor pointer (the naming handle).
func (t *Tree) Header() pmalloc.Ptr { return t.hdr }

// NodeSize returns the configured node size: a node's chunk, header
// included.
func (t *Tree) NodeSize() int { return t.nsize + pmalloc.HeaderSize }

func (t *Tree) root() uint64 { return t.dev.ReadU64(int64(t.hdr) + hRoot) }

func (t *Tree) setRootDurable(n uint64) {
	t.dev.WriteU64Durable(int64(t.hdr)+hRoot, n)
}

// writeNode allocates a node holding es and writes back the lines it uses:
// durable at the fence that makes the rewrite's journal durable, before
// anything marks or names the node.
func (t *Tree) writeNode(leaf bool, es []entry) (uint64, error) {
	p, err := t.arena.Alloc(t.nsize, pmalloc.TagIndex)
	if err != nil {
		return 0, err
	}
	buf := t.buf()
	used := t.encodeNode(buf, leaf, es)
	t.dev.Write(int64(p), buf[:used])
	t.dev.WriteBack(int64(p), used)
	return uint64(p), nil
}

func (t *Tree) isLeaf(n uint64) bool { return t.dev.ReadU8(int64(n)+nFlags) == 1 }
func (t *Tree) count(n uint64) int   { return int(t.dev.ReadU64(int64(n)+nCount) & 0xffff) }

func (t *Tree) entAt(n uint64, i int) entry {
	off := int64(n) + int64(t.ents) + int64(i)*entSize
	return entry{t.dev.ReadU64(off), t.dev.ReadU64(off + 8)}
}

// head reads node n's count word and the fingerprints of the entries it
// commits — one line at the default node size — and reports whether the
// word's checksum vouches for them.
func (t *Tree) head(n uint64) (c int, fps []byte, ok bool) {
	w := t.dev.ReadU64(int64(n) + nCount)
	c = min(int(w&0xffff), t.cap)
	if cap(t.fps) < t.cap {
		t.fps = make([]byte, t.cap)
	}
	fps = t.fps[:c]
	t.dev.Read(int64(n)+nFps, fps)
	return c, fps, w == countWord(c, fps)
}

// readNode returns node n's committed entries, read into the tree's scratch
// buffer: the count word, then the committed prefix only — the lines behind
// it hold nothing a reader may use, and a half-full node is half the loads of
// its capacity.
func (t *Tree) readNode(n uint64) ([]byte, int) {
	c := min(t.count(n), t.cap)
	es := t.buf()[:c*entSize]
	t.dev.Read(int64(n)+int64(t.ents), es)
	return es, c
}

// buf returns the tree's scratch buffer, a node's payload long.
func (t *Tree) buf() []byte {
	if cap(t.scratch) < t.nsize {
		t.scratch = make([]byte, t.nsize)
	}
	return t.scratch[:t.nsize]
}

func bufEnt(es []byte, i int) entry {
	return entry{
		k: binary.LittleEndian.Uint64(es[i*entSize:]),
		v: binary.LittleEndian.Uint64(es[i*entSize+8:]),
	}
}

// appendEntries writes entries at the end of node n and commits them with a
// single atomic durable update of the count word (the multi-entry commit
// point). Their fingerprints go beside the count, which writes them back with
// it where they share its line. Fingerprints the count's checksum does not
// vouch for — a crash tore or lost their line — are derived again from the
// committed keys first.
func (t *Tree) appendEntries(n uint64, es ...entry) {
	c, fps, ok := t.head(n)
	if c+len(es) > t.cap {
		panic("nvbtree: append past node capacity")
	}
	from := c
	if !ok {
		keys, _ := t.readNode(n)
		for i := range fps {
			fps[i] = fingerprint(bufEnt(keys, i).k)
		}
		from = 0
	}
	fps = fps[:c+len(es)]
	base := int64(n) + int64(t.ents) + int64(c)*entSize
	for i, e := range es {
		fps[c+i] = fingerprint(e.k)
		t.dev.WriteU64(base+int64(i)*entSize, e.k)
		t.dev.WriteU64(base+int64(i)*entSize+8, e.v)
	}
	t.dev.Write(int64(n)+nFps+int64(from), fps[from:])
	t.dev.Sync(base, len(es)*entSize)
	t.dev.WriteU64Durable(int64(n)+nCount, countWord(len(fps), fps))
}

// resolve returns the live (shadow- and tombstone-resolved) entries of node
// n, sorted by key, in dst's array: later appends win over earlier ones. It
// allocates only if dst holds fewer than the node's committed entries.
func (t *Tree) resolve(n uint64, dst []entry) []entry {
	buf, c := t.readNode(n)
	all := dst[:0]
	if cap(all) < c {
		all = make([]entry, 0, c)
	}
	for i := 0; i < c; i++ {
		all = append(all, bufEnt(buf, i))
	}
	// Stable: a key's entries keep their append order, the newest last.
	slices.SortStableFunc(all, func(a, b entry) int { return cmp.Compare(a.k, b.k) })
	live := all[:0]
	for i, e := range all {
		if (i+1 == len(all) || all[i+1].k != e.k) && e.v&tombstone == 0 {
			live = append(live, e)
		}
	}
	return live
}

// lookupIn searches node n backwards for key k; the newest entry wins. It
// reads only the entries whose fingerprint matches k's, or every committed
// one when the count's checksum does not vouch for the fingerprints.
func (t *Tree) lookupIn(n uint64, k uint64) (uint64, bool) {
	c, fps, ok := t.head(n)
	var all []byte
	if !ok {
		all, c = t.readNode(n)
	}
	f := fingerprint(k)
	for i := c - 1; i >= 0; i-- {
		var e entry
		switch {
		case !ok:
			e = bufEnt(all, i)
		case fps[i] != f:
			continue
		default:
			e = t.entAt(n, i)
		}
		if e.k == k {
			if e.v&tombstone != 0 {
				return 0, false
			}
			return e.v, true
		}
	}
	return 0, false
}

// routeChild picks the child of inner node n covering key k: the live
// routing entry with the largest separator <= k, or the smallest separator
// if k precedes all of them. Shadow resolution runs backwards over the
// committed entries without allocating. An inner node with no live child —
// which only a damaged image holds — routes nowhere: !ok.
func (t *Tree) routeChild(n uint64, k uint64) (child uint64, ok bool) {
	buf, c := t.readNode(n)
	if cap(t.seen) < t.cap {
		t.seen = make([]uint64, 0, t.cap)
	}
	seen := t.seen[:0]
	var bestK, bestV uint64
	haveBest := false
	var minK, minV uint64
	haveMin := false
	for i := c - 1; i >= 0; i-- {
		e := bufEnt(buf, i)
		dup := false
		for _, sk := range seen {
			if sk == e.k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, e.k)
		if e.v&tombstone != 0 {
			continue
		}
		if e.k <= k && (!haveBest || e.k > bestK) {
			bestK, bestV, haveBest = e.k, e.v, true
		}
		if !haveMin || e.k < minK {
			minK, minV, haveMin = e.k, e.v, true
		}
	}
	if haveBest {
		return bestV, true
	}
	return minV, haveMin
}

// ErrCorrupt reports a descent no healthy tree allows — deeper than any, through
// a child pointer that cycles back on itself, or into an inner node with no
// live child — which only a damaged image can hold (e.g. one written with its
// fences disabled).
var ErrCorrupt = errors.New("nvbtree: descent exceeds the maximum tree depth or dead-ends (corrupt child pointer)")

// maxDepth bounds every descent by key (Get, Put, Delete) against corrupted
// child pointers; legitimate trees never approach it.
const maxDepth = 80

// get is Get with the depth overrun reported.
func (t *Tree) get(k uint64) (uint64, bool, error) {
	n := t.root()
	for depth := 0; !t.isLeaf(n); depth++ {
		var ok bool
		if n, ok = t.routeChild(n, k); !ok || depth > maxDepth {
			return 0, false, ErrCorrupt
		}
	}
	v, ok := t.lookupIn(n, k)
	return v, ok, nil
}

// Get returns the value stored for key k. It gives up on a descent past
// maxDepth and reports the key absent; Put and Delete return ErrCorrupt for
// the same image.
func (t *Tree) Get(k uint64) (uint64, bool) {
	v, ok, _ := t.get(k)
	return v, ok
}

// Put inserts or replaces k=v. v must be below 2^63. An index-arena
// exhaustion during a node rewrite is returned as an error; the tree stays
// consistent (the failed rewrite is never made reachable).
func (t *Tree) Put(k, v uint64) error {
	if v&tombstone != 0 {
		panic("nvbtree: value uses the tombstone bit")
	}
	return t.modify(k, v)
}

// Delete removes key k, reporting whether it was present.
func (t *Tree) Delete(k uint64) (bool, error) {
	if _, ok, err := t.get(k); err != nil || !ok {
		return false, err
	}
	if err := t.modify(k, tombstone); err != nil {
		return false, err
	}
	return true, nil
}

// modify appends (k, v) — possibly a tombstone — into the correct leaf,
// rewriting/splitting nodes as needed.
func (t *Tree) modify(k, v uint64) error {
	// Descend, preemptively rewriting any node too full to absorb a child
	// replacement (inner) or the append itself (leaf).
	for {
		var parent uint64
		n := t.root()
		restart := false
		for depth := 0; !t.isLeaf(n); depth++ {
			if depth > maxDepth {
				return ErrCorrupt
			}
			if t.cap-t.count(n) < minFree {
				if err := t.rewrite(n, parent, nil); err != nil {
					return err
				}
				restart = true
				break
			}
			parent = n
			var ok bool
			if n, ok = t.routeChild(n, k); !ok {
				return ErrCorrupt
			}
		}
		if restart {
			continue
		}
		if t.count(n) < t.cap {
			t.appendEntries(n, entry{k, v})
			return nil
		}
		// Full leaf: rewrite it with the pending entry folded in.
		return t.rewrite(n, parent, &entry{k, v})
	}
}

// rewrite resolves node n and replaces it with one or two fresh nodes
// (copy-on-write), optionally folding in a pending entry, and journals the
// swap so a crash cannot corrupt or leak the tree. An allocation failure
// before the journal is written returns an error with the tree untouched:
// the partially built nodes are freed and nothing became reachable.
func (t *Tree) rewrite(n, parent uint64, pending *entry) error {
	live := t.resolve(n, nil)
	if pending != nil {
		// Fold the pending (k,v) into the live set.
		replaced := false
		for i := range live {
			if live[i].k == pending.k {
				live[i].v = pending.v
				replaced = true
				break
			}
		}
		if !replaced {
			live = append(live, *pending)
			sort.Slice(live, func(i, j int) bool { return live[i].k < live[j].k })
		}
		// Drop tombstones folded into a rewrite.
		out := live[:0]
		for _, e := range live {
			if e.v&tombstone == 0 {
				out = append(out, e)
			}
		}
		live = out
	}
	leaf := t.isLeaf(n)

	// The separator the parent currently uses for n; an empty rewrite keeps
	// it so separator keys stay unique within the parent.
	var sepOld uint64
	if parent != 0 {
		var ok bool
		sepOld, ok = t.routingKeyFor(parent, n)
		if !ok {
			panic("nvbtree: old child not routed by parent")
		}
	}

	// Build replacement node(s). Split if the live set doesn't leave
	// headroom in a single node. On allocation failure, free what was built
	// — none of it is journaled or reachable yet.
	var newNodes []uint64
	var seps []uint64
	abandon := func(err error) error {
		for _, p := range newNodes {
			t.arena.Free(pmalloc.Ptr(p))
		}
		return err
	}
	sepOf := func(es []entry) uint64 {
		if len(es) == 0 {
			return 0
		}
		return es[0].k
	}
	if len(live) > t.cap-minFree {
		mid := len(live) / 2
		l, r := live[:mid], live[mid:]
		ln, err := t.writeNode(leaf, l)
		if err != nil {
			return abandon(err)
		}
		newNodes = append(newNodes, ln)
		rn, err := t.writeNode(leaf, r)
		if err != nil {
			return abandon(err)
		}
		newNodes = append(newNodes, rn)
		seps = []uint64{sepOf(l), sepOf(r)}
	} else {
		nn, err := t.writeNode(leaf, live)
		if err != nil {
			return abandon(err)
		}
		newNodes = append(newNodes, nn)
		sep := sepOf(live)
		if len(live) == 0 && parent != 0 {
			sep = sepOld
		}
		seps = []uint64{sep}
	}
	if parent != 0 && len(live) > 0 && sepOld < seps[0] {
		// A node's subtree can hold keys below its first entry: routeChild
		// sends keys smaller than every separator to the smallest child, so
		// a min child (or, for inner nodes, a subtree on the min spine)
		// legitimately covers [sepOld, firstKey). Raising the separator to
		// the first entry key would strand those keys — the parent would
		// route their range to the left sibling while they stay here. The
		// left replacement keeps min(sepOld, firstKey): the parent-routed
		// lower bound when the first entry sits above it, the first entry
		// key when the node is a min child already covering keys below
		// sepOld (where keeping sepOld would hand [firstKey, sepOld) to the
		// wrong sibling).
		seps[0] = sepOld
	}

	var newRoot uint64
	probe := newNodes[0]
	if parent == 0 && len(newNodes) == 2 {
		// Root split: a fresh root routes to the two halves.
		nr, err := t.writeNode(false, []entry{{seps[0], newNodes[0]}, {seps[1], newNodes[1]}})
		if err != nil {
			return abandon(err)
		}
		newRoot = nr
		probe = newRoot
	} else if parent == 0 {
		probe = newNodes[0]
	}

	// Journal the swap: {old, parent, probe, new...}, durably, before the
	// new nodes are marked persisted; the same fence makes the new nodes'
	// written-back lines durable. The seven words can span two cache
	// lines, and clearing the journal zeroes only the first, so the checksum
	// is what tells recovery that all six it reads belong to this rewrite.
	jNew := [3]uint64{}
	copy(jNew[:], newNodes)
	if newRoot != 0 {
		jNew[len(newNodes)] = newRoot
	}
	var j [hdrBytes - hJOld]byte
	for i, w := range [...]uint64{n, parent, probe, jNew[0], jNew[1], jNew[2]} {
		binary.LittleEndian.PutUint64(j[i*8:], w)
	}
	binary.LittleEndian.PutUint64(j[hJSum-hJOld:], journalSum(j[:hJSum-hJOld]))
	d := t.dev
	d.Write(int64(t.hdr)+hJOld, j[:])
	d.Sync(int64(t.hdr)+hJOld, len(j))

	for _, p := range jNew {
		if p != 0 {
			t.arena.SetPersisted(pmalloc.Ptr(p))
		}
	}

	// Commit: make the new nodes reachable with one atomic step.
	if parent == 0 {
		t.setRootDurable(probe)
	} else {
		es := make([]entry, 0, 3)
		es = append(es, entry{sepOld, n | tombstone})
		for i, nn := range newNodes {
			es = append(es, entry{seps[i], nn})
		}
		t.appendEntries(parent, es...)
	}

	// Release the replaced node, then clear the journal.
	t.arena.Free(pmalloc.Ptr(n))
	d.WriteU64Durable(int64(t.hdr)+hJOld, 0)
	return nil
}

// routingKeyFor returns the separator key of parent's live routing entry
// whose child is c.
func (t *Tree) routingKeyFor(parent, c uint64) (uint64, bool) {
	for _, e := range t.resolve(parent, nil) {
		if e.v == c {
			return e.k, true
		}
	}
	return 0, false
}

// journalSum is the checksum stored behind the journal's six words.
func journalSum(words []byte) uint64 { return crc64.Checksum(words, journalTable) }

var journalTable = crc64.MakeTable(crc64.ECMA)

// recoverJournal completes or rolls back a rewrite interrupted by a crash.
func (t *Tree) recoverJournal() {
	d := t.dev
	old := d.ReadU64(int64(t.hdr) + hJOld)
	if old == 0 {
		return
	}
	var j [hdrBytes - hJOld]byte
	d.Read(int64(t.hdr)+hJOld, j[:])
	word := func(off int) uint64 { return binary.LittleEndian.Uint64(j[off-hJOld:]) }
	if word(hJSum) != journalSum(j[:hJSum-hJOld]) {
		// A journal write the crash tore or reordered: some of the six words
		// are an earlier rewrite's. The rewrite publishes nothing — marks no
		// new node, touches no parent — before its journal is durable, so
		// there is nothing to complete or roll back.
		d.WriteU64Durable(int64(t.hdr)+hJOld, 0)
		return
	}
	parent, probe := word(hJParent), word(hJProbe)
	news := [3]uint64{word(hJNew), word(hJNew + 8), word(hJNew + 16)}
	committed := false
	if parent == 0 {
		committed = t.root() == probe
	} else {
		// Only a live route counts. The parent's entry array is append-only
		// and keeps superseded routes, and a freed node's address is the
		// first the allocator hands out again: a shadowed entry of an
		// earlier node at probe's address would read as "committed", the
		// live old node would be freed under the tree and its chunk reused.
		_, committed = t.routingKeyFor(parent, probe)
	}
	if committed {
		// The swap is visible: discard the replaced node if still live.
		if t.arena.StateOf(pmalloc.Ptr(old)) != pmalloc.StateFree {
			t.arena.Free(pmalloc.Ptr(old))
		}
	} else {
		// The swap never became visible: discard any new node that was
		// already marked persisted (un-persisted ones were reclaimed by the
		// allocator's own recovery scan).
		for _, p := range news {
			if p != 0 && t.arena.StateOf(pmalloc.Ptr(p)) == pmalloc.StatePersisted {
				t.arena.Free(pmalloc.Ptr(p))
			}
		}
	}
	d.WriteU64Durable(int64(t.hdr)+hJOld, 0)
}

// walker is a walk's scratch, which the tree keeps for its next walk, so a
// walk allocates nothing per node: the nodes the walk has entered, and at
// each depth the live entries of the node the walk resolved there — an inner
// node's held while its children are visited.
type walker struct {
	seen  map[uint64]bool
	depth [][]entry
}

// walk resolves the tree depth first, children in key order, each node once:
// a child pointer that cycles back, or one a second parent shares — which
// only a damaged image holds — ends at the node it names again. It skips the
// subtrees whose keys all fall below from, calls node (if set) with each node
// before its children, emit (if set) with each live key >= from of a leaf in
// ascending key order, and exit (if set) with each node after its children,
// and stops, returning false, as soon as emit does. It reads the root word
// once, each node's flag byte once and an inner node's count and committed
// entries once, a leaf's only for emit.
func (t *Tree) walk(from uint64, node func(p pmalloc.Ptr), emit func(k, v uint64) bool, exit func(n uint64)) bool {
	w := t.walker
	if w == nil {
		w = &walker{seen: make(map[uint64]bool)}
	}
	t.walker = nil // a walk begun inside this one's callbacks makes its own
	defer func() { t.walker = w }()
	clear(w.seen)
	next := from // the least key emit may still be given
	var visit func(n uint64, d int) bool
	visit = func(n uint64, d int) bool {
		if w.seen[n] {
			return true
		}
		w.seen[n] = true
		leaf := t.isLeaf(n)
		if node != nil {
			node(pmalloc.Ptr(n))
		}
		if !leaf || emit != nil {
			if d == len(w.depth) {
				w.depth = append(w.depth, make([]entry, 0, t.cap))
			}
			live := t.resolve(n, w.depth[d])
			for i, e := range live {
				switch {
				case !leaf:
					// Child i covers [its separator, the next one).
					if (i+1 == len(live) || live[i+1].k > from) && !visit(e.v, d+1) {
						return false
					}
				case e.k < next:
					// Nothing at or below a key already given is given
					// again, which keeps the order on a damaged image too.
				case !emit(e.k, e.v) || e.k == ^uint64(0):
					return false
				default:
					next = e.k + 1
				}
			}
		}
		if exit != nil {
			exit(n)
		}
		return true
	}
	return visit(t.root(), 0)
}

// Walk calls node (if set) with the header chunk and then every node chunk of
// the tree, a parent before its children, and entry (if set) with each live
// key >= from and its value in ascending key order until entry returns false:
// one walk, which reads each node once, so a recovery sweep marks a tree's
// nodes and the chunks its values name in one pass.
func (t *Tree) Walk(from uint64, node func(p pmalloc.Ptr), entry func(k, v uint64) bool) {
	if node != nil {
		node(t.hdr)
	}
	t.walk(from, node, entry, nil)
}

// Iter calls fn for each key >= from in ascending order until fn returns
// false.
func (t *Tree) Iter(from uint64, fn func(k, v uint64) bool) { t.Walk(from, nil, fn) }

// Nodes calls fn with the header chunk and every node chunk of the tree:
// recovery sweeps use it to mark reachable index storage.
func (t *Tree) Nodes(fn func(p pmalloc.Ptr)) { t.Walk(0, fn, nil) }

// Count walks the tree and returns the number of live keys (test helper;
// the engines track row counts themselves).
func (t *Tree) Count() int {
	n := 0
	t.Iter(0, func(k, v uint64) bool { n++; return true })
	return n
}

// Release frees every node, children in key order before their parent, and
// the header last. The tree must not be used after.
func (t *Tree) Release() {
	t.walk(0, nil, nil, func(n uint64) { t.arena.Free(pmalloc.Ptr(n)) })
	t.arena.Free(t.hdr)
}
