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
// atomic 8-byte write — the commit point. Deletions and replacements append
// shadowing entries (a tombstone bit in the value word); full nodes are
// resolved and rewritten copy-on-write, with the swap journaled in the tree
// header so a crash at any point either completes or rolls back cleanly in
// concert with the allocator's durability states.
//
// Keys are unique uint64s; values are uint64s below 2^63 (the top bit is the
// tombstone flag). Not safe for concurrent use.
package nvbtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
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

	// Node layout.
	nFlags   = 0  // u8: 1 = leaf
	nCount   = 8  // u64: committed entry count (atomic commit point)
	nEntries = 16 // (key u64, val u64) pairs, append-only, unsorted
	entSize  = 16

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

	headerMagic = 0x4e56425452454532 // "NVBTREE2": the journal carries hJSum

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

	// Single-threaded scratch for whole-node reads and shadow resolution,
	// avoiding per-entry device calls and per-lookup allocations.
	scratch []byte
	seen    []uint64
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
	root, err := t.newNode(true)
	if err != nil {
		arena.Free(hdr)
		return nil, err
	}
	// The empty root's flag/count lines must be durable before the header
	// points at them: a tree that is never written again (an empty table)
	// would otherwise lose them to a power cut and read back as a zeroed
	// inner node.
	t.dev.Sync(int64(root), nEntries)
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
	nsize := nodeSize - pmalloc.HeaderSize
	if nsize < nEntries+4*entSize {
		panic("nvbtree: node size too small")
	}
	return &Tree{arena: arena, dev: arena.Device(), nsize: nsize, cap: (nsize - nEntries) / entSize}
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

// Build bulk-loads a new tree from kvs, which must be in strictly ascending
// key order with values below 2^63. Nodes are filled sequentially, level by
// level, the used prefix of each streamed once; one fence makes all of them
// and the header durable, and one batched mark (a second fence) turns
// them persisted, the header last. Until the caller stores Header() under a
// durable root nothing references the tree: a crash before the mark leaves
// every chunk in the allocated state, which the allocator's recovery scan
// reclaims, and one after it leaves unreferenced persisted chunks for the
// owner's reachability sweep — the same two outcomes as a crash around
// Create. Nodes keep minFree slots free, like rewritten ones, so later
// appends (a repointed value) fit without an immediate split.
func Build(arena *pmalloc.Arena, nodeSize int, kvs []KV) (*Tree, error) {
	t := newHandle(arena, nodeSize)
	fill := t.cap - minFree
	if fill < 2 {
		fill = 2
	}
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
		nodes := (len(level) + fill - 1) / fill
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
			used := encodeNode(buf, leaf, es)
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
func encodeNode(buf []byte, leaf bool, es []entry) int {
	clear(buf[:nEntries])
	if leaf {
		buf[nFlags] = 1
	}
	binary.LittleEndian.PutUint64(buf[nCount:], uint64(len(es)))
	for i, e := range es {
		binary.LittleEndian.PutUint64(buf[nEntries+i*entSize:], e.k)
		binary.LittleEndian.PutUint64(buf[nEntries+i*entSize+8:], e.v)
	}
	return nEntries + len(es)*entSize
}

// Open attaches to an existing tree at header ptr and completes or rolls
// back any structural change interrupted by a crash.
func Open(arena *pmalloc.Arena, hdr pmalloc.Ptr) (*Tree, error) {
	d := arena.Device()
	if d.ReadU64(int64(hdr)+hMagic) != headerMagic {
		return nil, fmt.Errorf("nvbtree: no tree header at %d", hdr)
	}
	t := &Tree{arena: arena, dev: d, hdr: hdr}
	t.nsize = int(d.ReadU64(int64(hdr) + hNodeSize))
	t.cap = (t.nsize - nEntries) / entSize
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

func (t *Tree) newNode(leaf bool) (uint64, error) {
	p, err := t.arena.Alloc(t.nsize, pmalloc.TagIndex)
	if err != nil {
		return 0, err
	}
	var fl byte
	if leaf {
		fl = 1
	}
	t.dev.WriteU8(int64(p)+nFlags, fl)
	t.dev.WriteU64(int64(p)+nCount, 0)
	return uint64(p), nil
}

func (t *Tree) isLeaf(n uint64) bool { return t.dev.ReadU8(int64(n)+nFlags) == 1 }
func (t *Tree) count(n uint64) int   { return int(t.dev.ReadU64(int64(n) + nCount)) }

func (t *Tree) entAt(n uint64, i int) entry {
	off := int64(n) + nEntries + int64(i)*entSize
	return entry{t.dev.ReadU64(off), t.dev.ReadU64(off + 8)}
}

// readNode fills the tree's scratch buffer with node n's committed entries
// and returns (buffer, count). It reads the header, then the committed
// prefix only: the lines behind it hold nothing a reader may use, and a
// half-full node is half the loads of its capacity.
func (t *Tree) readNode(n uint64) ([]byte, int) {
	if cap(t.scratch) < t.nsize {
		t.scratch = make([]byte, t.nsize)
	}
	buf := t.scratch[:t.nsize]
	t.dev.Read(int64(n), buf[:nEntries])
	c := int(binary.LittleEndian.Uint64(buf[nCount:]))
	if c > t.cap {
		c = t.cap
	}
	t.dev.Read(int64(n)+nEntries, buf[nEntries:nEntries+c*entSize])
	return buf, c
}

func bufEnt(buf []byte, i int) entry {
	off := nEntries + i*entSize
	return entry{
		k: binary.LittleEndian.Uint64(buf[off:]),
		v: binary.LittleEndian.Uint64(buf[off+8:]),
	}
}

// appendEntries writes entries at the end of node n and commits them with a
// single atomic durable count update (the multi-entry commit point).
func (t *Tree) appendEntries(n uint64, es ...entry) {
	c := t.count(n)
	if c+len(es) > t.cap {
		panic("nvbtree: append past node capacity")
	}
	base := int64(n) + nEntries + int64(c)*entSize
	for i, e := range es {
		t.dev.WriteU64(base+int64(i)*entSize, e.k)
		t.dev.WriteU64(base+int64(i)*entSize+8, e.v)
	}
	t.dev.Sync(base, len(es)*entSize)
	t.dev.WriteU64Durable(int64(n)+nCount, uint64(c+len(es)))
}

// resolve returns the live (shadow- and tombstone-resolved) entries of node
// n, sorted by key. Later appends win over earlier ones.
func (t *Tree) resolve(n uint64) []entry {
	buf, c := t.readNode(n)
	m := make(map[uint64]uint64, c)
	order := make([]uint64, 0, c)
	for i := 0; i < c; i++ {
		e := bufEnt(buf, i)
		if _, seen := m[e.k]; !seen {
			order = append(order, e.k)
		}
		m[e.k] = e.v
	}
	live := make([]entry, 0, len(order))
	for _, k := range order {
		if v := m[k]; v&tombstone == 0 {
			live = append(live, entry{k, v})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].k < live[j].k })
	return live
}

// lookupIn scans node n backwards for key k; the newest entry wins.
func (t *Tree) lookupIn(n uint64, k uint64) (uint64, bool) {
	buf, c := t.readNode(n)
	for i := c - 1; i >= 0; i-- {
		e := bufEnt(buf, i)
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

// get is Get with the depth overrun reported.
func (t *Tree) get(k uint64) (uint64, bool, error) {
	n := t.root()
	for depth := 0; !t.isLeaf(n); depth++ {
		var ok bool
		if n, ok = t.routeChild(n, k); !ok || depth > maxIterDepth {
			return 0, false, ErrCorrupt
		}
	}
	v, ok := t.lookupIn(n, k)
	return v, ok, nil
}

// Get returns the value stored for key k. Like Iter it gives up on a descent
// past maxIterDepth and reports the key absent; Put and Delete return
// ErrCorrupt for the same image.
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
			if depth > maxIterDepth {
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
	live := t.resolve(n)
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
	buildNode := func(es []entry) (uint64, error) {
		nn, err := t.newNode(leaf)
		if err != nil {
			return 0, err
		}
		c := len(es)
		base := int64(nn) + nEntries
		for i, e := range es {
			t.dev.WriteU64(base+int64(i)*entSize, e.k)
			t.dev.WriteU64(base+int64(i)*entSize+8, e.v)
		}
		t.dev.WriteU64(int64(nn)+nCount, uint64(c))
		t.dev.Sync(int64(nn), t.nsize)
		return nn, nil
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
		ln, err := buildNode(l)
		if err != nil {
			return abandon(err)
		}
		newNodes = append(newNodes, ln)
		rn, err := buildNode(r)
		if err != nil {
			return abandon(err)
		}
		newNodes = append(newNodes, rn)
		seps = []uint64{sepOf(l), sepOf(r)}
	} else {
		nn, err := buildNode(live)
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
		nr, err := t.newNode(false)
		if err != nil {
			return abandon(err)
		}
		newRoot = nr
		base := int64(newRoot) + nEntries
		for i := range newNodes {
			t.dev.WriteU64(base+int64(i)*entSize, seps[i])
			t.dev.WriteU64(base+int64(i)*entSize+8, newNodes[i])
		}
		t.dev.WriteU64(int64(newRoot)+nCount, 2)
		t.dev.Sync(int64(newRoot), t.nsize)
		probe = newRoot
	} else if parent == 0 {
		probe = newNodes[0]
	}

	// Journal the swap: {old, parent, probe, new...}, durably, before the
	// new nodes are marked persisted. The seven words can span two cache
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
	for _, e := range t.resolve(parent) {
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

// Iter calls fn for each key >= from in ascending order until fn returns
// false. It re-descends between leaves (the tree keeps no leaf chain, since
// leaves are replaced copy-on-write).
func (t *Tree) Iter(from uint64, fn func(k, v uint64) bool) {
	for {
		n := t.root()
		// A healthy tree over 64-bit keys is at most ~64 levels deep; a
		// longer descent means a corrupted child pointer cycling back on
		// itself (possible after an injected crash with fences disabled).
		// Bail out instead of spinning forever.
		for depth := 0; !t.isLeaf(n); depth++ {
			var ok bool
			if n, ok = t.routeChild(n, from); !ok || depth > maxIterDepth {
				return
			}
		}
		live := t.resolve(n)
		emitted := false
		var last uint64
		for _, e := range live {
			if e.k < from {
				continue
			}
			if !fn(e.k, e.v) {
				return
			}
			emitted = true
			last = e.k
		}
		if emitted {
			if last == ^uint64(0) {
				return
			}
			from = last + 1
			continue
		}
		// Nothing >= from in this leaf; probe the next key range. The leaf
		// with the largest keys simply ends the iteration.
		next, ok := t.successorLeafStart(from)
		if !ok {
			return
		}
		// In a healthy tree a successor found outside the routed leaf is
		// strictly greater than from (an exact match would have been routed
		// to and emitted above), so equality means corrupt routing.
		if next <= from {
			return
		}
		from = next
	}
}

// maxIterDepth bounds every interior descent (Get, Put, Delete, Iter) against
// corrupted child pointers; legitimate trees never approach it.
const maxIterDepth = 80

// successorLeafStart finds the smallest key >= from anywhere in the tree,
// used when a descent lands on a leaf with no matching entries.
func (t *Tree) successorLeafStart(from uint64) (uint64, bool) {
	var best uint64
	found := false
	var walk func(n uint64, depth int)
	walk = func(n uint64, depth int) {
		if depth > maxIterDepth {
			return // corrupted child pointer cycle; see Iter
		}
		if t.isLeaf(n) {
			for _, e := range t.resolve(n) {
				if e.k >= from && (!found || e.k < best) {
					best, found = e.k, true
				}
			}
			return
		}
		live := t.resolve(n)
		for i, e := range live {
			// Subtree i covers [sep_i, sep_{i+1}); skip those entirely
			// below from.
			if i+1 < len(live) && live[i+1].k <= from {
				continue
			}
			walk(e.v, depth+1)
			if found {
				return
			}
		}
	}
	walk(t.root(), 0)
	return best, found
}

// Count walks the tree and returns the number of live keys (test helper;
// the engines track row counts themselves).
func (t *Tree) Count() int {
	n := 0
	t.Iter(0, func(k, v uint64) bool { n++; return true })
	return n
}

// Nodes calls fn with every node chunk pointer of the tree plus its header
// chunk. Recovery sweeps use it to mark reachable index storage.
func (t *Tree) Nodes(fn func(p pmalloc.Ptr)) {
	fn(t.hdr)
	var walk func(n uint64)
	walk = func(n uint64) {
		fn(pmalloc.Ptr(n))
		if !t.isLeaf(n) {
			for _, e := range t.resolve(n) {
				walk(e.v)
			}
		}
	}
	walk(t.root())
}

// Release frees every node and the header. The tree must not be used after.
func (t *Tree) Release() {
	var walk func(n uint64)
	walk = func(n uint64) {
		if !t.isLeaf(n) {
			for _, e := range t.resolve(n) {
				walk(e.v)
			}
		}
		t.arena.Free(pmalloc.Ptr(n))
	}
	walk(t.root())
	t.arena.Free(t.hdr)
}
