// Package cowbtree is a copy-on-write (shadow-paged) B+tree in the style of
// LMDB's append-only B+tree, used by the CoW engine for its current/dirty
// directories (§3.2) and, over the allocator interface, by the NVM-CoW
// engine (§4.2).
//
// The tree never overwrites committed pages. A modification copies the path
// from the affected leaf up to the root ("dirty directory"); Persist makes
// the batch durable and atomically swings the master record to the new root
// ("current directory"). Because committed data is never overwritten, the
// tree needs no recovery process: after a crash the master record points to
// a consistent tree, and pages of the lost dirty directory are reclaimed by
// a reachability sweep.
//
// A page is copied once per group-commit batch, not once per transaction: a
// page allocated earlier in the still-unpersisted batch is reachable from no
// durable root, so a later transaction of the batch changes it under its own
// id. The batch's pages live in buffers until Persist, which hands each to the
// pager once: a transaction changes a clone of the batch buffer, and its
// rollback is to drop the clone — the batch buffer still holds the image the
// previous transaction committed. Before Persist no byte of the batch is on
// the pager's medium, and a batch page has a provisional id of the tree's;
// Persist writes the pages bottom-up, and the pager names each as it takes
// it, so a page chunk can be sized to the page's image.
//
// Keys are unique uint64s; values are byte slices that must fit in a page.
// Transaction boundaries (Begin/Commit/Abort) give per-transaction rollback
// inside a group-commit batch. Not safe for concurrent use.
package cowbtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Pager stores pages of at most a fixed size and the durable master record.
type Pager interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// ReadPage fills buf with page id's contents. An id is opaque to the
	// tree, and must be one WritePage returned.
	ReadPage(id uint64, buf []byte)
	// WritePage stores buf as a new page and returns its id (volatile until
	// Persist): opaque, below 2^63, and the only name ReadPage and FreePage
	// take for the page.
	WritePage(buf []byte) (uint64, error)
	// FreePage returns a page to the free pool immediately.
	FreePage(id uint64)
	// Reserve reports whether the next Persist can take pages whose images
	// take at most n bytes in all (pageBound): a pager that allocates at
	// Persist refuses a transaction that would outgrow it, which can abort,
	// rather than the Persist, which cannot.
	Reserve(n int) error
	// Persist durably commits all pages written since the last Persist and
	// atomically installs (root, meta) as the master record.
	Persist(root, meta uint64) error
	// Committed returns the durable master record.
	Committed() (root, meta uint64)
}

// ErrValueTooLarge is returned when a value cannot fit in a page.
var ErrValueTooLarge = errors.New("cowbtree: value too large for page size")

// Page layout:
//
//	+0  flags (1 = leaf)
//	+2  count (u16)
//	+4  dataEnd (u32, leaves: low end of the value heap)
//	+8  entries
//
// Leaf entry (slot directory): key u64, valOff u16, valLen u16 (12 B); value
// bytes grow down from the end of the page. Inner entry: key u64, child u64
// (16 B), sorted; child i covers [key_i, key_{i+1}).
const (
	pFlags   = 0
	pCount   = 2
	pDataEnd = 4
	pHdr     = 8

	leafSlot = 12
	innerEnt = 16
)

// Tree is a copy-on-write B+tree.
type Tree struct {
	pg       Pager
	psize    int
	root     uint64 // current (possibly uncommitted) root
	meta     uint64 // user meta committed alongside the root
	commRoot uint64

	// mut holds the buffers the running transaction changes in place: pages
	// it allocated, and batch pages it shadowed under their own id. Commit
	// moves them into batch; Abort drops them.
	mut map[uint64][]byte

	inTxn     bool
	rootAtTxn uint64
	metaAtTxn uint64
	txnFree   []uint64 // committed pages superseded by the running txn

	// batch holds the images of the pages allocated by committed-but-
	// unpersisted txns: private to the batch, and absent from the pager,
	// until the next Persist writes each once.
	batch     map[uint64][]byte
	batchFree []uint64 // committed pages superseded by the batch, reusable after next Persist
	named     uint64   // provisional ids handed out: batch page ids are provisional|n
	reserve   int      // the batch pages' pageBound, summed

	// kept holds the committed pages Get last read from the pager, one per
	// level of its path, for shadow to clone instead of reading them again.
	// A committed page changes only when Persist frees it and a later
	// Persist writes over it, so Persist drops them.
	kept []keptPage
}

// keptPage is a committed page Get read: its id, or 0 if none, and its
// contents.
type keptPage struct {
	id  uint64
	buf []byte
}

// provisional marks the id of a batch page the pager has not named yet.
const provisional = 1 << 63

// Create initializes an empty tree on the pager and persists it.
func Create(pg Pager) (*Tree, error) {
	t := newTree(pg)
	t.root = t.name()
	t.batch[t.root] = make([]byte, t.psize)
	initPage(t.batch[t.root], true, t.psize)
	if err := t.Persist(); err != nil {
		return nil, err
	}
	return t, nil
}

// Attach opens the tree at the pager's committed master record.
func Attach(pg Pager) *Tree {
	t := newTree(pg)
	t.root, t.meta = pg.Committed()
	t.commRoot = t.root
	return t
}

func newTree(pg Pager) *Tree {
	return &Tree{pg: pg, psize: pg.PageSize(),
		mut: make(map[uint64][]byte), batch: make(map[uint64][]byte)}
}

// Root returns the current (possibly uncommitted) root page id.
func (t *Tree) Root() uint64 { return t.root }

// Meta returns the current user meta word.
func (t *Tree) Meta() uint64 { return t.meta }

// SetMeta sets the user meta word committed by the next Persist.
func (t *Tree) SetMeta(m uint64) { t.meta = m }

func initPage(buf []byte, leaf bool, psize int) {
	for i := range buf {
		buf[i] = 0
	}
	if leaf {
		buf[pFlags] = 1
	}
	binary.LittleEndian.PutUint32(buf[pDataEnd:], uint32(psize))
}

func isLeaf(buf []byte) bool { return buf[pFlags] == 1 }
func count(buf []byte) int   { return int(binary.LittleEndian.Uint16(buf[pCount:])) }
func setCount(buf []byte, c int) {
	binary.LittleEndian.PutUint16(buf[pCount:], uint16(c))
}
func dataEnd(buf []byte) int { return int(binary.LittleEndian.Uint32(buf[pDataEnd:])) }
func setDataEnd(buf []byte, v int) {
	binary.LittleEndian.PutUint32(buf[pDataEnd:], uint32(v))
}

func leafKey(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[pHdr+i*leafSlot:])
}
func leafVal(buf []byte, i int) []byte {
	off := int(binary.LittleEndian.Uint16(buf[pHdr+i*leafSlot+8:]))
	ln := int(binary.LittleEndian.Uint16(buf[pHdr+i*leafSlot+10:]))
	return buf[off : off+ln]
}
func innerKey(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[pHdr+i*innerEnt:])
}
func innerChild(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[pHdr+i*innerEnt+8:])
}
func setInner(buf []byte, i int, k, c uint64) {
	binary.LittleEndian.PutUint64(buf[pHdr+i*innerEnt:], k)
	binary.LittleEndian.PutUint64(buf[pHdr+i*innerEnt+8:], c)
}

// leafFree returns the free bytes between slot directory and value heap.
func leafFree(buf []byte) int {
	return dataEnd(buf) - (pHdr + count(buf)*leafSlot)
}

// leafLowerBound returns the first slot with key >= k.
func leafLowerBound(buf []byte, k uint64) int {
	lo, hi := 0, count(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(buf, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerRoute returns the index of the child covering key k.
func innerRoute(buf []byte, k uint64) int {
	lo, hi := 0, count(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(buf, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// page returns a read-only view of page id that the caller may retain: the
// running txn's buffer if it holds one, else the batch's, otherwise a copy
// read from the pager.
func (t *Tree) page(id uint64) []byte {
	if b, ok := t.dirty(id); ok {
		return b
	}
	buf := make([]byte, t.psize)
	t.pg.ReadPage(id, buf)
	return buf
}

// dirty returns the running txn's buffer of page id if it holds one, else
// the batch's.
func (t *Tree) dirty(id uint64) ([]byte, bool) {
	if b, ok := t.mut[id]; ok {
		return b, true
	}
	b, ok := t.batch[id]
	return b, ok
}

// pathPage returns page id, level lvl of Get's path: the running txn's or the
// batch's buffer, else the committed page read into the level's kept buffer,
// where only the bytes the page's header calls live are defined.
func (t *Tree) pathPage(lvl int, id uint64) []byte {
	if b, ok := t.dirty(id); ok {
		return b
	}
	for len(t.kept) <= lvl {
		t.kept = append(t.kept, keptPage{buf: make([]byte, t.psize)})
	}
	k := &t.kept[lvl]
	k.id = id
	t.pg.ReadPage(id, k.buf)
	return k.buf
}

// keptCopy returns the kept copy of committed page id, if Get read it since
// the last Persist and has not read another page on its level since.
func (t *Tree) keptCopy(id uint64) ([]byte, bool) {
	for _, k := range t.kept {
		if k.id == id {
			return k.buf, true
		}
	}
	return nil, false
}

// Begin starts a transaction. Transactions nest the group-commit batch:
// Commit makes the txn's changes part of the batch; Persist makes the batch
// durable.
func (t *Tree) Begin() {
	if t.inTxn {
		panic("cowbtree: nested transaction")
	}
	t.inTxn = true
	t.rootAtTxn = t.root
	t.metaAtTxn = t.meta
	t.txnFree = t.txnFree[:0]
}

// Commit ends the transaction, keeping its changes in the dirty directory:
// its buffers become the batch's images. Nothing reaches the pager.
func (t *Tree) Commit() {
	if !t.inTxn {
		panic("cowbtree: Commit outside transaction")
	}
	t.reserve = t.pending()
	for id, buf := range t.mut {
		t.batch[id] = buf
	}
	clear(t.mut)
	t.batchFree = append(t.batchFree, t.txnFree...)
	t.inTxn = false
}

// Abort rolls the transaction back: the buffers of the pages it made and of
// the batch pages it shadowed are dropped, which leaves the batch's copy —
// the previous transaction's image — in force. None of them reached the
// pager.
func (t *Tree) Abort() {
	if !t.inTxn {
		panic("cowbtree: Abort outside transaction")
	}
	t.root = t.rootAtTxn
	t.meta = t.metaAtTxn
	clear(t.mut)
	t.txnFree = t.txnFree[:0]
	t.inTxn = false
}

// Persist durably commits the batch: its pages go to the pager bottom-up,
// each after the pages it names, which it names by the ids the pager gave
// them; then the pager makes them durable and installs the new master record.
// Pages superseded by the batch return to the free pool only afterwards, so
// the previously committed tree stays intact until the swap is durable; the
// pages Get kept are dropped, since a later Persist may write over them. A
// failed Persist may be retried: a page the pager took keeps its id in its
// parent's buffer, so the retry writes what was not taken and the root again
// (a root taken before the pager's own Persist failed is left to the owner's
// reachability sweep).
func (t *Tree) Persist() error {
	if t.inTxn {
		panic("cowbtree: Persist inside transaction")
	}
	for i := range t.kept {
		t.kept[i].id = 0
	}
	root, err := t.write(t.root)
	if err != nil {
		return err
	}
	if err := t.pg.Persist(root, t.meta); err != nil {
		return err
	}
	t.root, t.commRoot = root, root
	for _, id := range t.batchFree {
		t.pg.FreePage(id)
	}
	t.batchFree = t.batchFree[:0]
	clear(t.batch)
	t.reserve = 0
	return nil
}

// write hands page id to the pager, if the batch holds it, after the batch
// pages it names, and returns the id the page has from now on. Children are
// written in order, so a fixed schedule writes its pages in a fixed order:
// the order decides which cache lines stay resident, so it must repeat for
// the device counters to repeat.
func (t *Tree) write(id uint64) (uint64, error) {
	buf, ok := t.batch[id]
	if !ok {
		return id, nil
	}
	for i := 0; !isLeaf(buf) && i < count(buf); i++ {
		c, err := t.write(innerChild(buf, i))
		if err != nil {
			return 0, err
		}
		setInner(buf, i, innerKey(buf, i), c)
	}
	return t.pg.WritePage(buf)
}

// name returns a fresh provisional page id.
func (t *Tree) name() uint64 {
	t.named++
	return provisional | t.named
}

// autoTxn wraps a single operation in a transaction if none is running.
func (t *Tree) autoTxn(fn func() error) error {
	if t.inTxn {
		return fn()
	}
	t.Begin()
	if err := fn(); err != nil {
		t.Abort()
		return err
	}
	t.Commit()
	return nil
}

// Get returns the value for key k from the current directory. It keeps the
// committed pages of its path for an update of k to shadow.
func (t *Tree) Get(k uint64) ([]byte, bool) {
	buf := t.pathPage(0, t.root)
	for lvl := 1; !isLeaf(buf); lvl++ {
		buf = t.pathPage(lvl, innerChild(buf, innerRoute(buf, k)))
	}
	i := leafLowerBound(buf, k)
	if i < count(buf) && leafKey(buf, i) == k {
		v := leafVal(buf, i)
		out := make([]byte, len(v))
		copy(out, v)
		return out, true
	}
	return nil, false
}

// GetCommitted reads key k from the last persisted directory (the paper's
// "current directory"), ignoring the running batch.
func (t *Tree) GetCommitted(k uint64) ([]byte, bool) {
	saved := t.root
	t.root = t.commRoot
	defer func() { t.root = saved }()
	return t.Get(k)
}

// Put inserts or replaces k = val.
func (t *Tree) Put(k uint64, val []byte) error {
	if len(val) > t.maxValue() {
		return fmt.Errorf("%w: key %#x val %d bytes (max %d)", ErrValueTooLarge, k, len(val), t.maxValue())
	}
	return t.autoTxn(func() error { return t.put(k, val) })
}

// maxValue is the largest value that fits in a fresh leaf beside its slot.
func (t *Tree) maxValue() int { return t.psize - pHdr - 2*leafSlot }

// Delete removes key k, reporting whether it was present.
func (t *Tree) Delete(k uint64) (bool, error) {
	if _, ok := t.Get(k); !ok {
		return false, nil
	}
	err := t.autoTxn(func() error { return t.del(k) })
	return err == nil, err
}

// shadow returns a mutable buffer for page id and the id the page has from
// now on: its own if the batch already owns the page, a fresh copy's if the
// page belongs to the committed tree — of the page Get kept, if it kept it.
func (t *Tree) shadow(id uint64) (uint64, []byte) {
	if buf, ok := t.mut[id]; ok {
		return id, buf
	}
	if img, ok := t.batch[id]; ok {
		// The clone is the change; the batch's image is the rollback.
		buf := slices.Clone(img)
		t.mut[id] = buf
		return id, buf
	}
	nid, buf := t.name(), make([]byte, t.psize)
	if kept, ok := t.keptCopy(id); ok {
		copy(buf, kept)
	} else {
		t.pg.ReadPage(id, buf)
	}
	t.mut[nid] = buf
	t.txnFree = append(t.txnFree, id)
	return nid, buf
}

// newPage makes a fresh txn-mutable page.
func (t *Tree) newPage(leaf bool) (uint64, []byte) {
	id, buf := t.name(), make([]byte, t.psize)
	initPage(buf, leaf, t.psize)
	t.mut[id] = buf
	return id, buf
}

type pathEnt struct {
	id  uint64
	buf []byte
	idx int // child index taken
}

// innerFull reports whether an inner node cannot absorb a few more
// separators (leaf splits may cascade, adding up to three).
func (t *Tree) innerFull(buf []byte) bool {
	return count(buf) >= (t.psize-pHdr)/innerEnt-3
}

// splitInnerChild splits the full inner node child (at parent slot idx) and
// returns the two halves. parent must have room for the new separator.
func (t *Tree) splitInnerChild(parent []byte, idx int, child pathEnt) (left, right pathEnt, sep uint64) {
	buf := child.buf
	c := count(buf)
	mid := c / 2
	rid, rbuf := t.newPage(false)
	for i := mid; i < c; i++ {
		setInner(rbuf, i-mid, innerKey(buf, i), innerChild(buf, i))
	}
	setCount(rbuf, c-mid)
	sep = innerKey(buf, mid)
	setCount(buf, mid)
	// Link the new half into the parent.
	pc := count(parent)
	i := idx + 1
	copy(parent[pHdr+(i+1)*innerEnt:pHdr+(pc+1)*innerEnt], parent[pHdr+i*innerEnt:pHdr+pc*innerEnt])
	setInner(parent, i, sep, rid)
	setCount(parent, pc+1)
	return child, pathEnt{id: rid, buf: rbuf}, sep
}

// descend shadows the path from the root to the leaf covering k,
// preemptively splitting any full inner node on the way so a leaf split's
// separator always fits in its parent. The shadowed path is fully linked.
func (t *Tree) descend(k uint64) []pathEnt {
	id, buf := t.shadow(t.root)
	t.root = id

	// A full inner root gets a fresh root above it.
	if !isLeaf(buf) && t.innerFull(buf) {
		nid, nbuf := t.newPage(false)
		setInner(nbuf, 0, innerKey(buf, 0), id)
		setCount(nbuf, 1)
		t.splitInnerChild(nbuf, 0, pathEnt{id: id, buf: buf})
		t.root = nid
		id, buf = nid, nbuf
	}

	path := []pathEnt{{id: id, buf: buf}}
	for !isLeaf(buf) {
		idx := innerRoute(buf, k)
		child := innerChild(buf, idx)
		cid, cbuf := t.shadow(child)
		if cid != child {
			setInner(buf, idx, innerKey(buf, idx), cid)
		}
		if !isLeaf(cbuf) && t.innerFull(cbuf) {
			_, right, sep := t.splitInnerChild(buf, idx, pathEnt{id: cid, buf: cbuf})
			if k >= sep {
				idx++
				cid, cbuf = right.id, right.buf
			}
		}
		path[len(path)-1].idx = idx
		path = append(path, pathEnt{id: cid, buf: cbuf})
		id, buf = cid, cbuf
	}
	return path
}

func (t *Tree) put(k uint64, val []byte) error {
	path := t.descend(k)
	leaf := path[len(path)-1]
	if err := t.leafInsert(leaf, path, k, val); err != nil {
		return err
	}
	return t.pg.Reserve(t.pending())
}

// pending returns the pageBound of the pages the next Persist writes: the
// batch's, and the running transaction's in place of the batch pages it
// shadowed.
func (t *Tree) pending() int {
	n := t.reserve
	for id, buf := range t.mut {
		n += pageBound(buf)
		if old, ok := t.batch[id]; ok {
			n -= pageBound(old)
		}
	}
	return n
}

// leafInsert places (k, val) into the shadowed leaf, compacting or
// splitting as needed. A replace that does not grow the value overwrites it
// where it is: the leaf is the transaction's own buffer, so Abort still has
// the old value in the batch's image or on the pager.
func (t *Tree) leafInsert(leaf pathEnt, path []pathEnt, k uint64, val []byte) error {
	buf := leaf.buf
	i := leafLowerBound(buf, k)
	replacing := i < count(buf) && leafKey(buf, i) == k
	need := leafSlot + len(val)
	if replacing {
		if old := leafVal(buf, i); len(val) <= len(old) {
			copy(old, val)
			binary.LittleEndian.PutUint16(buf[pHdr+i*leafSlot+10:], uint16(len(val)))
			return nil
		}
		need = len(val) // slot already exists; old value becomes garbage
	}
	if leafFree(buf) < need {
		t.compactLeaf(buf)
		i = leafLowerBound(buf, k)
	}
	if leafFree(buf) < need {
		return t.splitLeafInsert(leaf, path, k, val)
	}
	t.leafPlace(buf, i, replacing, k, val)
	return nil
}

// leafPlace writes (k, val) at slot i (shifting if inserting).
func (t *Tree) leafPlace(buf []byte, i int, replacing bool, k uint64, val []byte) {
	c := count(buf)
	if !replacing {
		copy(buf[pHdr+(i+1)*leafSlot:pHdr+(c+1)*leafSlot], buf[pHdr+i*leafSlot:pHdr+c*leafSlot])
		setCount(buf, c+1)
	}
	end := dataEnd(buf) - len(val)
	copy(buf[end:], val)
	setDataEnd(buf, end)
	binary.LittleEndian.PutUint64(buf[pHdr+i*leafSlot:], k)
	binary.LittleEndian.PutUint16(buf[pHdr+i*leafSlot+8:], uint16(end))
	binary.LittleEndian.PutUint16(buf[pHdr+i*leafSlot+10:], uint16(len(val)))
}

// compactLeaf rewrites the value heap, dropping garbage from replaced and
// deleted values.
func (t *Tree) compactLeaf(buf []byte) {
	c := count(buf)
	type kv struct {
		k uint64
		v []byte
	}
	items := make([]kv, c)
	for i := 0; i < c; i++ {
		v := leafVal(buf, i)
		cp := make([]byte, len(v))
		copy(cp, v)
		items[i] = kv{leafKey(buf, i), cp}
	}
	initPage(buf, true, t.psize)
	for i, it := range items {
		setCount(buf, i)
		t.leafPlace(buf, i, false, it.k, it.v)
	}
	setCount(buf, c)
}

// splitLeafInsert splits a full leaf at a byte-balanced point and retries
// the insert, re-splitting the target half if variable-length values left
// it too full. The parent has room for the separators thanks to preemptive
// inner splits.
func (t *Tree) splitLeafInsert(leaf pathEnt, path []pathEnt, k uint64, val []byte) error {
	buf := leaf.buf
	c := count(buf)
	if c < 2 {
		return fmt.Errorf("%w: split of %d-entry leaf, key %#x val %d", ErrValueTooLarge, c, k, len(val))
	}
	// Byte-balanced split point: first index where the prefix reaches half
	// of the payload bytes, clamped to [1, c-1].
	total := 0
	for i := 0; i < c; i++ {
		total += leafSlot + len(leafVal(buf, i))
	}
	mid, acc := 1, leafSlot+len(leafVal(buf, 0))
	for mid < c-1 && acc < total/2 {
		acc += leafSlot + len(leafVal(buf, mid))
		mid++
	}

	rid, rbuf := t.newPage(true)
	for i := mid; i < c; i++ {
		t.leafPlace(rbuf, i-mid, false, leafKey(buf, i), leafVal(buf, i))
	}
	sep := leafKey(buf, mid)
	setCount(buf, mid)
	t.compactLeaf(buf)

	var rightPath []pathEnt
	if len(path) == 1 {
		// Leaf was the root: build a fresh root above the halves.
		nid, nbuf := t.newPage(false)
		var minKey uint64
		if count(buf) > 0 {
			minKey = leafKey(buf, 0)
		}
		setInner(nbuf, 0, minKey, leaf.id)
		setInner(nbuf, 1, sep, rid)
		setCount(nbuf, 2)
		t.root = nid
		rightPath = []pathEnt{{id: nid, buf: nbuf, idx: 1}, {id: rid, buf: rbuf}}
		path = []pathEnt{{id: nid, buf: nbuf, idx: 0}, leaf}
	} else {
		parent := path[len(path)-2]
		pbuf := parent.buf
		pc := count(pbuf)
		i := parent.idx + 1
		copy(pbuf[pHdr+(i+1)*innerEnt:pHdr+(pc+1)*innerEnt], pbuf[pHdr+i*innerEnt:pHdr+pc*innerEnt])
		setInner(pbuf, i, sep, rid)
		setCount(pbuf, pc+1)
		rightPath = append(append([]pathEnt{}, path[:len(path)-1]...), pathEnt{id: rid, buf: rbuf})
		rightPath[len(rightPath)-2].idx = i
	}

	// Retry into the correct half, re-splitting it if necessary.
	if k >= sep {
		return t.leafInsert(pathEnt{id: rid, buf: rbuf}, rightPath, k, val)
	}
	return t.leafInsert(leaf, path, k, val)
}

func (t *Tree) del(k uint64) error {
	path := t.descend(k)
	buf := path[len(path)-1].buf
	i := leafLowerBound(buf, k)
	if i >= count(buf) || leafKey(buf, i) != k {
		return fmt.Errorf("cowbtree: delete of vanished key %d", k)
	}
	c := count(buf)
	copy(buf[pHdr+i*leafSlot:pHdr+(c-1)*leafSlot], buf[pHdr+(i+1)*leafSlot:pHdr+c*leafSlot])
	setCount(buf, c-1)
	// Lazy: no merging; empty leaves are tolerated and skipped by Iter.
	return t.pg.Reserve(t.pending())
}

// Iter calls fn for each (key, value) with key >= from in ascending order
// until fn returns false.
func (t *Tree) Iter(from uint64, fn func(k uint64, v []byte) bool) {
	type frame struct {
		buf []byte
		idx int
	}
	var stack []frame
	buf := t.page(t.root)
	for !isLeaf(buf) {
		idx := innerRoute(buf, from)
		stack = append(stack, frame{buf, idx})
		buf = t.page(innerChild(buf, idx))
	}
	i := leafLowerBound(buf, from)
	for {
		c := count(buf)
		for ; i < c; i++ {
			if !fn(leafKey(buf, i), leafVal(buf, i)) {
				return
			}
		}
		// Advance to the next leaf via the stack.
		for {
			if len(stack) == 0 {
				return
			}
			top := &stack[len(stack)-1]
			top.idx++
			if top.idx < count(top.buf) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		buf = t.page(innerChild(stack[len(stack)-1].buf, stack[len(stack)-1].idx))
		for !isLeaf(buf) {
			stack = append(stack, frame{buf, 0})
			buf = t.page(innerChild(buf, 0))
		}
		i = 0
	}
}

// Reachable walks the committed tree and reports every reachable page id
// (and leaf values via onVal, if non-nil), depth first. Recovery sweeps use
// it to reclaim the dirty directory lost in a crash.
func (t *Tree) Reachable(onPage func(id uint64), onVal func(v []byte)) {
	var walk func(id uint64)
	walk = func(id uint64) {
		onPage(id)
		buf := t.page(id)
		if isLeaf(buf) {
			if onVal != nil {
				for i := 0; i < count(buf); i++ {
					onVal(leafVal(buf, i))
				}
			}
			return
		}
		for i := 0; i < count(buf); i++ {
			walk(innerChild(buf, i))
		}
	}
	walk(t.commRoot)
}

// Count returns the number of keys (test helper).
func (t *Tree) Count() int {
	n := 0
	t.Iter(0, func(uint64, []byte) bool { n++; return true })
	return n
}

// Depth returns the tree height (test/diagnostic helper).
func (t *Tree) Depth() int {
	d := 1
	buf := t.page(t.root)
	for !isLeaf(buf) {
		d++
		buf = t.page(innerChild(buf, 0))
	}
	return d
}
