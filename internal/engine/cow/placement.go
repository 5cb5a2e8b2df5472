package cow

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/core"
	"nstore/internal/cowbtree"
	"nstore/internal/pmalloc"
)

// placement is where a tuple lives relative to the leaf that names it, and
// what follows from the answer: the leaf value, what a transaction owes the
// allocator when it ends, what a restart may reclaim, and the footprint.
type placement interface {
	// put places a new tuple image and returns the leaf value that names it.
	put(img []byte) (leaf []byte, err error)
	// get returns the image a leaf value names; !ok if it names none, and a
	// Corrupt error if it names what cannot be one.
	get(leaf []byte) (img []byte, ok bool, err error)
	// retire notes that the running transaction unlinked leaf from the tree.
	retire(leaf []byte)
	// commit and abort end the running transaction and leave its lists empty
	// for the next; persisted follows each tree.Persist, when what committed
	// transactions retired has become unreachable.
	commit()
	abort()
	persisted()
	// reclaim runs at Open: it walks the committed tree, frees the storage
	// nothing reaches, and reports the records it examined. A walk that met a
	// page it could not read frees nothing and returns a Corrupt error.
	reclaim(tr *cowbtree.Tree) (int64, error)
	footprint() core.Footprint
}

// inline is CoW's placement (§3.2): the leaf value is the tuple image, so a
// transaction owes nothing beyond its pages, which the tree tracks itself.
type inline struct{ pg *cowbtree.FilePager }

func filePlacement(env *core.Env, pageSize int, reopen bool) (cowbtree.Pager, placement, error) {
	mk := cowbtree.CreateFilePager
	if reopen {
		mk = cowbtree.OpenFilePager
	}
	pg, err := mk(env.FS, "cow.db", pageSize)
	return pg, inline{pg}, err
}

func (inline) put(img []byte) ([]byte, error)        { return img, nil }
func (inline) get(leaf []byte) ([]byte, bool, error) { return leaf, true, nil }
func (inline) retire([]byte)                         {}
func (inline) commit()                               {}
func (inline) abort()                                {}
func (inline) persisted()                            {}

// reclaim rebuilds the file's free-page list from the pages the tree reaches.
// A page the pager could not read hid the pages below it from the walk, so
// then no page is made free.
func (p inline) reclaim(tr *cowbtree.Tree) (int64, error) {
	used := make(map[uint64]bool)
	tr.Reachable(func(id uint64) { used[id] = true }, nil)
	if err := p.pg.Err(); err != nil {
		return 0, core.Corrupt(fmt.Errorf("cow: reclaim: %w", err))
	}
	p.pg.InitFree(used)
	return int64(len(used)), nil
}

// footprint: the file holds tuples and index together (Fig. 14: table storage).
func (p inline) footprint() core.Footprint { return core.Footprint{Table: p.pg.FileBytes()} }

// chunked is NVM-CoW's placement (§4.2): a tuple is persisted once as an
// allocator chunk `len u32 | image` and the leaf value is its 8-byte pointer.
type chunked struct {
	env         *core.Env
	pg          *cowbtree.ArenaPager
	txnNew      []pmalloc.Ptr // tuple copies made by the running txn
	txnOld      []pmalloc.Ptr // tuples superseded by the running txn
	pendingFree []pmalloc.Ptr // superseded tuples, freed after next Persist
}

func arenaPlacement(env *core.Env, pageSize int, reopen bool) (cowbtree.Pager, placement, error) {
	mk := cowbtree.CreateArenaPager
	if reopen {
		mk = cowbtree.OpenArenaPager
	}
	pg, err := mk(env.Arena, 0, pageSize) // anchored at root slot 0
	return pg, &chunked{env: env, pg: pg}, err
}

// put persists the image as a chunk — one buffer, streamed with its persisted
// mark (Table 2) — and leaves the fence to the pager: no leaf naming the chunk
// is durable before the Persist that fences the group's pages, and a chunk a
// crash leaves marked before that is reclaim's. A full arena is an ordinary
// error: the txn aborts.
func (c *chunked) put(img []byte) ([]byte, error) {
	buf := make([]byte, 4+len(img))
	binary.LittleEndian.PutUint32(buf, uint32(len(img)))
	copy(buf[4:], img)
	p, err := c.env.Arena.StreamPersisted(pmalloc.TagTable, buf)
	if err != nil {
		return nil, err
	}
	c.txnNew = append(c.txnNew, p)
	return binary.LittleEndian.AppendUint64(nil, p), nil
}

// get follows the leaf's pointer. The pointer and the length word behind it
// come from the image: what does not fit in the arena is reported, not read.
func (c *chunked) get(leaf []byte) ([]byte, bool, error) {
	if len(leaf) != 8 {
		return nil, false, nil
	}
	p := binary.LittleEndian.Uint64(leaf)
	if !c.env.Arena.Holds(p, 4) {
		return nil, false, core.Corrupt(fmt.Errorf("nvm-cow: leaf names a tuple at %d, outside the arena", p))
	}
	n := int(c.env.Dev.ReadU32(int64(p)))
	if !c.env.Arena.Holds(p, 4+n) {
		return nil, false, core.Corrupt(fmt.Errorf("nvm-cow: tuple chunk %d claims %d bytes", p, n))
	}
	img := make([]byte, n)
	c.env.Dev.Read(int64(p)+4, img)
	return img, true, nil
}

func (c *chunked) retire(leaf []byte) {
	c.txnOld = append(c.txnOld, binary.LittleEndian.Uint64(leaf))
}

func (c *chunked) commit() {
	c.pendingFree = append(c.pendingFree, c.txnOld...)
	c.txnNew, c.txnOld = c.txnNew[:0], c.txnOld[:0]
}

func (c *chunked) abort() {
	c.free(c.txnNew)
	c.txnNew, c.txnOld = c.txnNew[:0], c.txnOld[:0]
}

func (c *chunked) persisted() {
	c.free(c.pendingFree)
	c.pendingFree = c.pendingFree[:0]
}

// free skips a chunk already freed: one transaction may place and retire it.
func (c *chunked) free(ps []pmalloc.Ptr) {
	for _, p := range ps {
		if c.env.Arena.StateOf(p) != pmalloc.StateFree {
			c.env.Arena.Free(p)
		}
	}
}

// reclaim frees the pages and tuple copies orphaned by the crash — persisted
// table chunks the tree does not reach — once the walk has seen every chunk.
// A page the pager could not decode hid the tuples it names from the walk, so
// then nothing is freed.
func (c *chunked) reclaim(tr *cowbtree.Tree) (int64, error) {
	reach := make(map[uint64]bool)
	tr.Reachable(func(id uint64) { reach[id] = true }, func(v []byte) {
		if len(v) == 8 {
			reach[binary.LittleEndian.Uint64(v)] = true
		}
	})
	if err := c.pg.Err(); err != nil {
		return 0, core.Corrupt(fmt.Errorf("nvm-cow: reclaim: %w", err))
	}
	chunks, walked := core.PersistedChunks(c.env.Arena)
	core.FreeOrphans(c.env.Arena, chunks, func(ch core.Chunk) bool { return ch.Tag == pmalloc.TagTable && !reach[ch.P] })
	return int64(len(reach) + walked), nil
}

// footprint: directory pages and tuples are both chunks tagged table storage.
func (c *chunked) footprint() core.Footprint { return core.ArenaFootprint(c.env.Arena) }
