package cowbtree

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// metaMagic seeds the master-record checksum so torn writes are detected.
const metaMagic = 0x434f574d45544131 // "COWMETA1"

// metaSum mixes the master-record fields through an avalanching hash
// (splitmix64 finalizer per field). A plain XOR is not enough under
// 8-byte-granularity torn writes: a slot where e.g. seq changed 10→12 and
// root changed 3→5 XOR-cancels and a half-written slot would validate.
func metaSum(seq, root, npages, user uint64) uint64 {
	mix := func(h, v uint64) uint64 {
		h += v + 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return h
	}
	h := uint64(metaMagic)
	h = mix(h, seq)
	h = mix(h, root)
	h = mix(h, npages)
	h = mix(h, user)
	return h
}

// FilePager stores pages in a pmfs file, the way the CoW engine keeps its
// copy-on-write B+tree "on the filesystem" (§3.2). Page 0 holds two
// checksummed master-record slots written alternately; the master record is
// "located at a fixed offset within the file".
type FilePager struct {
	fs    *pmfs.FS
	f     *pmfs.File
	psize int

	seq    uint64
	root   uint64
	meta   uint64
	npages uint64 // file length in pages, including page 0
	free   []uint64

	// ioErr records the first ReadPage/WritePage failure (the Pager
	// interface keeps those void). It is surfaced — and cleared — at the
	// next Persist, which refuses to install a master record over pages
	// that were never written; see Persist.
	ioErr error
}

const metaSlotBytes = 40 // seq, root, npages, userMeta, sum

// CreateFilePager creates the backing file and an empty pager.
func CreateFilePager(fs *pmfs.FS, name string, pageSize int) (*FilePager, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	p := &FilePager{fs: fs, f: f, psize: pageSize, npages: 1}
	zero := make([]byte, pageSize)
	if _, err := f.WriteAt(zero, 0); err != nil {
		return nil, err
	}
	if err := p.writeMeta(); err != nil {
		return nil, err
	}
	return p, nil
}

// OpenFilePager opens an existing pager, picking the newest valid master
// record, and rebuilds nothing: free pages are installed later by the
// owner's reachability sweep (InitFree).
func OpenFilePager(fs *pmfs.FS, name string, pageSize int) (*FilePager, error) {
	f, err := fs.OpenFile(name)
	if err != nil {
		return nil, err
	}
	var hdr [2 * 64]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	p := &FilePager{fs: fs, f: f, psize: pageSize}
	found := false
	for slot := 0; slot < 2; slot++ {
		b := hdr[slot*64:]
		seq := le64(b, 0)
		root := le64(b, 8)
		npages := le64(b, 16)
		user := le64(b, 24)
		sum := le64(b, 32)
		if sum == metaSum(seq, root, npages, user) && npages > 0 && (!found || seq > p.seq) {
			p.seq, p.root, p.npages, p.meta = seq, root, npages, user
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cowbtree: no valid master record in %q", name)
	}
	return p, nil
}

func le64(b []byte, off int) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[off+i])
	}
	return v
}

func putLE64(b []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}

// writeMeta writes the alternate master-record slot and fsyncs it.
func (p *FilePager) writeMeta() error {
	p.seq++
	var b [metaSlotBytes]byte
	putLE64(b[:], 0, p.seq)
	putLE64(b[:], 8, p.root)
	putLE64(b[:], 16, p.npages)
	putLE64(b[:], 24, p.meta)
	putLE64(b[:], 32, metaSum(p.seq, p.root, p.npages, p.meta))
	off := int64((p.seq % 2) * 64)
	if _, err := p.f.WriteAt(b[:], off); err != nil {
		return err
	}
	return p.f.Sync()
}

// PageSize returns the page size in bytes.
func (p *FilePager) PageSize() int { return p.psize }

// ReadPage fills buf with page id's contents. A read failure zeroes buf
// (so the caller never parses stale bytes as a node) and is reported at the
// next Persist.
func (p *FilePager) ReadPage(id uint64, buf []byte) {
	if _, err := p.f.ReadAt(buf, int64(id)*int64(p.psize)); err != nil {
		for i := range buf {
			buf[i] = 0
		}
		if p.ioErr == nil {
			p.ioErr = err
		}
	}
}

// WritePage stores buf as page id's contents (durable at the next Persist).
// A write failure (e.g. disk full while growing the file) is reported at
// the next Persist, which will refuse to commit.
func (p *FilePager) WritePage(id uint64, buf []byte) {
	if _, err := p.f.WriteAt(buf, int64(id)*int64(p.psize)); err != nil {
		if p.ioErr == nil {
			p.ioErr = err
		}
	}
}

// AllocPage returns a free page, growing the file if necessary.
func (p *FilePager) AllocPage() (uint64, error) {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id, nil
	}
	id := p.npages
	zero := make([]byte, p.psize)
	if _, err := p.f.WriteAt(zero, int64(id)*int64(p.psize)); err != nil {
		return 0, err
	}
	p.npages++
	return id, nil
}

// FreePage returns a page to the free pool.
func (p *FilePager) FreePage(id uint64) { p.free = append(p.free, id) }

// Persist fsyncs the data pages, then installs the new master record with a
// second fsync: the shadow-paging commit protocol. If any page write or
// read failed since the last Persist, it refuses to commit and returns that
// error instead — the volatile tree diverged from the file and only the
// engine's crash recovery (reopen from the old master record) is safe.
func (p *FilePager) Persist(root, meta uint64) error {
	if err := p.ioErr; err != nil {
		p.ioErr = nil
		return fmt.Errorf("cowbtree: page I/O failed since last persist: %w", err)
	}
	if err := p.f.Sync(); err != nil {
		return err
	}
	p.root, p.meta = root, meta
	return p.writeMeta()
}

// Committed returns the durable master record.
func (p *FilePager) Committed() (root, meta uint64) { return p.root, p.meta }

// InitFree installs the free list from a reachability sweep: every page
// except page 0 and the reachable set is free.
func (p *FilePager) InitFree(used map[uint64]bool) {
	p.free = p.free[:0]
	for id := uint64(1); id < p.npages; id++ {
		if !used[id] {
			p.free = append(p.free, id)
		}
	}
}

// FileBytes returns the durable size of the backing file (Fig. 14).
func (p *FilePager) FileBytes() int64 { return p.f.Size() }

// ArenaPager stores pages as allocator chunks and the master record as a
// pair of checksummed slots updated with the sync primitive — the NVM-CoW
// engine's "non-volatile copy-on-write B+tree using the allocator
// interface" with its efficiently-updatable master record (§4.2).
//
// A page chunk holds one of two images, picked per page from its contents
// at WritePage. A leaf whose values all have one width is packed: its
// entries alone, without slots or the value heap's garbage. Any other page
// (inner pages, leaves that mix widths) keeps its slotted layout, of which
// only the live spans move.
type ArenaPager struct {
	arena *pmalloc.Arena
	dev   *nvm.Device
	psize int

	master pmalloc.Ptr // chunk holding two 64 B master-record slots
	seq    uint64
	root   uint64
	meta   uint64

	dirty map[uint64]bool // pages written since the last Persist
	img   []byte          // one page: a packed image on its way to or from the medium

	// ioErr records the first malformed page image ReadPage met. It is
	// surfaced — and cleared — at the next Persist, as FilePager's I/O
	// failures are.
	ioErr error
}

// Packed leaf image:
//
//	+0  flags (2 = packed leaf)
//	+2  count (u16)
//	+4  width (u32): the length of every value
//	+8  count × (key u64 | value[width]), in key order
//
// It decodes into the slotted page the tree works on, with the value heap
// compacted. A slotted page's flags are 0 or 1, so the first byte tells the
// two images apart.
const (
	packedLeaf = 2
	packedEnt  = 8 // key bytes of a packed entry; the value follows
)

// packLeaf appends the packed image of page buf to dst, if buf is a leaf
// whose values all have one width (an empty leaf has width 0).
func packLeaf(dst, buf []byte) ([]byte, bool) {
	if !isLeaf(buf) {
		return dst, false
	}
	n, w := count(buf), 0
	if n > 0 {
		w = len(leafVal(buf, 0))
	}
	for i := 1; i < n; i++ {
		if len(leafVal(buf, i)) != w {
			return dst, false
		}
	}
	dst = append(dst, packedLeaf, 0)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	for i := 0; i < n; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, leafKey(buf, i))
		dst = append(dst, leafVal(buf, i)...)
	}
	return dst, true
}

// packedShape returns the entry count and value width a packed header
// announces, or an error if the slotted page they decode into — larger than
// the image, by a slot's offset and length per entry — would overrun a page
// of psize bytes.
func packedShape(hdr []byte, psize int) (n, w int, err error) {
	n, w = count(hdr), int(binary.LittleEndian.Uint32(hdr[pDataEnd:]))
	if pHdr+n*(leafSlot+w) > psize {
		return 0, 0, fmt.Errorf("packed leaf of %d × %d-byte values overruns a %d-byte page", n, w, psize)
	}
	return n, w, nil
}

// unpackLeaf decodes the entries of a packed image, n values of width w,
// into buf as a slotted leaf whose heap holds the values alone, in key order.
// Every lookup through a packed leaf runs it whole, so each slot is written
// with two stores.
func unpackLeaf(buf, ents []byte, n, w int) {
	heap := len(buf) - n*w
	slots, vals := buf[pHdr:pHdr+n*leafSlot], buf[heap:]
	for i := 0; i < n; i++ {
		e := ents[i*(packedEnt+w):][:packedEnt+w]
		s := slots[i*leafSlot:][:leafSlot]
		copy(vals[i*w:], e[packedEnt:])
		binary.LittleEndian.PutUint64(s, binary.LittleEndian.Uint64(e))
		binary.LittleEndian.PutUint32(s[8:], uint32(heap+i*w)|uint32(w)<<16) // valOff, valLen
	}
	buf[pFlags], buf[pFlags+1] = 1, 0
	setCount(buf, n)
	setDataEnd(buf, heap)
}

// CreateArenaPager allocates the master block and stores its pointer in the
// given arena root slot (the naming mechanism).
func CreateArenaPager(arena *pmalloc.Arena, rootSlot int, pageSize int) (*ArenaPager, error) {
	m, err := arena.Alloc(128, pmalloc.TagOther)
	if err != nil {
		return nil, err
	}
	p := &ArenaPager{arena: arena, dev: arena.Device(), psize: pageSize,
		master: m, dirty: make(map[uint64]bool), img: make([]byte, 0, pageSize)}
	zero := make([]byte, 128)
	p.dev.Write(int64(m), zero)
	p.dev.Sync(int64(m), 128)
	arena.SetPersisted(m)
	if err := p.writeMaster(); err != nil {
		return nil, err
	}
	arena.SetRoot(rootSlot, m)
	return p, nil
}

// OpenArenaPager reopens the pager anchored at the given arena root slot.
func OpenArenaPager(arena *pmalloc.Arena, rootSlot int, pageSize int) (*ArenaPager, error) {
	m := arena.Root(rootSlot)
	if m == 0 {
		return nil, fmt.Errorf("cowbtree: arena root slot %d empty", rootSlot)
	}
	p := &ArenaPager{arena: arena, dev: arena.Device(), psize: pageSize,
		master: m, dirty: make(map[uint64]bool), img: make([]byte, 0, pageSize)}
	found := false
	for slot := int64(0); slot < 2; slot++ {
		base := int64(m) + slot*64
		seq := p.dev.ReadU64(base)
		root := p.dev.ReadU64(base + 8)
		user := p.dev.ReadU64(base + 16)
		sum := p.dev.ReadU64(base + 24)
		if sum == metaSum(seq, root, 1, user) && (!found || seq > p.seq) {
			p.seq, p.root, p.meta = seq, root, user
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cowbtree: no valid master record at %d", m)
	}
	return p, nil
}

// writeMaster writes the alternate master slot with the sync primitive. A
// slot fits one cache line, so the update is a single-line atomic durable
// write guarded by a checksum.
func (p *ArenaPager) writeMaster() error {
	p.seq++
	base := int64(p.master) + int64(p.seq%2)*64
	p.dev.WriteU64(base, p.seq)
	p.dev.WriteU64(base+8, p.root)
	p.dev.WriteU64(base+16, p.meta)
	p.dev.WriteU64(base+24, metaSum(p.seq, p.root, 1, p.meta))
	p.dev.Sync(base, 32)
	return nil
}

// PageSize returns the page size in bytes.
func (p *ArenaPager) PageSize() int { return p.psize }

// ReadPage fills buf with page id from its header on. A packed leaf's
// entries are read into the pager's own buffer and decoded into buf; of a
// slotted page, the two spans around the dead gap the header describes are
// read, and the gap's bytes in buf are left as they were.
//
// A packed header whose entries would overrun the page is read no further:
// buf becomes an empty leaf, and the next Persist refuses to commit.
func (p *ArenaPager) ReadPage(id uint64, buf []byte) {
	p.dev.Read(int64(id), buf[:pHdr])
	if buf[pFlags] == packedLeaf {
		n, w, err := packedShape(buf, len(buf))
		if err != nil {
			if p.ioErr == nil {
				p.ioErr = fmt.Errorf("page %d: %w", id, err)
			}
			initPage(buf, true, len(buf))
			return
		}
		ents := p.img[:n*(packedEnt+w)]
		p.dev.Read(int64(id)+pHdr, ents)
		unpackLeaf(buf, ents, n, w)
		return
	}
	lo, hi := deadGap(buf)
	p.dev.Read(int64(id)+pHdr, buf[pHdr:lo])
	p.dev.Read(int64(id)+int64(hi), buf[hi:])
}

// Err returns the malformed page image a read has met since the last
// Persist, if any. An owner walking the tree at Open checks it before it
// frees anything the walk did not reach.
func (p *ArenaPager) Err() error { return p.ioErr }

// WritePage streams page buf into the page chunk, durable at the fence of the
// next Persist: packed if it is a leaf of one value width, else its live
// bytes. The dead gap is skipped from the first device cache-line boundary
// inside it to the last (page chunks are 16-byte, not line, aligned), so the
// lines the two spans end in are written whole.
func (p *ArenaPager) WritePage(id uint64, buf []byte) {
	p.dirty[id] = true
	base := int64(id)
	if img, ok := packLeaf(p.img[:0], buf); ok {
		p.dev.WriteStream(base, img)
		return
	}
	lo, hi := deadGap(buf)
	lo = int((base+int64(lo)+nvm.LineSize-1)&^(nvm.LineSize-1) - base)
	if hi < len(buf) {
		hi = int((base+int64(hi))&^(nvm.LineSize-1) - base)
	}
	if lo >= hi {
		p.dev.WriteStream(base, buf)
		return
	}
	p.dev.WriteStream(base, buf[:lo])
	p.dev.WriteStream(base+int64(hi), buf[hi:])
}

// AllocPage allocates a page chunk. It stays in the allocated (reclaimable)
// state until the Persist that makes it reachable.
func (p *ArenaPager) AllocPage() (uint64, error) {
	ptr, err := p.arena.Alloc(p.psize, pmalloc.TagTable)
	if err != nil {
		return 0, err
	}
	return ptr, nil
}

// FreePage releases a page chunk.
func (p *ArenaPager) FreePage(id uint64) {
	delete(p.dirty, id)
	p.arena.Free(pmalloc.Ptr(id))
}

// Persist fences the pages streamed since the last Persist, marks the new
// ones persisted with one more fence, and atomically installs the new master
// record — no filesystem, no kernel crossing (§4.2). A crash before the
// master record leaves the old tree: pages marked persisted that it does not
// reach are the owner's reachability sweep's to reclaim, as they were when
// each page was fenced and marked on its own.
//
// If a read met a malformed page image since the last Persist, Persist
// refuses to commit and returns that error instead, as FilePager does.
func (p *ArenaPager) Persist(root, meta uint64) error {
	if err := p.ioErr; err != nil {
		p.ioErr = nil
		return fmt.Errorf("cowbtree: malformed page image since last persist: %w", err)
	}
	var fresh []pmalloc.Ptr
	for _, id := range sortedKeys(p.dirty) {
		if p.arena.StateOf(pmalloc.Ptr(id)) == pmalloc.StateAllocated {
			fresh = append(fresh, pmalloc.Ptr(id))
		}
	}
	if len(p.dirty) > 0 {
		p.dev.Fence()
	}
	if len(fresh) > 0 {
		p.arena.SetPersisted(fresh...)
	}
	clear(p.dirty)
	p.root, p.meta = root, meta
	return p.writeMaster()
}

// Committed returns the durable master record.
func (p *ArenaPager) Committed() (root, meta uint64) { return p.root, p.meta }
