package cowbtree

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// A magic seeds the master-record checksum so torn writes are detected, and
// names the format of the pages the record's root leads to: a file whose
// pages predate the column image has no master record a FilePager accepts.
// The arena's pages have always been column images.
const (
	fileMagic  = 0x434f574d45544132 // "COWMETA2"
	arenaMagic = 0x434f574d45544131 // "COWMETA1"
)

// metaSum mixes the master-record fields through an avalanching hash
// (splitmix64 finalizer per field). A plain XOR is not enough under
// 8-byte-granularity torn writes: a slot where e.g. seq changed 10→12 and
// root changed 3→5 XOR-cancels and a half-written slot would validate.
func metaSum(magic, seq, root, npages, user uint64) uint64 {
	mix := func(h, v uint64) uint64 {
		h += v + 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return h
	}
	h := magic
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
//
// Every other page has a psize-byte slot of the file, and the slot holds the
// page's image, the column image an ArenaPager's chunk holds (encode).
// WritePage writes the image padded to whole lines — the whole slot, if the
// page extends the file — and returns the id pageNo | len<<idLenShift, len
// being the image's length; ReadPage reads exactly len bytes and decodes them.
type FilePager struct {
	fs    *pmfs.FS
	f     *pmfs.File
	psize int

	seq    uint64
	root   uint64
	meta   uint64
	npages uint64   // file length in pages, including page 0
	free   []uint64 // page numbers
	codec

	// ioErr records the first ReadPage failure (the Pager interface keeps
	// it void). It is surfaced — and cleared — at the next Persist, which
	// refuses to install a master record over a tree built on a page that
	// was never read; see Persist.
	ioErr error
}

// A FilePager id is the page number below idLenShift and the image's length
// above it.
const (
	idLenShift = 40
	pageMask   = 1<<idLenShift - 1
)

const metaSlotBytes = 40 // seq, root, npages, userMeta, sum

func newFilePager(fs *pmfs.FS, f *pmfs.File, pageSize int) *FilePager {
	return &FilePager{fs: fs, f: f, psize: pageSize, codec: newCodec(pageSize)}
}

// CreateFilePager creates the backing file and an empty pager.
func CreateFilePager(fs *pmfs.FS, name string, pageSize int) (*FilePager, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	p := newFilePager(fs, f, pageSize)
	p.npages = 1
	if _, err := f.WriteAt(p.img[:pageSize], 0); err != nil {
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
	p := newFilePager(fs, f, pageSize)
	found := false
	for slot := 0; slot < 2; slot++ {
		b := hdr[slot*64:]
		le := binary.LittleEndian
		seq, root, npages := le.Uint64(b), le.Uint64(b[8:]), le.Uint64(b[16:])
		user, sum := le.Uint64(b[24:]), le.Uint64(b[32:])
		if sum == metaSum(fileMagic, seq, root, npages, user) && npages > 0 && (!found || seq > p.seq) {
			p.seq, p.root, p.npages, p.meta = seq, root, npages, user
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cowbtree: no valid master record in %q", name)
	}
	return p, nil
}

// writeMeta writes the alternate master-record slot and fsyncs it.
func (p *FilePager) writeMeta() error {
	p.seq++
	var b [metaSlotBytes]byte
	le := binary.LittleEndian
	le.PutUint64(b[0:], p.seq)
	le.PutUint64(b[8:], p.root)
	le.PutUint64(b[16:], p.npages)
	le.PutUint64(b[24:], p.meta)
	le.PutUint64(b[32:], metaSum(fileMagic, p.seq, p.root, p.npages, p.meta))
	off := int64((p.seq % 2) * 64)
	if _, err := p.f.WriteAt(b[:], off); err != nil {
		return err
	}
	return p.f.Sync()
}

// PageSize returns the page size in bytes.
func (p *FilePager) PageSize() int { return p.psize }

// PageOffset returns the file offset of page id's slot.
func (p *FilePager) PageOffset(id uint64) int64 { return int64(id&pageMask) * int64(p.psize) }

// ReadPage fills buf with page id, an id WritePage returned: it reads the
// page's image with one ReadAt and decodes it (decode). The dead gap's bytes
// in buf are undefined afterwards. A read failure, or an image that is
// malformed or whose length is not the id's, makes buf an empty leaf (so the
// caller never indexes stale bytes as a node) and is reported at the next
// Persist.
func (p *FilePager) ReadPage(id uint64, buf []byte) {
	if err := p.readImage(id, buf); err != nil {
		initPage(buf, true, len(buf))
		if p.ioErr == nil {
			p.ioErr = fmt.Errorf("page %d (%d-byte image): %w", id&pageMask, id>>idLenShift, err)
		}
	}
}

func (p *FilePager) readImage(id uint64, buf []byte) error {
	n := int(id >> idLenShift)
	if n > len(buf) {
		return fmt.Errorf("an image of %d bytes does not fit a %d-byte page", n, len(buf))
	}
	if _, err := p.f.ReadAt(p.img[:n], p.PageOffset(id)); err != nil {
		return err
	}
	size, err := p.decode(buf, func(off, m int) error {
		if off+m > n {
			return fmt.Errorf("the image runs past its %d bytes", n)
		}
		return nil
	})
	if err == nil && size != n {
		err = fmt.Errorf("a %d-byte image in %d bytes", size, n)
	}
	return err
}

// Err returns the failed or malformed page read met since the last Persist,
// if any, as ArenaPager.Err does.
func (p *FilePager) Err() error { return p.ioErr }

// WritePage writes page buf's image into a free page's slot, padded to whole
// lines, or into a new slot at the end of the file, whole, and returns the
// page's id (durable at the next Persist). A failed write takes no page.
func (p *FilePager) WritePage(buf []byte) (uint64, error) {
	no, n := p.npages, len(p.free)
	if n > 0 {
		no = p.free[n-1]
	}
	img, err := p.encode(buf)
	if err != nil {
		return 0, err
	}
	size := len(img)
	// What p.img holds past the image pads it: the bytes are never read.
	img = img[:min((size+nvm.LineSize-1)&^(nvm.LineSize-1), p.psize)]
	if n == 0 {
		img = img[:p.psize]
	}
	if _, err := p.f.WriteAt(img, p.PageOffset(no)); err != nil {
		return 0, err
	}
	if n > 0 {
		p.free = p.free[:n-1]
	} else {
		p.npages++
	}
	return no | uint64(size)<<idLenShift, nil
}

// FreePage returns a page to the free pool.
func (p *FilePager) FreePage(id uint64) { p.free = append(p.free, id&pageMask) }

// Reserve accepts any batch: the file grows at Persist.
func (p *FilePager) Reserve(int) error { return nil }

// Persist fsyncs the data pages, then installs the new master record with a
// second fsync: the shadow-paging commit protocol. If any page read failed
// since the last Persist, it refuses to commit and returns that error
// instead — the volatile tree diverged from the file and only the engine's
// crash recovery (reopen from the old master record) is safe.
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

// InitFree installs the free list from a reachability sweep's page ids:
// every page except page 0 and the reachable ones is free.
func (p *FilePager) InitFree(used map[uint64]bool) {
	inUse := make([]bool, p.npages)
	for id := range used {
		if no := id & pageMask; no < p.npages {
			inUse[no] = true
		}
	}
	p.free = p.free[:0]
	for no := uint64(1); no < p.npages; no++ {
		if !inUse[no] {
			p.free = append(p.free, no)
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
// A page chunk holds the page's image and is sized to it: its entries packed
// into a column of key deltas and a column of values, each as narrow as its
// widest entry, without slots or the value heap's garbage (encode). WritePage
// streams it into a chunk of its own with its persisted mark; ReadPage reads
// it header first and decodes it back.
type ArenaPager struct {
	arena *pmalloc.Arena
	dev   *nvm.Device
	psize int

	master pmalloc.Ptr // chunk holding two 64 B master-record slots
	seq    uint64
	root   uint64
	meta   uint64

	wrote bool // a page was streamed since the last Persist
	codec

	// ioErr records the first malformed page image ReadPage met. It is
	// surfaced — and cleared — at the next Persist, as FilePager's I/O
	// failures are.
	ioErr error
}

// CreateArenaPager allocates the master block and stores its pointer in the
// given arena root slot (the naming mechanism).
func CreateArenaPager(arena *pmalloc.Arena, rootSlot int, pageSize int) (*ArenaPager, error) {
	m, err := arena.Alloc(128, pmalloc.TagOther)
	if err != nil {
		return nil, err
	}
	p := &ArenaPager{arena: arena, dev: arena.Device(), psize: pageSize,
		master: m, codec: newCodec(pageSize)}
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
		master: m, codec: newCodec(pageSize)}
	found := false
	for slot := int64(0); slot < 2; slot++ {
		base := int64(m) + slot*64
		seq := p.dev.ReadU64(base)
		root := p.dev.ReadU64(base + 8)
		user := p.dev.ReadU64(base + 16)
		sum := p.dev.ReadU64(base + 24)
		if sum == metaSum(arenaMagic, seq, root, 1, user) && (!found || seq > p.seq) {
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
	p.dev.WriteU64(base+24, metaSum(arenaMagic, p.seq, p.root, 1, p.meta))
	p.dev.Sync(base, 32)
	return nil
}

// PageSize returns the page size in bytes.
func (p *ArenaPager) PageSize() int { return p.psize }

// ReadPage fills buf with page id, decoded from its image into the pager's
// own buffer: buf's header, slots or inner entries, and value heap, whose
// values are the live ones alone, in key order. The dead gap's bytes in buf
// are left as they were.
//
// The image is read header first, then its columns, then a length column's
// values: no field is used before it is checked, and no byte past the image
// is read, nor any outside the arena, where a malformed parent may name a
// page. An image whose header fails a check is read no further: buf becomes
// an empty leaf, and the next Persist refuses to commit.
func (p *ArenaPager) ReadPage(id uint64, buf []byte) {
	base := int64(id)
	_, err := p.decode(buf, func(off, n int) error {
		if !p.arena.Holds(pmalloc.Ptr(base), off+n) {
			return fmt.Errorf("a %d-byte image at %d overruns the arena", off+n, base)
		}
		p.dev.Read(base+int64(off), p.img[off:off+n])
		return nil
	})
	if err != nil {
		if p.ioErr == nil {
			p.ioErr = fmt.Errorf("page %d: %w", id, err)
		}
		initPage(buf, true, len(buf))
	}
}

// Err returns the malformed page image a read has met since the last
// Persist, if any. An owner walking the tree at Open checks it before it
// frees anything the walk did not reach.
func (p *ArenaPager) Err() error { return p.ioErr }

// WritePage streams page buf's image into a chunk of its size with its
// persisted mark (pmalloc.Arena.StreamPersisted), durable at the fence of the
// next Persist, and returns the chunk as the page's id. A crash before the
// master record names it leaves a persisted chunk nothing reaches, the
// owner's reachability sweep's to reclaim.
func (p *ArenaPager) WritePage(buf []byte) (uint64, error) {
	img, err := p.encode(buf)
	if err != nil {
		return 0, err
	}
	p.wrote = true
	return p.arena.StreamPersisted(pmalloc.TagTable, img)
}

// FreePage releases a page chunk.
func (p *ArenaPager) FreePage(id uint64) { p.arena.Free(pmalloc.Ptr(id)) }

// Reserve refuses a batch whose page chunks, n bytes at most, the arena
// cannot surely fit (pmalloc.Arena.Fits): no chunk is larger than a page's
// image, its header and a line's rounding.
func (p *ArenaPager) Reserve(n int) error {
	if !p.arena.Fits(int64(n), int64(pmalloc.HeaderSize+p.psize+nvm.LineSize)) {
		return pmalloc.ErrOutOfMemory
	}
	return nil
}

// pageBound is the most bytes the chunk holding page buf's image takes: a
// key delta and a value column entry of 8 bytes each per entry, a leaf's
// value heap whole, dead values included, and the chunk's header; and a line
// for its rounding and one for the heap end's. It reads the page's header
// alone.
func pageBound(buf []byte) int {
	n := imgFixed + 16 + count(buf)*16
	if isLeaf(buf) {
		n += len(buf) - min(dataEnd(buf), len(buf))
	}
	return n + pmalloc.HeaderSize + 2*nvm.LineSize
}

// Persist fences the pages streamed since the last Persist and atomically
// installs the new master record — no filesystem, no kernel crossing (§4.2).
//
// If a read met a malformed page image since the last Persist, Persist
// refuses to commit and returns that error instead, as FilePager does.
func (p *ArenaPager) Persist(root, meta uint64) error {
	if err := p.ioErr; err != nil {
		p.ioErr = nil
		return fmt.Errorf("cowbtree: malformed page image since last persist: %w", err)
	}
	if p.wrote {
		p.dev.Fence()
		p.wrote = false
	}
	p.root, p.meta = root, meta
	return p.writeMaster()
}

// Committed returns the durable master record.
func (p *ArenaPager) Committed() (root, meta uint64) { return p.root, p.meta }
