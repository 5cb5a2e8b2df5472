package cowbtree

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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
//
// Every other page has a psize-byte slot of the file, and the slot holds the
// page's image: the header and the inner entries of an inner page; the
// header and the slot directory of a leaf, followed directly by its value
// heap [dataEnd, psize), holes left by replaced or deleted values included.
// WritePage writes the image padded to whole lines — the whole slot, if the
// page extends the file — and returns the id pageNo | len<<idLenShift, len
// being the image's length; ReadPage reads exactly len bytes and moves the
// heap back to the end of the page.
type FilePager struct {
	fs    *pmfs.FS
	f     *pmfs.File
	psize int

	seq    uint64
	root   uint64
	meta   uint64
	npages uint64   // file length in pages, including page 0
	free   []uint64 // page numbers
	img    []byte   // a leaf's image on its way to the file

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
	return &FilePager{fs: fs, f: f, psize: pageSize, img: make([]byte, pageSize)}
}

// CreateFilePager creates the backing file and an empty pager.
func CreateFilePager(fs *pmfs.FS, name string, pageSize int) (*FilePager, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	p := newFilePager(fs, f, pageSize)
	p.npages = 1
	if _, err := f.WriteAt(p.img, 0); err != nil {
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

// PageOffset returns the file offset of page id's slot.
func (p *FilePager) PageOffset(id uint64) int64 { return int64(id&pageMask) * int64(p.psize) }

// ReadPage fills buf with page id, an id WritePage returned: it reads the
// page's image with one ReadAt and moves a leaf's value heap back to the end
// of buf. The dead gap's bytes in buf are undefined afterwards. A read
// failure, a length the page's header disagrees with, or a page whose
// entries overrun it, makes buf an empty leaf (so the caller never indexes
// stale bytes as a node) and is reported at the next Persist.
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
	if n < pHdr || n > len(buf) {
		return fmt.Errorf("an image of %d bytes does not fit a %d-byte page", n, len(buf))
	}
	if _, err := p.f.ReadAt(buf[:n], p.PageOffset(id)); err != nil {
		return err
	}
	if isLeaf(buf) {
		// With n at most len(buf), a length that matches also puts the heap
		// after the slots.
		slots, heap := pHdr+count(buf)*leafSlot, dataEnd(buf)
		if heap > len(buf) || slots+len(buf)-heap != n {
			return fmt.Errorf("a leaf of %d slots and a heap at %d has no %d-byte image", count(buf), heap, n)
		}
		copy(buf[heap:], buf[slots:n])
	} else if pHdr+count(buf)*innerEnt != n {
		return fmt.Errorf("%d inner entries have no %d-byte image", count(buf), n)
	}
	return checkSlotted(buf)
}

// image returns page buf's image: buf's own bytes for an inner page,
// the slot directory and value heap gathered in p.img for a leaf.
func (p *FilePager) image(buf []byte) []byte {
	if !isLeaf(buf) {
		return buf[:pHdr+count(buf)*innerEnt]
	}
	slots := pHdr + count(buf)*leafSlot
	n := copy(p.img, buf[:slots])
	n += copy(p.img[n:], buf[dataEnd(buf):])
	return p.img[:n]
}

// checkSlotted reports a slotted page whose count, value heap or value slots
// reach past its end.
func checkSlotted(buf []byte) error {
	n := count(buf)
	if !isLeaf(buf) {
		if pHdr+n*innerEnt > len(buf) {
			return fmt.Errorf("%d inner entries overrun a %d-byte page", n, len(buf))
		}
		return nil
	}
	if pHdr+n*leafSlot > dataEnd(buf) || dataEnd(buf) > len(buf) {
		return fmt.Errorf("%d leaf slots and a heap at %d overrun a %d-byte page", n, dataEnd(buf), len(buf))
	}
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint16(buf[pHdr+i*leafSlot+8:]))
		if ln := int(binary.LittleEndian.Uint16(buf[pHdr+i*leafSlot+10:])); off+ln > len(buf) {
			return fmt.Errorf("leaf value %d at [%d,%d) overruns a %d-byte page", i, off, off+ln, len(buf))
		}
	}
	return nil
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
	img := p.image(buf)
	size := len(img)
	// What buf or p.img holds past the image pads it: the bytes are never read.
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
// widest entry, without slots or the value heap's garbage. WritePage encodes
// it from the slotted page the tree works on and streams it into a chunk of
// its own with its persisted mark; ReadPage decodes it back.
type ArenaPager struct {
	arena *pmalloc.Arena
	dev   *nvm.Device
	psize int

	master pmalloc.Ptr // chunk holding two 64 B master-record slots
	seq    uint64
	root   uint64
	meta   uint64

	wrote bool     // a page was streamed since the last Persist
	img   []byte   // one page image on its way to or from the medium, and 8 bytes of slack
	keys  []uint64 // WritePage's key column before it is coded
	vals  []uint64 // and its value column, when the values are coded

	// ioErr records the first malformed page image ReadPage met. It is
	// surfaced — and cleared — at the next Persist, as FilePager's I/O
	// failures are.
	ioErr error
}

// Page image, of every page a chunk holds:
//
//	+0   flags (u8): imgLeaf, imgFOR, imgLens
//	+1   kw (u8, ≤ 8): the width of a key delta
//	+2   count (u16)
//	+4   vw (u16): the width of a value column entry
//	+6   shift (u8, < 64 under imgFOR)
//	+7   0
//	+8   key base (u64)
//	+16  value base (u64), under imgFOR only
//	     count × (key - key base), kw bytes each, in page order
//	     count × value column entry, vw bytes each
//	     under imgLens, the values back to back
//
// A value column entry is one of three things. Under imgFOR — an inner page,
// whose values are child ids, or a leaf whose values are all 8 bytes wide, as
// NVM-CoW's tuple pointers are — it is (value - value base) >> shift, with vw
// ≤ 8: chunk addresses are 16-byte aligned and close together. Under imgLens,
// a leaf that mixes value widths, it is a value's length (vw ≤ 8), and the
// values follow the column. Otherwise it is the value itself, vw bytes, all
// of the leaf's values being that wide (the empty values of secondary-index
// entries: vw = 0).
//
// An image decodes into the slotted page the tree works on, with the value
// heap compacted.
const (
	imgLeaf = 1 << iota // a leaf; else an inner page, always imgFOR
	imgFOR              // values frame-of-reference coded
	imgLens             // a length column, then the values

	imgFixed = 8 // the header up to the key base
)

// imgHead returns the length of an image's header: its fixed part, the key
// base, and under imgFOR the value base.
func imgHead(flags byte) int {
	if flags&imgFOR != 0 {
		return imgFixed + 16
	}
	return imgFixed + 8
}

// byteWidth returns the bytes needed to hold x.
func byteWidth(x uint64) int { return (bits.Len64(x) + 7) / 8 }

// column is an image's column of w-byte entries, w ≤ 8, entry i standing for
// base + entry << shift. Its bytes run at least 8 past each entry's start, so
// an entry is read as one 8-byte load and masked.
type column struct {
	b          []byte
	w          int
	mask, base uint64
	shift      int
}

func newColumn(b []byte, w int, base uint64, shift int) column {
	return column{b: b, w: w, mask: 1<<(8*w) - 1, base: base, shift: shift}
}

// at returns entry i. The shift is < 64, so masking it with 63 changes
// nothing but spares the shift its range check.
func (c column) at(i int) uint64 {
	return c.base + (binary.LittleEndian.Uint64(c.b[i*c.w:])&c.mask)<<(c.shift&63)
}

// appendW appends the low w bytes of v, w ≤ 8, to b.
func appendW(b []byte, v uint64, w int) []byte {
	return binary.LittleEndian.AppendUint64(b, v)[:len(b)+w]
}

// frame returns the base and shift that code col as (v - base) >> shift, with
// a shift only if shifted is set, and the byte width of the widest code. Two
// entries' difference and their XOR end in the same number of zero bits, so
// the shift is read off the XORs with the first entry.
func frame(col []uint64, shifted bool) (base uint64, shift, w int) {
	if len(col) == 0 {
		return 0, 0, 0
	}
	base, hi, low := col[0], col[0], uint64(0)
	for _, v := range col {
		base, hi, low = min(base, v), max(hi, v), low|(v^col[0])
	}
	if shifted && low != 0 {
		shift = bits.TrailingZeros64(low)
	}
	return base, shift, byteWidth((hi - base) >> shift)
}

// encode returns page buf's image, built in p.img.
func (p *ArenaPager) encode(buf []byte) []byte {
	n, leaf := count(buf), isLeaf(buf)
	keys, vals := p.keys[:0], p.vals[:0]
	flags, vw := byte(imgFOR), 0 // vw: the widest value, until it is a column's width
	if leaf {
		flags = imgLeaf
	}
	for i := 0; i < n; i++ {
		if !leaf {
			keys, vals = append(keys, innerKey(buf, i)), append(vals, innerChild(buf, i))
			continue
		}
		v := leafVal(buf, i)
		keys = append(keys, leafKey(buf, i))
		if i > 0 && len(v) != vw {
			flags |= imgLens
		}
		if vw = max(vw, len(v)); len(v) == 8 {
			vals = append(vals, binary.LittleEndian.Uint64(v))
		}
	}
	if flags == imgLeaf && vw == 8 {
		flags |= imgFOR
	}
	p.keys, p.vals = keys, vals
	kbase, _, kw := frame(keys, false)
	var vbase uint64
	var shift int
	switch {
	case flags&imgFOR != 0:
		vbase, shift, vw = frame(vals, true)
	case flags&imgLens != 0:
		vw = byteWidth(uint64(vw))
	}

	img := append(p.img[:0], flags, byte(kw))
	img = binary.LittleEndian.AppendUint16(img, uint16(n))
	img = binary.LittleEndian.AppendUint16(img, uint16(vw))
	img = append(img, byte(shift), 0)
	img = binary.LittleEndian.AppendUint64(img, kbase)
	if flags&imgFOR != 0 {
		img = binary.LittleEndian.AppendUint64(img, vbase)
	}
	for _, k := range keys {
		img = appendW(img, k-kbase, kw)
	}
	if flags&imgFOR != 0 {
		for _, v := range vals {
			img = appendW(img, (v-vbase)>>shift, vw)
		}
		return img
	}
	for i := 0; flags&imgLens != 0 && i < n; i++ {
		img = appendW(img, uint64(len(leafVal(buf, i))), vw)
	}
	for i := 0; i < n; i++ {
		img = append(img, leafVal(buf, i)...)
	}
	return img
}

// imgHeader is an image's fixed header, checked.
type imgHeader struct {
	flags            byte
	kw, n, vw, shift int
}

// parseHeader reads an image's fixed header and checks every field against
// a page of psize bytes: the flags, the widths, the shift, and the count —
// by the bytes its columns take in the chunk and the slotted page they decode
// into takes in the tree's buffer, values included unless a length column has
// yet to say how long they are. It returns the header and the length of the
// image up to the end of its value column.
func parseHeader(b []byte, psize int) (h imgHeader, end int, err error) {
	h = imgHeader{flags: b[0], kw: int(b[1]), n: int(binary.LittleEndian.Uint16(b[2:])),
		vw: int(binary.LittleEndian.Uint16(b[4:])), shift: int(b[6])}
	leaf, coded, lens := h.flags&imgLeaf != 0, h.flags&imgFOR != 0, h.flags&imgLens != 0
	switch {
	case h.flags&^(imgLeaf|imgFOR|imgLens) != 0 || coded && lens || !leaf && !coded:
		return h, 0, fmt.Errorf("flags %#x name no page", h.flags)
	case h.kw > 8:
		return h, 0, fmt.Errorf("%d-byte key deltas", h.kw)
	case (coded || lens) && h.vw > 8:
		return h, 0, fmt.Errorf("%d-byte value column entries", h.vw)
	case coded && h.shift >= 64:
		return h, 0, fmt.Errorf("values shifted by %d", h.shift)
	}
	end = imgHead(h.flags) + h.n*(h.kw+h.vw)
	page := pHdr + h.n*innerEnt
	switch {
	case leaf && coded:
		page = pHdr + h.n*(leafSlot+8)
	case leaf && lens:
		page = pHdr + h.n*leafSlot
	case leaf:
		page = pHdr + h.n*(leafSlot+h.vw)
	}
	if end > psize || page > psize {
		return h, 0, fmt.Errorf("%d entries (flags %#x) overrun a %d-byte page", h.n, h.flags, psize)
	}
	return h, end, nil
}

// readImage reads page base's image from the medium into p.img, header first,
// and decodes it into buf. No field is used before it is checked, and no byte
// past the image is read; nor any outside the arena, where a malformed parent
// may name a page.
func (p *ArenaPager) readImage(base int64, buf []byte) error {
	if !p.arena.Holds(pmalloc.Ptr(base), imgFixed) {
		return fmt.Errorf("no page chunk fits at %d", base)
	}
	p.dev.Read(base, p.img[:imgFixed])
	h, end, err := parseHeader(p.img, len(buf))
	if err != nil {
		return err
	}
	if !p.arena.Holds(pmalloc.Ptr(base), end) {
		return fmt.Errorf("a %d-byte image at %d overruns the arena", end, base)
	}
	p.dev.Read(base+imgFixed, p.img[imgFixed:end])
	head, coded, lens := imgHead(h.flags), h.flags&imgFOR != 0, h.flags&imgLens != 0
	keys := newColumn(p.img[head:], h.kw, binary.LittleEndian.Uint64(p.img[imgFixed:]), 0)
	raw := p.img[head+h.n*h.kw:] // the value column
	vals := newColumn(raw, h.vw, 0, 0)
	if coded {
		vals = newColumn(raw, h.vw, binary.LittleEndian.Uint64(p.img[imgFixed+8:]), h.shift)
	}
	if h.flags&imgLeaf == 0 {
		for i, e := 0, buf[pHdr:pHdr+h.n*innerEnt]; i < h.n; i, e = i+1, e[innerEnt:] {
			binary.LittleEndian.PutUint64(e, keys.at(i))
			binary.LittleEndian.PutUint64(e[8:], vals.at(i))
		}
		buf[pFlags], buf[pFlags+1] = 0, 0
		setCount(buf, h.n)
		setDataEnd(buf, len(buf))
		return nil
	}

	size := h.n * h.vw // the values' bytes
	switch {
	case coded:
		size = h.n * 8
	case lens:
		size = 0
		for i := 0; i < h.n; i++ {
			size += int(min(vals.at(i), uint64(len(buf))))
		}
		if end+size > len(buf) || pHdr+h.n*leafSlot+size > len(buf) || !p.arena.Holds(pmalloc.Ptr(base), end+size) {
			return fmt.Errorf("%d values of %d bytes overrun a %d-byte page", h.n, size, len(buf))
		}
		p.dev.Read(base+int64(end), p.img[end:end+size])
		raw = p.img[end:]
	}
	heap := len(buf) - size
	off, voff := heap, 0 // where the next value goes in buf, and where it is in raw
	for i, s := 0, buf[pHdr:pHdr+h.n*leafSlot]; i < h.n; i, s = i+1, s[leafSlot:] {
		binary.LittleEndian.PutUint64(s, keys.at(i))
		w := h.vw
		switch {
		case coded:
			binary.LittleEndian.PutUint64(buf[off:], vals.at(i))
			w = 8
		case lens:
			w = int(vals.at(i))
			fallthrough
		default:
			copy(buf[off:off+w], raw[voff:])
			voff += w
		}
		binary.LittleEndian.PutUint32(s[8:], uint32(off)|uint32(w)<<16) // valOff, valLen
		off += w
	}
	buf[pFlags], buf[pFlags+1] = 1, 0
	setCount(buf, h.n)
	setDataEnd(buf, heap)
	return nil
}

// CreateArenaPager allocates the master block and stores its pointer in the
// given arena root slot (the naming mechanism).
func CreateArenaPager(arena *pmalloc.Arena, rootSlot int, pageSize int) (*ArenaPager, error) {
	m, err := arena.Alloc(128, pmalloc.TagOther)
	if err != nil {
		return nil, err
	}
	p := &ArenaPager{arena: arena, dev: arena.Device(), psize: pageSize,
		master: m, img: make([]byte, pageSize+8)}
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
		master: m, img: make([]byte, pageSize+8)}
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

// ReadPage fills buf with page id, decoded from its image into the pager's
// own buffer: buf's header, slots or inner entries, and value heap, whose
// values are the live ones alone, in key order. The dead gap's bytes in buf
// are left as they were.
//
// An image whose header fails a check is read no further: buf becomes an
// empty leaf, and the next Persist refuses to commit.
func (p *ArenaPager) ReadPage(id uint64, buf []byte) {
	if err := p.readImage(int64(id), buf); err != nil {
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
// owner's reachability sweep's to reclaim. No page the tree makes has an
// image larger than the page; one that did is an error.
func (p *ArenaPager) WritePage(buf []byte) (uint64, error) {
	img := p.encode(buf)
	if len(img) > p.psize {
		return 0, fmt.Errorf("cowbtree: a %d-byte page image overruns the %d-byte page", len(img), p.psize)
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
