package logeng

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"nstore/internal/bloom"
	"nstore/internal/core"
	"nstore/internal/engine/lsm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// SSTable file layout (§3.3):
//
//	entries:  {key u64, kind u8, len u32, payload} ... sorted by key
//	offsets:  count x u64 entry offsets (the per-SSTable index)
//	bloom:    marshalled bloom filter
//	footer:   offsetsPos u64, count u64, bloomPos u64, bloomLen u64, magic
const (
	sstMagic   = 0x5353544142312121
	footerSize = 40
	blockSize  = 4096
	entryHdr   = 13 // key, kind, payload length
)

// blockCache is a small user-space cache of SSTable blocks kept in
// (volatile) allocator memory, standing in for LevelDB's block cache. It
// avoids a VFS crossing per binary-search probe while keeping the traffic
// visible to the NVM perf counters.
type blockCache struct {
	arena *pmalloc.Arena
	cap   int
	m     map[blockKey]*blockEnt
	tick  uint64
}

type blockKey struct {
	file string
	idx  int64
}

type blockEnt struct {
	ptr  pmalloc.Ptr
	n    int // valid bytes
	used uint64
}

func newBlockCache(arena *pmalloc.Arena, capBlocks int) *blockCache {
	if capBlocks <= 0 {
		capBlocks = 256
	}
	return &blockCache{arena: arena, cap: capBlocks, m: make(map[blockKey]*blockEnt)}
}

// read copies file bytes [off, off+len(p)) into p through the block cache.
func (c *blockCache) read(f *pmfs.File, name string, off int64, p []byte) error {
	dev := c.arena.Device()
	size := f.Size()
	for len(p) > 0 {
		idx := off / blockSize
		lo := int(off - idx*blockSize)
		c.tick++
		var n int
		if e, ok := c.m[blockKey{name, idx}]; ok {
			e.used = c.tick
			if n = min(e.n-lo, len(p)); n <= 0 {
				return fmt.Errorf("logeng: read past block end of %s", name)
			}
			dev.Read(int64(e.ptr)+int64(lo), p[:n])
		} else {
			buf, err := c.fill(f, name, idx, size)
			if err != nil {
				return err
			}
			if lo >= len(buf) {
				return fmt.Errorf("logeng: read past block end of %s", name)
			}
			n = copy(p, buf[lo:])
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// fill reads block idx of a file of size bytes on a miss, keeps a streamed
// copy of it (pmalloc.Arena.StreamAlloc: no line filled, none written back)
// and returns the bytes it read. The caller is served from those, not from
// the copy, whose lines the stream left out of the CPU cache.
func (c *blockCache) fill(f *pmfs.File, name string, idx, size int64) ([]byte, error) {
	n := min(size-idx*blockSize, blockSize)
	if n <= 0 {
		return nil, fmt.Errorf("logeng: read past EOF of %s", name)
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, idx*blockSize); err != nil {
		return nil, err
	}
	c.evictIfFull()
	ptr, err := c.arena.StreamAlloc(pmalloc.TagOther, buf)
	if err != nil {
		return nil, err
	}
	c.m[blockKey{name, idx}] = &blockEnt{ptr: ptr, n: int(n), used: c.tick}
	return buf, nil
}

func (c *blockCache) evictIfFull() {
	if len(c.m) < c.cap {
		return
	}
	var victim blockKey
	var oldest uint64 = ^uint64(0)
	for k, e := range c.m {
		if e.used < oldest {
			oldest = e.used
			victim = k
		}
	}
	c.arena.Free(c.m[victim].ptr)
	delete(c.m, victim)
}

// drop removes all cached blocks of a deleted file, in ascending block
// order: the order of the frees decides where the allocator places every
// later chunk, so following Go's map order here made two identical runs
// differ in cache residency and device counters.
func (c *blockCache) drop(name string) {
	var idxs []int64
	for k := range c.m {
		if k.file == name {
			idxs = append(idxs, k.idx)
		}
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		k := blockKey{name, idx}
		c.arena.Free(c.m[k].ptr)
		delete(c.m, k)
	}
}

// bytes returns the cache's arena usage (Fig. 14 "other").
func (c *blockCache) bytes() int64 {
	var n int64
	for _, e := range c.m {
		n += int64(e.n)
	}
	return n
}

// sstable is an open, immutable sorted run, read through the block cache c.
// Its Bloom filter is resident in (volatile) allocator memory.
type sstable struct {
	filter
	name  string
	f     *pmfs.File
	c     *blockCache
	count int64

	offsetsPos int64
	size       int64
}

// sstWriter streams sorted entries into a new SSTable file.
type sstWriter struct {
	f       *pmfs.File
	name    string
	offsets []int64
	keys    []uint64
	buf     []byte
}

func newSSTWriter(fs *pmfs.FS, name string) (*sstWriter, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &sstWriter{f: f, name: name}, nil
}

func (w *sstWriter) add(key uint64, e lsm.Entry) {
	w.offsets = append(w.offsets, int64(len(w.buf)))
	w.keys = append(w.keys, key)
	var hdr [entryHdr]byte
	binary.LittleEndian.PutUint64(hdr[0:], key)
	hdr[8] = e.Kind
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(e.Payload)))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, e.Payload...)
}

// finish writes entries, index, bloom filter, and footer, then fsyncs.
func (w *sstWriter) finish() error {
	offPos := int64(len(w.buf))
	var b8 [8]byte
	for _, o := range w.offsets {
		binary.LittleEndian.PutUint64(b8[:], uint64(o))
		w.buf = append(w.buf, b8[:]...)
	}
	bloomPos := int64(len(w.buf))
	bm := bloom.Build(len(w.keys), w.keys).Marshal()
	w.buf = append(w.buf, bm...)

	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(offPos))
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(w.offsets)))
	binary.LittleEndian.PutUint64(foot[16:], uint64(bloomPos))
	binary.LittleEndian.PutUint64(foot[24:], uint64(len(bm)))
	binary.LittleEndian.PutUint64(foot[32:], sstMagic)
	w.buf = append(w.buf, foot[:]...)

	if _, err := w.f.WriteAt(w.buf, 0); err != nil {
		return err
	}
	return w.f.Sync()
}

// openSSTable opens a run, read through c, and streams its bloom filter into
// allocator memory. The footer comes from the file, so it is checked before
// it sizes anything: the offsets array must end where the filter starts and
// the filter where the footer starts, and the filter must hold its probe
// count and at least one word. An image that breaks any of these is corrupt.
func openSSTable(fs *pmfs.FS, c *blockCache, name string) (*sstable, error) {
	f, err := fs.OpenFile(name)
	if err != nil {
		return nil, err
	}
	size := f.Size()
	if size < footerSize {
		return nil, core.Corrupt(fmt.Errorf("logeng: %s too small", name))
	}
	var foot [footerSize]byte
	if _, err := f.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(foot[32:]) != sstMagic {
		return nil, core.Corrupt(fmt.Errorf("logeng: %s bad magic", name))
	}
	offsetsPos := binary.LittleEndian.Uint64(foot[0:])
	count := binary.LittleEndian.Uint64(foot[8:])
	bloomPos := binary.LittleEndian.Uint64(foot[16:])
	bloomLen := binary.LittleEndian.Uint64(foot[24:])
	body := uint64(size - footerSize)
	if offsetsPos > body || count > body/8 || offsetsPos+8*count != bloomPos ||
		bloomLen > body || bloomPos+bloomLen != body || bloomLen < 16 || bloomLen%8 != 0 {
		return nil, core.Corrupt(fmt.Errorf("logeng: %s footer (offsets %d, count %d, bloom %d+%d) does not fit its %d bytes",
			name, offsetsPos, count, bloomPos, bloomLen, size))
	}
	bm := make([]byte, bloomLen)
	if _, err := f.ReadAt(bm, int64(bloomPos)); err != nil {
		return nil, err
	}
	k := binary.LittleEndian.Uint64(bm)
	if k < 1 || k > bloom.MaxK {
		return nil, core.Corrupt(fmt.Errorf("logeng: %s bloom filter claims %d probes", name, k))
	}
	fl, err := newFilter(bm, c.arena.StreamAlloc)
	if err != nil {
		return nil, err
	}
	return &sstable{
		filter:     fl,
		name:       name,
		f:          f,
		c:          c,
		count:      int64(count),
		offsetsPos: int64(offsetsPos),
		size:       size,
	}, nil
}

// probe reads entry i's offset from the offsets array and the entry's key:
// all a binary-search step needs. The offset must leave room for the entry's
// header inside the entry region.
func (t *sstable) probe(i int64) (off int64, key uint64, err error) {
	var b [8]byte
	if err := t.c.read(t.f, t.name, t.offsetsPos+i*8, b[:]); err != nil {
		return 0, 0, err
	}
	o := binary.LittleEndian.Uint64(b[:])
	if t.offsetsPos < entryHdr || o > uint64(t.offsetsPos-entryHdr) {
		return 0, 0, core.Corrupt(fmt.Errorf("logeng: %s entry %d at offset %d lies outside its %d-byte entry region", t.name, i, o, t.offsetsPos))
	}
	off = int64(o)
	if err := t.c.read(t.f, t.name, off, b[:]); err != nil {
		return 0, 0, err
	}
	return off, binary.LittleEndian.Uint64(b[:]), nil
}

// header reads the kind and payload length of the entry at off, whose key a
// probe has read. The kind must be a known one and the length must fit the
// entry region.
func (t *sstable) header(off int64) (kind uint8, n int64, err error) {
	var b [entryHdr - 8]byte
	if err := t.c.read(t.f, t.name, off+8, b[:]); err != nil {
		return 0, 0, err
	}
	kind, n = b[0], int64(binary.LittleEndian.Uint32(b[1:]))
	return kind, n, t.checkHeader(off, kind, n)
}

// checkHeader refuses the header of the entry at off when its kind is none of
// the four or its n payload bytes would run past the entry region.
func (t *sstable) checkHeader(off int64, kind uint8, n int64) error {
	if !lsm.KnownKind(kind) {
		return core.Corrupt(fmt.Errorf("logeng: %s entry at offset %d holds kind %d", t.name, off, kind))
	}
	if n > t.offsetsPos-off-entryHdr {
		return core.Corrupt(fmt.Errorf("logeng: %s entry at offset %d claims %d bytes past its %d-byte entry region", t.name, off, n, t.offsetsPos))
	}
	return nil
}

// entryAt reads the entry at off, whose key a probe has read: its header,
// checked before anything is allocated for the payload, then the payload.
func (t *sstable) entryAt(off int64) (lsm.Entry, error) {
	kind, n, err := t.header(off)
	if err != nil {
		return lsm.Entry{}, err
	}
	e := lsm.Entry{Kind: kind, Payload: make([]byte, n)}
	if err := t.c.read(t.f, t.name, off+entryHdr, e.Payload); err != nil {
		return lsm.Entry{}, err
	}
	return e, nil
}

// kindOf returns the kind of the run's entry for key: the binary search's
// offsets and keys and the entry's header are all it reads.
func (t *sstable) kindOf(key uint64) (kind uint8, ok bool, err error) {
	off, ok, err := t.search(key)
	if !ok || err != nil {
		return 0, false, err
	}
	kind, _, err = t.header(off)
	return kind, err == nil, err
}

// find binary-searches the run for key and reads its entry.
func (t *sstable) find(key uint64) (lsm.Entry, bool, error) {
	off, ok, err := t.search(key)
	if !ok || err != nil {
		return lsm.Entry{}, false, err
	}
	e, err := t.entryAt(off)
	return e, err == nil, err
}

// search binary-searches the run for key and returns its entry's offset. A
// step reads its entry's offset and key, nothing else.
func (t *sstable) search(key uint64) (off int64, ok bool, err error) {
	lo, hi := int64(0), t.count
	for lo < hi {
		mid := (lo + hi) / 2
		off, k, err := t.probe(mid)
		if err != nil {
			return 0, false, err
		}
		switch {
		case k == key:
			return off, true, nil
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false, nil
}

// lowerBound returns the file offset of the first entry with key >= from,
// the end of the entry region if there is none.
func (t *sstable) lowerBound(from uint64) (int64, error) {
	lo, hi, hiOff := int64(0), t.count, t.offsetsPos
	for lo < hi {
		mid := (lo + hi) / 2
		off, k, err := t.probe(mid)
		if err != nil {
			return 0, err
		}
		if k < from {
			lo = mid + 1
		} else {
			hi, hiOff = mid, off
		}
	}
	return hiOff, nil
}

// release frees the bloom filter and drops cached blocks.
func (t *sstable) release() {
	if t.ptr != 0 {
		t.c.arena.Free(t.ptr)
		t.ptr = 0
	}
	t.c.drop(t.name)
}

// runScanner reads a run's entries in key order, each entry decoded once,
// with no read of the offsets array. A whole-run scan (compaction, the
// manifest's pointer harvest) reads the entry region one block-aligned window
// at a time through the block cache; a bounded one (ScanRange) reads each
// entry's bytes alone and ends at the first key at or past its bound, so a
// short range reads the entries it returns and the header of the one that
// ends it.
type runScanner struct {
	t       *sstable
	win     []byte // entry-region bytes from winOff on
	winOff  int64
	off     int64 // the next entry's file offset
	n       int64 // entries decoded
	bounded bool  // the scan ends before the first key >= hi
	hi      uint64

	valid bool // key and ent hold the entry the last next decoded
	key   uint64
	ent   lsm.Entry
	err   error
}

// scan returns a scanner over the whole run.
func (t *sstable) scan() *runScanner {
	return &runScanner{t: t}
}

// scanRange returns a scanner over the run's entries from the one at file
// offset off (lowerBound's result) up to the first key >= hi.
func (t *sstable) scanRange(off int64, hi uint64) *runScanner {
	return &runScanner{t: t, winOff: off, off: off, bounded: true, hi: hi}
}

// from is the run's range-merge source over [lo, hi): a bounded scanner
// positioned at the first entry at or past lo.
func (t *sstable) from(lo, hi uint64) (source, error) {
	off, err := t.lowerBound(lo)
	if err != nil {
		return nil, err
	}
	s := t.scanRange(off, hi)
	s.next()
	return s, s.err
}

// next decodes the next entry into key and ent and reports, as valid does,
// whether there was one: not at the end of the entry region or of a bounded
// scan's range, nor on an error, which it leaves in err. An entry of no known
// kind or that runs past the region, or a whole-run scan that found other
// than the footer's count of entries, is corrupt.
func (s *runScanner) next() bool {
	s.valid = s.decode()
	return s.valid
}

func (s *runScanner) head() (uint64, lsm.Entry, bool) { return s.key, s.ent, s.valid }

func (s *runScanner) advance() error {
	s.next()
	return s.err
}

func (s *runScanner) decode() bool {
	if s.err != nil {
		return false
	}
	if s.off >= s.t.offsetsPos {
		if !s.bounded && s.n != s.t.count {
			s.err = core.Corrupt(fmt.Errorf("logeng: %s holds %d entries, its footer says %d", s.t.name, s.n, s.t.count))
		}
		return false
	}
	if s.off+entryHdr > s.t.offsetsPos {
		s.err = core.Corrupt(fmt.Errorf("logeng: %s entry at offset %d is cut off by the end of its %d-byte entry region", s.t.name, s.off, s.t.offsetsPos))
		return false
	}
	hdr, err := s.window(entryHdr)
	if err != nil {
		s.err = err
		return false
	}
	key, kind, n := binary.LittleEndian.Uint64(hdr), hdr[8], int64(binary.LittleEndian.Uint32(hdr[9:]))
	if s.bounded && key >= s.hi {
		return false
	}
	if err := s.t.checkHeader(s.off, kind, n); err != nil {
		s.err = err
		return false
	}
	b, err := s.window(entryHdr + int(n))
	if err != nil {
		s.err = err
		return false
	}
	s.key, s.ent = key, lsm.Entry{Kind: kind, Payload: bytes.Clone(b[entryHdr:])}
	s.off += entryHdr + n
	s.n++
	return true
}

// window returns the n bytes at the scanner's offset, reading through the
// cache while it holds fewer: the entry region's next block-aligned window on
// a whole-run scan, only the missing bytes on a bounded one. The bytes, which
// the caller has checked lie inside the region, are valid until the next
// call.
func (s *runScanner) window(n int) ([]byte, error) {
	for s.off+int64(n) > s.winOff+int64(len(s.win)) {
		end := s.winOff + int64(len(s.win))
		w := int(s.off + int64(n) - end)
		if !s.bounded {
			w = int(min((end/blockSize+1)*blockSize, s.t.offsetsPos) - end)
		}
		kept := copy(s.win, s.win[s.off-s.winOff:])
		s.win, s.winOff = slices.Grow(s.win[:kept], w)[:kept+w], s.off
		if err := s.t.c.read(s.t.f, s.t.name, end, s.win[kept:]); err != nil {
			return nil, err
		}
	}
	lo := s.off - s.winOff
	return s.win[lo : lo+int64(n)], nil
}
