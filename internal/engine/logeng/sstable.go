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
//	index:    count x {key u64, kind u8 << 56 | offset u56} slots, sorted by
//	          key, four to a cache line (the per-SSTable index block)
//	bloom:    marshalled bloom filter
//	footer:   indexPos u64, count u64, bloomPos u64, bloomLen u64, magic
//
// A lookup binary-searches the index: its key, kind and offset are all a
// step reads, so the write path's liveness probe (kindOf) never touches the
// entry region, and find reads the one entry it returns, whose bytes end
// where the next slot's begin. A run of any other layout fails to open as
// corrupt.
const (
	sstMagic   = 0x5353544142322121
	footerSize = 40
	blockSize  = 4096
	entryHdr   = 13 // key, kind, payload length
	slotSize   = 16 // key, kind and offset
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

	indexPos int64
	size     int64
}

// sstWriter streams sorted entries into a new SSTable file.
type sstWriter struct {
	f     *pmfs.File
	name  string
	index []byte // the index slots
	keys  []uint64
	buf   []byte
}

func newSSTWriter(fs *pmfs.FS, name string) (*sstWriter, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &sstWriter{f: f, name: name}, nil
}

func (w *sstWriter) add(key uint64, e lsm.Entry) {
	w.index = binary.LittleEndian.AppendUint64(w.index, key)
	w.index = binary.LittleEndian.AppendUint64(w.index, uint64(e.Kind)<<56|uint64(len(w.buf)))
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
	indexPos := int64(len(w.buf))
	w.buf = append(w.buf, w.index...)
	bloomPos := int64(len(w.buf))
	bm := bloom.Build(len(w.keys), w.keys).Marshal()
	w.buf = append(w.buf, bm...)

	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(indexPos))
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(w.keys)))
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
// it sizes anything: the index must end where the filter starts and
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
	indexPos := binary.LittleEndian.Uint64(foot[0:])
	count := binary.LittleEndian.Uint64(foot[8:])
	bloomPos := binary.LittleEndian.Uint64(foot[16:])
	bloomLen := binary.LittleEndian.Uint64(foot[24:])
	body := uint64(size - footerSize)
	if indexPos > body || count > body/slotSize || indexPos+slotSize*count != bloomPos ||
		bloomLen > body || bloomPos+bloomLen != body || bloomLen < 16 || bloomLen%8 != 0 {
		return nil, core.Corrupt(fmt.Errorf("logeng: %s footer (index %d, count %d, bloom %d+%d) does not fit its %d bytes",
			name, indexPos, count, bloomPos, bloomLen, size))
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
		filter:   fl,
		name:     name,
		f:        f,
		c:        c,
		count:    int64(count),
		indexPos: int64(indexPos),
		size:     size,
	}, nil
}

// slot is one index slot: an entry's key, kind and file offset.
type slot struct {
	key  uint64
	kind uint8
	off  int64
}

// slot reads index slot i, all a binary-search step needs. The offset must
// leave room for the entry's header inside the entry region.
func (t *sstable) slot(i int64) (slot, error) {
	var b [slotSize]byte
	if err := t.c.read(t.f, t.name, t.indexPos+i*slotSize, b[:]); err != nil {
		return slot{}, err
	}
	w := binary.LittleEndian.Uint64(b[8:])
	s := slot{key: binary.LittleEndian.Uint64(b[:]), kind: uint8(w >> 56), off: int64(w & (1<<56 - 1))}
	if t.indexPos < entryHdr || s.off > t.indexPos-entryHdr {
		return slot{}, core.Corrupt(fmt.Errorf("logeng: %s entry %d at offset %d lies outside its %d-byte entry region", t.name, i, s.off, t.indexPos))
	}
	return s, nil
}

// checkHeader refuses the header of the entry at off when its kind is none of
// the four or its n payload bytes would run past the entry region.
func (t *sstable) checkHeader(off int64, kind uint8, n int64) error {
	if !lsm.KnownKind(kind) {
		return core.Corrupt(fmt.Errorf("logeng: %s entry at offset %d holds kind %d", t.name, off, kind))
	}
	if n > t.indexPos-off-entryHdr {
		return core.Corrupt(fmt.Errorf("logeng: %s entry at offset %d claims %d bytes past its %d-byte entry region", t.name, off, n, t.indexPos))
	}
	return nil
}

// kindOf returns the kind of the run's entry for key from its index slot:
// the write path's probe reads no byte of the entry region.
func (t *sstable) kindOf(key uint64) (kind uint8, ok bool, err error) {
	_, s, ok, err := t.search(key)
	if !ok || err != nil {
		return 0, false, err
	}
	if !lsm.KnownKind(s.kind) {
		return 0, false, core.Corrupt(fmt.Errorf("logeng: %s slot of key %d holds kind %d", t.name, key, s.kind))
	}
	return s.kind, true, nil
}

// find binary-searches the run's index for key and reads its entry, header
// and payload, in one block-cache read: the entry ends where the next slot's
// begins, or at the end of the entry region. An entry whose header disagrees
// with its slot (key, kind, or a length other than the span's) is corrupt.
func (t *sstable) find(key uint64) (lsm.Entry, bool, error) {
	i, s, ok, err := t.search(key)
	if !ok || err != nil {
		return lsm.Entry{}, false, err
	}
	end := t.indexPos
	if i+1 < t.count {
		next, err := t.slot(i + 1)
		if err != nil {
			return lsm.Entry{}, false, err
		}
		end = next.off
	}
	if end < s.off+entryHdr {
		return lsm.Entry{}, false, core.Corrupt(fmt.Errorf("logeng: %s entry %d spans [%d, %d), shorter than its header", t.name, i, s.off, end))
	}
	b := make([]byte, end-s.off)
	if err := t.c.read(t.f, t.name, s.off, b); err != nil {
		return lsm.Entry{}, false, err
	}
	k, kind, n := binary.LittleEndian.Uint64(b), b[8], int64(binary.LittleEndian.Uint32(b[9:]))
	if err := t.checkHeader(s.off, kind, n); err != nil {
		return lsm.Entry{}, false, err
	}
	if k != s.key || kind != s.kind || n != int64(len(b))-entryHdr {
		return lsm.Entry{}, false, core.Corrupt(fmt.Errorf("logeng: %s entry at offset %d (key %d, kind %d, %d bytes) disagrees with its slot (key %d, kind %d, %d bytes)",
			t.name, s.off, k, kind, n, s.key, s.kind, int64(len(b))-entryHdr))
	}
	return lsm.Entry{Kind: kind, Payload: b[entryHdr:]}, true, nil
}

// search binary-searches the run's index for key and returns its slot and
// the slot's index. A step reads one slot, nothing else.
func (t *sstable) search(key uint64) (i int64, s slot, ok bool, err error) {
	lo, hi := int64(0), t.count
	for lo < hi {
		mid := (lo + hi) / 2
		s, err := t.slot(mid)
		if err != nil {
			return 0, slot{}, false, err
		}
		switch {
		case s.key == key:
			return mid, s, true, nil
		case s.key < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, slot{}, false, nil
}

// lowerBound returns the file offset of the first entry with key >= from,
// the end of the entry region if there is none. It reads index slots only.
func (t *sstable) lowerBound(from uint64) (int64, error) {
	lo, hi, hiOff := int64(0), t.count, t.indexPos
	for lo < hi {
		mid := (lo + hi) / 2
		s, err := t.slot(mid)
		if err != nil {
			return 0, err
		}
		if s.key < from {
			lo = mid + 1
		} else {
			hi, hiOff = mid, s.off
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
// with no read of the index. A whole-run scan (compaction, the
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
	if s.off >= s.t.indexPos {
		if !s.bounded && s.n != s.t.count {
			s.err = core.Corrupt(fmt.Errorf("logeng: %s holds %d entries, its footer says %d", s.t.name, s.n, s.t.count))
		}
		return false
	}
	if s.off+entryHdr > s.t.indexPos {
		s.err = core.Corrupt(fmt.Errorf("logeng: %s entry at offset %d is cut off by the end of its %d-byte entry region", s.t.name, s.off, s.t.indexPos))
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
			w = int(min((end/blockSize+1)*blockSize, s.t.indexPos) - end)
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
