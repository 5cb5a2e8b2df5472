package logeng

import (
	"encoding/binary"
	"fmt"
	"slices"

	"nstore/internal/bloom"
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
		blockOff := idx * blockSize
		k := blockKey{name, idx}
		e, ok := c.m[k]
		if !ok {
			n := int(size - blockOff)
			if n > blockSize {
				n = blockSize
			}
			if n <= 0 {
				return fmt.Errorf("logeng: read past EOF of %s", name)
			}
			buf := make([]byte, n)
			if _, err := f.ReadAt(buf, blockOff); err != nil {
				return err
			}
			ptr, err := c.arena.Alloc(n, pmalloc.TagOther)
			if err != nil {
				return err
			}
			dev.Write(int64(ptr), buf)
			e = &blockEnt{ptr: ptr, n: n}
			c.evictIfFull()
			c.m[k] = e
		}
		c.tick++
		e.used = c.tick
		lo := int(off - blockOff)
		n := e.n - lo
		if n <= 0 {
			return fmt.Errorf("logeng: read past block end of %s", name)
		}
		if n > len(p) {
			n = len(p)
		}
		dev.Read(int64(e.ptr)+int64(lo), p[:n])
		p = p[n:]
		off += int64(n)
	}
	return nil
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

// sstable is an open, immutable sorted run.
type sstable struct {
	name  string
	f     *pmfs.File
	count int64

	offsetsPos int64
	// bloom filter resident in (volatile) allocator memory.
	bloomPtr   pmalloc.Ptr
	bloomWords uint64
	bloomK     int

	size int64
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
	var hdr [13]byte
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
	fl := bloom.New(len(w.keys), 10)
	for _, k := range w.keys {
		fl.Add(k)
	}
	bloomPos := int64(len(w.buf))
	bm := fl.Marshal()
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

// openSSTable opens a run and loads its bloom filter into allocator memory.
func openSSTable(fs *pmfs.FS, arena *pmalloc.Arena, name string) (*sstable, error) {
	f, err := fs.OpenFile(name)
	if err != nil {
		return nil, err
	}
	size := f.Size()
	if size < footerSize {
		return nil, fmt.Errorf("logeng: %s too small", name)
	}
	var foot [footerSize]byte
	if _, err := f.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(foot[32:]) != sstMagic {
		return nil, fmt.Errorf("logeng: %s bad magic", name)
	}
	t := &sstable{
		name:       name,
		f:          f,
		offsetsPos: int64(binary.LittleEndian.Uint64(foot[0:])),
		count:      int64(binary.LittleEndian.Uint64(foot[8:])),
		size:       size,
	}
	bloomPos := int64(binary.LittleEndian.Uint64(foot[16:]))
	bloomLen := int(binary.LittleEndian.Uint64(foot[24:]))
	bm := make([]byte, bloomLen)
	if _, err := f.ReadAt(bm, bloomPos); err != nil {
		return nil, err
	}
	t.bloomK = int(binary.LittleEndian.Uint64(bm))
	t.bloomWords = uint64((bloomLen - 8) / 8)
	ptr, err := arena.Alloc(bloomLen-8, pmalloc.TagIndex)
	if err != nil {
		return nil, err
	}
	arena.Device().Write(int64(ptr), bm[8:])
	t.bloomPtr = ptr
	return t, nil
}

// sstSpec is a parsed manifest entry awaiting load. For L0 runs, level is
// the position in the (oldest-first) L0 list rather than an LSM level.
type sstSpec struct {
	level int
	l0    bool
	name  string
}

// mayContain probes the NVM-resident bloom filter.
func (t *sstable) mayContain(dev interface{ ReadU64(int64) uint64 }, key uint64) bool {
	if t.bloomWords == 0 {
		return true
	}
	ok := true
	bloom.Probes(key, t.bloomK, t.bloomWords*64, func(bit uint64) bool {
		w := dev.ReadU64(int64(t.bloomPtr) + int64(bit/64)*8)
		if w&(1<<(bit%64)) == 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// entryAt reads entry i via the block cache.
func (t *sstable) entryAt(c *blockCache, i int64) (key uint64, e lsm.Entry, err error) {
	var ob [8]byte
	if err := c.read(t.f, t.name, t.offsetsPos+i*8, ob[:]); err != nil {
		return 0, e, err
	}
	off := int64(binary.LittleEndian.Uint64(ob[:]))
	var hdr [13]byte
	if err := c.read(t.f, t.name, off, hdr[:]); err != nil {
		return 0, e, err
	}
	key = binary.LittleEndian.Uint64(hdr[0:])
	e.Kind = hdr[8]
	n := int(binary.LittleEndian.Uint32(hdr[9:]))
	e.Payload = make([]byte, n)
	if n > 0 {
		if err := c.read(t.f, t.name, off+13, e.Payload); err != nil {
			return 0, e, err
		}
	}
	return key, e, nil
}

// get binary-searches the run for key (checking the bloom filter first).
func (t *sstable) get(c *blockCache, dev interface{ ReadU64(int64) uint64 }, key uint64) (lsm.Entry, bool, error) {
	if !t.mayContain(dev, key) {
		return lsm.Entry{}, false, nil
	}
	lo, hi := int64(0), t.count
	for lo < hi {
		mid := (lo + hi) / 2
		k, e, err := t.entryAt(c, mid)
		if err != nil {
			return lsm.Entry{}, false, err
		}
		switch {
		case k == key:
			return e, true, nil
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lsm.Entry{}, false, nil
}

// lowerBound returns the first entry index with key >= from.
func (t *sstable) lowerBound(c *blockCache, from uint64) (int64, error) {
	lo, hi := int64(0), t.count
	for lo < hi {
		mid := (lo + hi) / 2
		k, _, err := t.entryAt(c, mid)
		if err != nil {
			return 0, err
		}
		if k < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// release frees the bloom filter and drops cached blocks.
func (t *sstable) release(arena *pmalloc.Arena, c *blockCache) {
	if t.bloomPtr != 0 {
		arena.Free(t.bloomPtr)
		t.bloomPtr = 0
	}
	c.drop(t.name)
}

// sstIter iterates a run's entries in key order.
type sstIter struct {
	t   *sstable
	c   *blockCache
	pos int64
}

func (it *sstIter) valid() bool { return it.pos < it.t.count }

func (it *sstIter) entry() (uint64, lsm.Entry, error) {
	return it.t.entryAt(it.c, it.pos)
}

func (it *sstIter) next() { it.pos++ }
