// Package pmfs is a filesystem interface over the emulated NVM device,
// modelled on Intel Labs' PMFS (§2.2). The traditional storage engines use
// it for their durable structures (WAL, checkpoints, SSTables, CoW B+tree
// directories).
//
// Like PMFS, file data lives directly in NVM and write() copies it there
// with non-temporal stores (nvm.Device.WriteStream): whole cache lines bypass
// the CPU cache and wait in the memory controller's buffer, so fsync has no
// data to flush — it writes the inode back if it changed and fences. Unlike
// the allocator interface, every call pays a fixed kernel-crossing (VFS)
// overhead plus one buffer copy between user and file buffers — this is what
// produces the allocator-vs-filesystem bandwidth gap of Fig. 1.
//
// On-device layout:
//
//	+0              superblock (magic, geometry)
//	+4096           inode table (NumInodes fixed-size inodes)
//	inode table end extent region (fixed-size extents, bump + free list)
//
// Inodes are synced on metadata changes; the extent free list is volatile
// and rebuilt on Open by a reachability scan over the inodes, so a crash can
// never leak or double-use extents across restarts. So is the name table,
// the dentry cache real PMFS sits behind: Open builds it in the same scan,
// and a lookup by name (OpenFile, Exists, FileSize, List, Create's free-inode
// choice) reads no inode line.
package pmfs

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"nstore/internal/nvm"
)

const (
	magic = 0x504d46532d474f31 // "PMFS-GO1"

	// NumInodes is the number of files the filesystem can hold.
	NumInodes = 256
	inodeSize = 1024
	nameLen   = 64
	// maxExtents is the number of direct extent slots per inode.
	maxExtents = (inodeSize - 2*8 - nameLen) / 8

	sbSize     = 4096
	offMagic   = 0
	offSize    = 8
	offExtSize = 16
	offExtBase = 24

	// inode field offsets
	inoFlags = 0 // 1 = used
	inoSize  = 8
	inoName  = 16
	inoExt   = 16 + nameLen
)

// VFSCost is the simulated kernel-crossing overhead charged per filesystem
// call (read, write, fsync). PMFS avoids the block layer but still crosses
// the VFS; this constant is what separates Fig. 1's two curves.
const VFSCost = 700 * time.Nanosecond

// CopyCostPerByte models the single user-buffer copy PMFS performs, in
// nanoseconds per byte (~4 GB/s memcpy).
const CopyCostPerByte = 0.25

// Errors returned by the filesystem.
var (
	ErrNotExist  = errors.New("pmfs: file does not exist")
	ErrExist     = errors.New("pmfs: file already exists")
	ErrNoSpace   = errors.New("pmfs: no space left on device")
	ErrTooLarge  = errors.New("pmfs: file exceeds maximum extent count")
	ErrFileTable = errors.New("pmfs: inode table full")
)

// FS is a PMFS-like filesystem over a region of an NVM device.
type FS struct {
	dev      *nvm.Device
	base     int64
	size     int64
	extSize  int64
	extBase  int64
	extCount int64

	freeExts []int64 // volatile free list of extent indexes
	nextExt  int64   // volatile bump cursor (durable via inode reachability)

	// names maps each file's name to its inode, and used marks the inodes
	// that hold a file: the volatile name table. Open builds it from the
	// inode scan; Create, Remove and Rename keep it equal to the inode table.
	names map[string]int
	used  [NumInodes]bool

	// dirty lists, per inode and in write order, the device ranges written
	// since the file's last fsync while a sync fault was installed. Nothing on
	// the data path reads it: it is the fault injector's record of what a
	// torn fsync may drop (fault.go), and is kept only when one may fire.
	dirty map[int][]span
	// metaDirty marks inodes whose metadata (size, extents) changed since
	// the last fsync, so fsync only flushes metadata when needed.
	metaDirty map[int]bool

	// Fault injection (see fault.go).
	syncFault    SyncFault
	syncFaultSet bool
	// Transient sync-failure window (see FailSyncs).
	failAfter int
	failCount int

	// Cumulative fsync metrics in atomic cells, scraper-safe: syncs counts
	// File.Sync calls (including failed and crash-injected ones); syncNS is
	// the wall-clock time spent inside them.
	syncs  atomic.Int64
	syncNS atomic.Int64
}

// SyncStats returns the cumulative fsync count and the wall-clock
// nanoseconds spent in File.Sync. Safe from any goroutine.
func (fs *FS) SyncStats() (syncs, ns int64) {
	return fs.syncs.Load(), fs.syncNS.Load()
}

type span struct{ off, end int64 }

// Config controls filesystem geometry.
type Config struct {
	// ExtentSize is the unit of file space allocation. Default 256 KiB.
	ExtentSize int64
}

// Format initializes a filesystem over dev[base, base+size).
func Format(dev *nvm.Device, base, size int64, cfg Config) *FS {
	extSize := cfg.ExtentSize
	if extSize <= 0 {
		extSize = 256 << 10
	}
	extBase := base + sbSize + NumInodes*inodeSize
	if extBase+extSize > base+size {
		panic("pmfs: region too small")
	}
	fs := &FS{
		dev: dev, base: base, size: size,
		extSize: extSize, extBase: extBase,
		extCount:  (base + size - extBase) / extSize,
		dirty:     make(map[int][]span),
		metaDirty: make(map[int]bool),
		names:     make(map[string]int),
	}
	zero := make([]byte, sbSize+NumInodes*inodeSize)
	dev.Write(base, zero)
	dev.WriteU64(base+offMagic, magic)
	dev.WriteU64(base+offSize, uint64(size))
	dev.WriteU64(base+offExtSize, uint64(extSize))
	dev.WriteU64(base+offExtBase, uint64(extBase))
	dev.Sync(base, sbSize+NumInodes*inodeSize)
	for i := fs.extCount - 1; i >= 0; i-- {
		fs.freeExts = append(fs.freeExts, i)
	}
	return fs
}

// Open attaches to an existing filesystem and rebuilds the extent free list
// from inode reachability.
func Open(dev *nvm.Device, base int64) (*FS, error) {
	if dev.ReadU64(base+offMagic) != magic {
		return nil, fmt.Errorf("pmfs: no filesystem at offset %d", base)
	}
	fs := &FS{
		dev:       dev,
		base:      base,
		size:      int64(dev.ReadU64(base + offSize)),
		extSize:   int64(dev.ReadU64(base + offExtSize)),
		extBase:   int64(dev.ReadU64(base + offExtBase)),
		dirty:     make(map[int][]span),
		metaDirty: make(map[int]bool),
		names:     make(map[string]int),
	}
	fs.extCount = (base + fs.size - fs.extBase) / fs.extSize
	used := make([]bool, fs.extCount)
	for i := 0; i < NumInodes; i++ {
		ino := fs.inodeOff(i)
		if dev.ReadU64(ino+inoFlags) != 1 {
			continue
		}
		// A name two inodes hold (only a corrupt table has one) resolves to
		// the lower inode, as a scan finds it, and is listed once.
		fs.used[i] = true
		if name := fs.readName(i); fs.findInode(name) < 0 {
			fs.names[name] = i
		}
		size := int64(dev.ReadU64(ino + inoSize))
		// Crash scrub: a torn inode flush can leave a durable size whose
		// tail extents were never recorded. Clamp the size to the contiguous
		// prefix of valid extent pointers; the lost tail is exactly what an
		// fsync-less crash is allowed to discard.
		nExt := fs.extentsFor(size)
		for e := 0; e < nExt; e++ {
			idx := int64(dev.ReadU64(ino+inoExt+int64(e)*8)) - 1
			if idx < 0 || idx >= fs.extCount {
				size = int64(e) * fs.extSize
				dev.WriteU64(ino+inoSize, uint64(size))
				dev.Sync(ino+inoSize, 8)
				nExt = e
				break
			}
		}
		for e := 0; e < nExt; e++ {
			used[int64(dev.ReadU64(ino+inoExt+int64(e)*8))-1] = true
		}
	}
	for i := fs.extCount - 1; i >= 0; i-- {
		if !used[i] {
			fs.freeExts = append(fs.freeExts, i)
		}
	}
	return fs, nil
}

func (fs *FS) inodeOff(i int) int64 { return fs.base + sbSize + int64(i)*inodeSize }

func (fs *FS) extentsFor(size int64) int {
	return int((size + fs.extSize - 1) / fs.extSize)
}

func (fs *FS) chargeCall(bytes int) {
	fs.dev.AddStall(VFSCost + time.Duration(float64(bytes)*CopyCostPerByte)*time.Nanosecond)
}

// findInode returns the inode of the file named name, -1 if there is none:
// a lookup in the name table.
func (fs *FS) findInode(name string) int {
	if i, ok := fs.names[name]; ok {
		return i
	}
	return -1
}

func (fs *FS) readName(i int) string {
	var buf [nameLen]byte
	fs.dev.Read(fs.inodeOff(i)+inoName, buf[:])
	n := 0
	for n < nameLen && buf[n] != 0 {
		n++
	}
	return string(buf[:n])
}

// Create creates a new empty file. It fails if the name exists.
func (fs *FS) Create(name string) (*File, error) {
	fs.chargeCall(0)
	if len(name) == 0 || len(name) > nameLen {
		return nil, fmt.Errorf("pmfs: bad name %q", name)
	}
	if fs.findInode(name) >= 0 {
		return nil, ErrExist
	}
	for i := 0; i < NumInodes; i++ {
		if fs.used[i] {
			continue
		}
		ino := fs.inodeOff(i)
		// Name and size are durable before the used flag: a crash between
		// the two leaves a free inode, never a used one whose name is torn.
		var nb [nameLen]byte
		copy(nb[:], name)
		fs.dev.Write(ino+inoName, nb[:])
		fs.dev.WriteU64(ino+inoSize, 0)
		fs.dev.Sync(ino+inoSize, 8+nameLen)
		fs.dev.WriteU64(ino+inoFlags, 1)
		fs.dev.Sync(ino, inodeSize)
		fs.used[i], fs.names[name] = true, i
		return &File{fs: fs, ino: i}, nil
	}
	return nil, ErrFileTable
}

// OpenFile opens an existing file by name.
func (fs *FS) OpenFile(name string) (*File, error) {
	fs.chargeCall(0)
	i := fs.findInode(name)
	if i < 0 {
		return nil, ErrNotExist
	}
	return &File{fs: fs, ino: i}, nil
}

// OpenOrCreate opens name, creating it if absent.
func (fs *FS) OpenOrCreate(name string) (*File, error) {
	if f, err := fs.OpenFile(name); err == nil {
		return f, nil
	}
	return fs.Create(name)
}

// Remove deletes a file and frees its extents.
func (fs *FS) Remove(name string) error {
	fs.chargeCall(0)
	i := fs.findInode(name)
	if i < 0 {
		return ErrNotExist
	}
	ino := fs.inodeOff(i)
	size := int64(fs.dev.ReadU64(ino + inoSize))
	for e := 0; e < fs.extentsFor(size); e++ {
		idx := int64(fs.dev.ReadU64(ino+inoExt+int64(e)*8)) - 1
		if idx >= 0 {
			fs.freeExts = append(fs.freeExts, idx)
		}
	}
	fs.dev.WriteU64(ino+inoFlags, 0)
	fs.dev.Sync(ino+inoFlags, 8)
	delete(fs.dirty, i)
	fs.used[i] = false
	delete(fs.names, name)
	return nil
}

// Rename atomically renames a file, replacing any existing target. A file
// renamed to its own name stays as it is.
func (fs *FS) Rename(oldName, newName string) error {
	fs.chargeCall(0)
	i := fs.findInode(oldName)
	if i < 0 {
		return ErrNotExist
	}
	if oldName == newName {
		return nil
	}
	if j := fs.findInode(newName); j >= 0 {
		if err := fs.Remove(newName); err != nil {
			return err
		}
	}
	var nb [nameLen]byte
	copy(nb[:], newName)
	ino := fs.inodeOff(i)
	fs.dev.Write(ino+inoName, nb[:])
	fs.dev.Sync(ino+inoName, nameLen)
	delete(fs.names, oldName)
	fs.names[newName] = i
	return nil
}

// List returns the names of all files, from the name table.
func (fs *FS) List() []string {
	var names []string
	for name := range fs.names {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Exists reports whether a file with the given name exists.
func (fs *FS) Exists(name string) bool { return fs.findInode(name) >= 0 }

// UsedBytes returns the total durable size of all files (Fig. 14 accounting).
func (fs *FS) UsedBytes() int64 {
	var total int64
	for i, used := range fs.used {
		if used {
			total += int64(fs.dev.ReadU64(fs.inodeOff(i) + inoSize))
		}
	}
	return total
}

// FileSize returns the durable size of the named file.
func (fs *FS) FileSize(name string) (int64, error) {
	i := fs.findInode(name)
	if i < 0 {
		return 0, ErrNotExist
	}
	return int64(fs.dev.ReadU64(fs.inodeOff(i) + inoSize)), nil
}

func (fs *FS) allocExtent() (int64, error) {
	if n := len(fs.freeExts); n > 0 {
		idx := fs.freeExts[n-1]
		fs.freeExts = fs.freeExts[:n-1]
		return idx, nil
	}
	return 0, ErrNoSpace
}

// File is an open file handle. Handles are volatile; reopen by name after a
// restart.
type File struct {
	fs  *FS
	ino int
}

// Name returns the file's current name.
func (f *File) Name() string { return f.fs.readName(f.ino) }

// Size returns the file size in bytes.
func (f *File) Size() int64 {
	return int64(f.fs.dev.ReadU64(f.fs.inodeOff(f.ino) + inoSize))
}

// extentAddr returns the device offset of byte `off` within the file,
// and how many contiguous bytes follow it inside the same extent.
func (f *File) extentAddr(off int64) (addr int64, contig int64) {
	e := off / f.fs.extSize
	idx := int64(f.fs.dev.ReadU64(f.fs.inodeOff(f.ino)+inoExt+e*8)) - 1
	rel := off % f.fs.extSize
	return f.fs.extBase + idx*f.fs.extSize + rel, f.fs.extSize - rel
}

// ensureSize grows the file (allocating extents) so it can hold `size` bytes.
func (f *File) ensureSize(size int64) error {
	ino := f.fs.inodeOff(f.ino)
	cur := int64(f.fs.dev.ReadU64(ino + inoSize))
	if size <= cur {
		return nil
	}
	curExt := f.fs.extentsFor(cur)
	newExt := f.fs.extentsFor(size)
	if newExt > maxExtents {
		return ErrTooLarge
	}
	if newExt > curExt {
		for e := curExt; e < newExt; e++ {
			idx, err := f.fs.allocExtent()
			if err != nil {
				return err
			}
			f.fs.dev.WriteU64(ino+inoExt+int64(e)*8, uint64(idx+1))
		}
		// New extent pointers must be durable before any size that covers
		// them can persist: under reordered write-backs the inode's size
		// word and its extent words live in different cache lines, and a
		// durable size pointing at a never-written slot would hand the file
		// a garbage (possibly already re-used) extent after recovery.
		f.fs.dev.Sync(ino+inoExt+int64(curExt)*8, (newExt-curExt)*8)
	}
	f.fs.dev.WriteU64(ino+inoSize, uint64(size))
	f.fs.metaDirty[f.ino] = true
	return nil
}

// WriteAt writes p at offset off, growing the file as needed, with
// non-temporal stores: the data is readable at once and durable after the
// next fence — this file's Sync at the latest. Metadata (size, new extents)
// becomes durable at Sync.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.fs.chargeCall(len(p))
	if err := f.ensureSize(off + int64(len(p))); err != nil {
		return 0, err
	}
	n := len(p)
	written := 0
	for written < n {
		addr, contig := f.extentAddr(off + int64(written))
		chunk := int64(n - written)
		if chunk > contig {
			chunk = contig
		}
		f.fs.dev.WriteStream(addr, p[written:written+int(chunk)])
		if f.fs.syncFaultSet {
			f.fs.addDirty(f.ino, addr, addr+chunk)
		}
		written += int(chunk)
	}
	return n, nil
}

// Append writes p at the end of the file and returns the offset at which it
// was written.
func (f *File) Append(p []byte) (int64, error) {
	off := f.Size()
	_, err := f.WriteAt(p, off)
	return off, err
}

// ReadAt reads len(p) bytes at offset off. Short files return an error.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.fs.chargeCall(len(p))
	if off+int64(len(p)) > f.Size() {
		return 0, fmt.Errorf("pmfs: read [%d,%d) past EOF %d of %q", off, off+int64(len(p)), f.Size(), f.Name())
	}
	n := len(p)
	read := 0
	for read < n {
		addr, contig := f.extentAddr(off + int64(read))
		chunk := int64(n - read)
		if chunk > contig {
			chunk = contig
		}
		f.fs.dev.Read(addr, p[read:read+int(chunk)])
		read += int(chunk)
	}
	return n, nil
}

// Truncate durably sets the file size to n, freeing extents beyond it.
func (f *File) Truncate(n int64) error {
	f.fs.chargeCall(0)
	ino := f.fs.inodeOff(f.ino)
	cur := int64(f.fs.dev.ReadU64(ino + inoSize))
	if n > cur {
		if err := f.ensureSize(n); err != nil {
			return err
		}
	} else {
		for e := f.fs.extentsFor(n); e < f.fs.extentsFor(cur); e++ {
			idx := int64(f.fs.dev.ReadU64(ino+inoExt+int64(e)*8)) - 1
			if idx >= 0 {
				f.fs.freeExts = append(f.fs.freeExts, idx)
				// Drop the unsynced spans inside the freed extent: once it is
				// reused by another file, a torn fsync of this inode must not
				// discard the new owner's un-fenced bytes.
				f.fs.dropDirty(f.ino, f.fs.extBase+idx*f.fs.extSize, f.fs.extBase+(idx+1)*f.fs.extSize)
			}
		}
	}
	f.fs.dev.WriteU64(ino+inoSize, uint64(n))
	f.fs.dev.Sync(ino, inodeSize)
	return nil
}

// Sync is fsync: it writes the inode back if its metadata changed, then
// fences. The file's data needs no flush — WriteAt left it in the memory
// controller's buffer, which the fence drains.
func (f *File) Sync() error {
	start := time.Now()
	f.fs.syncs.Add(1)
	// The deferred duration add runs on the injected-crash panic path too,
	// so the metrics stay coherent across fault drills.
	defer func() { f.fs.syncNS.Add(int64(time.Since(start))) }()
	f.fs.chargeCall(0)
	if f.fs.syncFaultSet {
		if f.fs.syncFault.AfterSyncs > 0 {
			f.fs.syncFault.AfterSyncs--
		} else {
			f.fs.crashSync(f.ino) // panics with nvm.ErrInjectedCrash
		}
	}
	if f.fs.failCount > 0 {
		if f.fs.failAfter > 0 {
			f.fs.failAfter--
		} else {
			// Transient failure: no fence, so nothing written since the last
			// fsync is promised durable; the retry covers all of it.
			f.fs.failCount--
			return ErrSyncFailed
		}
	}
	f.fs.syncInode(f.ino)
	return nil
}

// syncInode is the work of a successful fsync.
func (fs *FS) syncInode(ino int) {
	delete(fs.dirty, ino)
	if fs.metaDirty[ino] {
		fs.dev.WriteBack(fs.inodeOff(ino), inodeSize)
		delete(fs.metaDirty, ino)
	}
	fs.dev.Fence()
}

// dropDirty removes the [off, end) device range from inode ino's unsynced
// spans, splitting spans that straddle a boundary.
func (fs *FS) dropDirty(ino int, off, end int64) {
	spans := fs.dirty[ino]
	out := spans[:0]
	for _, s := range spans {
		if s.end <= off || s.off >= end {
			out = append(out, s)
			continue
		}
		if s.off < off {
			out = append(out, span{s.off, off})
		}
		if s.end > end {
			out = append(out, span{end, s.end})
		}
	}
	if len(out) == 0 {
		delete(fs.dirty, ino)
		return
	}
	fs.dirty[ino] = out
}

func (fs *FS) addDirty(ino int, off, end int64) {
	spans := fs.dirty[ino]
	// Merge with the last span when appending sequentially (common case).
	if n := len(spans); n > 0 && spans[n-1].end == off {
		spans[n-1].end = end
		fs.dirty[ino] = spans
		return
	}
	fs.dirty[ino] = append(spans, span{off, end})
}
