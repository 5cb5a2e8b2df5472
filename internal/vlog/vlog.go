// Package vlog implements WiscKey-style key/value separation for the Log
// engine: large values are appended to a segment-rotated value log and the
// LSM tree keeps 12-byte (segment, offset, length) pointers, so SSTable
// flushes and compactions move only keys and pointers. Records carry a CRC
// tail seeded with the segment id, so recovery can tell a valid record from
// torn-write debris or stale bytes left by a reused extent; the durable head
// is checkpointed in the engine manifest and everything past it is cut off
// at open. Compaction feeds discard statistics back per segment; GC picks
// the deadest sealed segment, the engine rewrites its live records to the
// tail, and the segment is removed only after the rewritten pointers are
// installed in the manifest.
package vlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"nstore/internal/core"
	"nstore/internal/pmfs"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record layout: key u64 | vlen u32 | value | crc u32. The checksum covers
// key, length, and value, and is seeded with the segment id so a record
// that leaks through a freed-and-reused extent of another segment can never
// verify.
const (
	recHeader   = 12
	recOverhead = recHeader + 4
	// MaxValueLen bounds a single separated value (sanity limit for the
	// CRC walk: a torn length field must not trigger a huge allocation).
	MaxValueLen = 1 << 30
)

// crcSeed starts a record checksum for segment id.
func crcSeed(id uint32) uint32 {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], id)
	return crc32.Checksum(b[:], crcTable)
}

// EncodeRecord appends the wire form of one record to dst.
func EncodeRecord(dst []byte, segID uint32, key uint64, val []byte) []byte {
	start := len(dst)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], key)
	dst = append(dst, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(val)))
	dst = append(dst, b4[:]...)
	dst = append(dst, val...)
	crc := crc32.Update(crcSeed(segID), crcTable, dst[start:])
	binary.LittleEndian.PutUint32(b4[:], crc)
	return append(dst, b4[:]...)
}

// DecodeRecord parses one record at the start of data. It returns the key,
// the value (aliasing data), and the total record length. A torn, truncated,
// or bit-flipped record returns ok=false — never a wrong value.
func DecodeRecord(data []byte, segID uint32) (key uint64, val []byte, recLen int, ok bool) {
	if len(data) < recOverhead {
		return 0, nil, 0, false
	}
	vlen := binary.LittleEndian.Uint32(data[8:])
	if vlen > MaxValueLen || int64(recOverhead)+int64(vlen) > int64(len(data)) {
		return 0, nil, 0, false
	}
	n := recHeader + int(vlen)
	crc := binary.LittleEndian.Uint32(data[n:])
	if crc32.Update(crcSeed(segID), crcTable, data[:n]) != crc {
		return 0, nil, 0, false
	}
	key = binary.LittleEndian.Uint64(data)
	return key, data[recHeader:n], n + 4, true
}

// Config tunes the Manager.
type Config struct {
	// SegSize is the rotation threshold (default 1 MiB). A single record
	// larger than SegSize gets a segment of its own.
	SegSize int64
}

// Head is the durable watermark the engine checkpoints in its manifest:
// every record at or before (Seg, Off) is synced. Seg 0 means "no log".
type Head struct {
	Seg uint32
	Off int64
}

type segInfo struct {
	f       *pmfs.File
	size    int64 // valid record bytes (written bytes for the active segment)
	discard int64 // bytes reported dead by compaction / superseded writes
}

// Stats is a snapshot of the log's cumulative counters.
type Stats struct {
	Segments  int
	Bytes     int64 // live segment bytes (valid record bytes, including dead records)
	Discard   int64 // bytes currently marked discardable across live segments
	Reclaimed int64 // cumulative bytes released by segment removal (monotone)
	Appends   int64 // records appended
	GCRuns    int64 // completed GC passes (engine-reported)
}

// Manager owns the segment set. It is not goroutine-safe: the owning engine
// serializes access under its monitor lock, like the rest of the data path.
type Manager struct {
	b   *FSBackend
	cfg Config

	segs   map[uint32]*segInfo
	active uint32 // 0 = none yet
	synced int64  // synced prefix of the active segment

	appends   int64
	reclaimed int64
	gcRuns    int64
}

// Open loads every listed segment in turn: it reads the segment's image,
// CRC-walks it to find the valid record prefix and cuts the crash debris
// behind that prefix durably, so later appends never land beyond it. Only
// one segment image is held in host memory at a time.
func Open(b *FSBackend, cfg Config) (*Manager, error) {
	if cfg.SegSize <= 0 {
		cfg.SegSize = 1 << 20
	}
	m := &Manager{b: b, cfg: cfg, segs: make(map[uint32]*segInfo)}
	ids, err := b.List()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		f, err := b.open(id)
		if err != nil {
			return nil, err
		}
		image := make([]byte, f.Size())
		if len(image) > 0 {
			if _, err := f.ReadAt(image, 0); err != nil {
				return nil, err
			}
		}
		valid := validPrefix(image, id)
		if valid < int64(len(image)) {
			if err := f.Truncate(valid); err != nil {
				return nil, err
			}
		}
		m.segs[id] = &segInfo{f: f, size: valid}
		m.active = max(m.active, id)
	}
	if m.active != 0 {
		m.synced = m.segs[m.active].size
	}
	return m, nil
}

// validPrefix CRC-walks a segment image and returns the length of its valid
// record prefix. Pure host-memory work.
func validPrefix(data []byte, id uint32) int64 {
	valid := int64(0)
	for {
		_, _, n, ok := DecodeRecord(data[valid:], id)
		if !ok {
			return valid
		}
		valid += int64(n)
	}
}

// RestrictToHead drops everything past the manifest-checkpointed head:
// segments above head.Seg are removed outright (their records were only
// reachable from SSTables that were never installed, or from memtable
// repoints lost with the crash) and the head segment is truncated to
// head.Off. A head pointing past a segment's valid prefix means durable
// data vanished — that is real corruption, not crash debris.
func (m *Manager) RestrictToHead(h Head) error {
	for id := range m.segs {
		if id > h.Seg {
			if err := m.removeSeg(id, false); err != nil {
				return err
			}
		}
	}
	m.active = h.Seg
	m.synced = 0
	if h.Seg == 0 {
		return nil
	}
	si, ok := m.segs[h.Seg]
	if !ok {
		return core.Corrupt(fmt.Errorf("vlog: manifest head segment %d missing", h.Seg))
	}
	if si.size < h.Off {
		return core.Corrupt(fmt.Errorf("vlog: segment %d valid prefix %d short of manifest head %d", h.Seg, si.size, h.Off))
	}
	if si.size > h.Off {
		if err := si.f.Truncate(h.Off); err != nil {
			return err
		}
		si.size = h.Off
	}
	m.synced = h.Off
	return nil
}

// rotate seals the active segment and opens a fresh one.
func (m *Manager) rotate() error {
	if m.active != 0 {
		if err := m.Sync(); err != nil {
			return err
		}
	}
	id := m.active + 1
	for _, exists := m.segs[id]; exists; _, exists = m.segs[id] {
		id++
	}
	f, err := m.b.create(id)
	if err != nil {
		return core.ClassifyDurability(err)
	}
	m.segs[id] = &segInfo{f: f}
	m.active = id
	m.synced = 0
	return nil
}

// Append writes one record to the tail and returns its pointer. The record
// is durable only after the next Sync; the engine must Sync before any
// structure referencing the pointer is made durable.
func (m *Manager) Append(key uint64, val []byte) (core.VlogPtr, error) {
	rec := int64(recOverhead + len(val))
	if m.active == 0 || (m.segs[m.active].size > 0 && m.segs[m.active].size+rec > m.cfg.SegSize) {
		if err := m.rotate(); err != nil {
			return core.VlogPtr{}, err
		}
	}
	si := m.segs[m.active]
	buf := EncodeRecord(make([]byte, 0, rec), m.active, key, val)
	if _, err := si.f.WriteAt(buf, si.size); err != nil {
		return core.VlogPtr{}, core.ClassifyDurability(err)
	}
	ptr := core.VlogPtr{Seg: m.active, Off: uint32(si.size), Len: uint32(len(val))}
	si.size += rec
	m.appends++
	return ptr, nil
}

// Sync makes every appended record durable.
func (m *Manager) Sync() error {
	if m.active == 0 {
		return nil
	}
	si := m.segs[m.active]
	if err := si.f.Sync(); err != nil {
		return core.ClassifyDurability(err)
	}
	m.synced = si.size
	return nil
}

// HeadMark returns the durable watermark for the manifest. Call after Sync.
func (m *Manager) HeadMark() Head {
	return Head{Seg: m.active, Off: m.synced}
}

// Read resolves a pointer, verifying bounds, checksum, and that the record
// belongs to key. Every failure is a typed corrupt error: by the install
// ordering (vlog sync before manifest commit, segment removal only after
// repoints install) a reachable pointer always resolves.
func (m *Manager) Read(ptr core.VlogPtr, key uint64) ([]byte, error) {
	si, ok := m.segs[ptr.Seg]
	if !ok {
		return nil, core.Corrupt(fmt.Errorf("vlog: pointer into missing segment %d", ptr.Seg))
	}
	end := int64(ptr.Off) + int64(recOverhead) + int64(ptr.Len)
	if end > si.size {
		return nil, core.Corrupt(fmt.Errorf("vlog: pointer [%d+%d] past segment %d valid prefix %d", ptr.Off, ptr.Len, ptr.Seg, si.size))
	}
	buf := make([]byte, int(recOverhead)+int(ptr.Len))
	if _, err := si.f.ReadAt(buf, int64(ptr.Off)); err != nil {
		return nil, core.Corrupt(err)
	}
	k, val, _, ok := DecodeRecord(buf, ptr.Seg)
	if !ok || k != key || uint32(len(val)) != ptr.Len {
		return nil, core.Corrupt(fmt.Errorf("vlog: record at seg %d off %d fails verification for key %d", ptr.Seg, ptr.Off, key))
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out, nil
}

// Validate bounds-checks a pointer without reading the value. Recovery uses
// it to vet every pointer an SSTable carries: a pointer into a missing
// segment is legal (the segment was GC'd and the entry is shadowed by a
// newer one), but a pointer past a live segment's valid prefix can only
// mean lost durable data.
func (m *Manager) Validate(ptr core.VlogPtr) error {
	si, ok := m.segs[ptr.Seg]
	if !ok {
		return nil
	}
	if int64(ptr.Off)+int64(recOverhead)+int64(ptr.Len) > si.size {
		return core.Corrupt(fmt.Errorf("vlog: pointer [%d+%d] past segment %d valid prefix %d", ptr.Off, ptr.Len, ptr.Seg, si.size))
	}
	return nil
}

// Scan walks every valid record of a segment in order.
func (m *Manager) Scan(id uint32, fn func(key uint64, ptr core.VlogPtr, val []byte) error) error {
	si, ok := m.segs[id]
	if !ok {
		return fmt.Errorf("vlog: scan of missing segment %d", id)
	}
	data := make([]byte, si.size)
	if si.size > 0 {
		if _, err := si.f.ReadAt(data, 0); err != nil {
			return err
		}
	}
	off := int64(0)
	for off < si.size {
		key, val, n, ok := DecodeRecord(data[off:], id)
		if !ok {
			return core.Corrupt(fmt.Errorf("vlog: invalid record at seg %d off %d inside valid prefix", id, off))
		}
		ptr := core.VlogPtr{Seg: id, Off: uint32(off), Len: uint32(len(val))}
		if err := fn(key, ptr, val); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// Discard reports n more bytes of segment id as dead (dropped or superseded
// pointers seen by compaction, aborted writes, GC repoints).
func (m *Manager) Discard(id uint32, n int64) {
	if si, ok := m.segs[id]; ok {
		si.discard += n
		if si.discard > si.size {
			si.discard = si.size
		}
	}
}

// DiscardOf returns the discard estimate for one record: its full on-log
// footprint.
func DiscardOf(ptr core.VlogPtr) int64 { return int64(recOverhead) + int64(ptr.Len) }

// PickVictim returns the sealed segment with the highest dead ratio, if any
// reaches minRatio. The active segment is never a victim.
func (m *Manager) PickVictim(minRatio float64) (uint32, bool) {
	var best uint32
	bestRatio := minRatio
	ids := make([]uint32, 0, len(m.segs))
	for id := range m.segs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		si := m.segs[id]
		if id == m.active || si.size == 0 {
			continue
		}
		if r := float64(si.discard) / float64(si.size); r >= bestRatio {
			best, bestRatio = id, r
		}
	}
	return best, best != 0
}

// Remove deletes a segment and counts its bytes as reclaimed.
func (m *Manager) Remove(id uint32) error { return m.removeSeg(id, true) }

func (m *Manager) removeSeg(id uint32, reclaim bool) error {
	si, ok := m.segs[id]
	if !ok {
		return nil
	}
	if err := m.b.Remove(id); err != nil {
		return err
	}
	if reclaim {
		m.reclaimed += si.size
	}
	delete(m.segs, id)
	if id == m.active {
		m.active, m.synced = 0, 0
		for sid := range m.segs {
			if sid > m.active {
				m.active = sid
			}
		}
		if m.active != 0 {
			m.synced = m.segs[m.active].size
		}
	}
	return nil
}

// Has reports whether a segment is live.
func (m *Manager) Has(id uint32) bool { _, ok := m.segs[id]; return ok }

// NoteGCRun counts one completed GC pass.
func (m *Manager) NoteGCRun() { m.gcRuns++ }

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	st := Stats{Segments: len(m.segs), Reclaimed: m.reclaimed, Appends: m.appends, GCRuns: m.gcRuns}
	for _, si := range m.segs {
		st.Bytes += si.size
		st.Discard += si.discard
	}
	return st
}

// Bytes returns the live segment byte total (storage-footprint accounting).
func (m *Manager) Bytes() int64 {
	var n int64
	for _, si := range m.segs {
		n += si.size
	}
	return n
}
