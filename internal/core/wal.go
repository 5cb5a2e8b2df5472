package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// walTable is the CRC polynomial table for WAL record checksums.
var walTable = crc32.MakeTable(crc32.Castagnoli)

// FsWAL is the filesystem-backed write-ahead log of the traditional engines
// (§3.1, §3.3). Records carry the transaction identifier, the table
// modified, the tuple identifier, and before/after images. To reduce I/O
// overhead, records are buffered and flushed with one fsync per group of
// transactions (group commit).
type FsWAL struct {
	fs   *pmfs.FS
	f    *pmfs.File
	name string

	// Segmented mode (the staged-flush Log engine): the log is a series of
	// files "<prefix>.NNNNNN". Rotation seals the active segment at a
	// group boundary; sealed segments are deleted only after the manifest
	// commit that makes their records redundant (release after install).
	segPrefix string
	segSeq    uint64 // active segment number; 0 = single-file mode

	// The log buffer lives in allocator memory: on the NVM-only hierarchy
	// even "in-memory" buffering is NVM traffic (though unsynced).
	arena  *pmalloc.Arena
	bufPtr pmalloc.Ptr
	bufCap int
	bufLen int
	// scratch mirrors the buffer for cheap record assembly before the
	// single buffered device write.
	scratch []byte

	pendingTxn int // committed txns whose records are still buffered
	groupSize  int

	// Cumulative metrics in atomic cells: the owner appends and flushes
	// while a metrics scraper reads Stats from another goroutine.
	records atomic.Int64 // records appended (including later-dropped tails)
	bytes   atomic.Int64 // record bytes appended
	fsyncs  atomic.Int64 // durable group-commit flushes
}

// WalStats is a scraper-safe snapshot of a WAL's cumulative counters.
type WalStats struct {
	// Records and Bytes count appended log records and their encoded size,
	// including records of transactions that later aborted (their buffer
	// tail is dropped, but the append work happened).
	Records int64
	Bytes   int64
	// Fsyncs counts successful group-commit flushes.
	Fsyncs int64
}

// Stats returns the WAL's cumulative counters. Safe from any goroutine.
func (w *FsWAL) Stats() WalStats {
	return WalStats{
		Records: w.records.Load(),
		Bytes:   w.bytes.Load(),
		Fsyncs:  w.fsyncs.Load(),
	}
}

// WalStatser is implemented by engines that expose their WAL's counters:
// inp and log, and nvm-log, whose counters stay zero (it shares log's
// engine but keeps no FsWAL). nvm-inp does not implement it.
type WalStatser interface {
	WalStats() WalStats
}

// WAL record types.
const (
	WalInsert uint8 = iota + 1
	WalUpdate
	WalDelete
	WalCommit
)

// WalRecord is a parsed WAL record.
type WalRecord struct {
	Type   uint8
	TxnID  uint64
	Table  int
	Key    uint64
	Before []byte
	After  []byte
}

// NewFsWAL creates (or truncates) the log file name on fs, flushed with one
// fsync per groupSize committed transactions (at least 1). Its buffer is in
// process memory until UseArenaBuffer moves it into an arena.
func NewFsWAL(fs *pmfs.FS, name string, groupSize int) (*FsWAL, error) {
	if fs.Exists(name) {
		if err := fs.Remove(name); err != nil {
			return nil, err
		}
	}
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	if groupSize <= 0 {
		groupSize = 1
	}
	return &FsWAL{fs: fs, f: f, name: name, groupSize: groupSize}, nil
}

// OpenFsWAL opens an existing log for replay.
func OpenFsWAL(fs *pmfs.FS, name string, groupSize int) (*FsWAL, error) {
	f, err := fs.OpenFile(name)
	if err != nil {
		return nil, err
	}
	if groupSize <= 0 {
		groupSize = 1
	}
	return &FsWAL{fs: fs, f: f, name: name, groupSize: groupSize}, nil
}

// walSegName spells the file name of one WAL segment.
func walSegName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s.%06d", prefix, seq)
}

// walSegList returns the existing segment numbers for prefix, ascending.
func walSegList(fs *pmfs.FS, prefix string) []uint64 {
	var seqs []uint64
	for _, name := range fs.List() {
		if !strings.HasPrefix(name, prefix+".") {
			continue
		}
		n, err := strconv.ParseUint(name[len(prefix)+1:], 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// NewSegmentedFsWAL creates a fresh segmented log, removing any stale
// segment files of a previous incarnation.
func NewSegmentedFsWAL(fs *pmfs.FS, prefix string, groupSize int) (*FsWAL, error) {
	for _, seq := range walSegList(fs, prefix) {
		if err := fs.Remove(walSegName(prefix, seq)); err != nil {
			return nil, err
		}
	}
	f, err := fs.Create(walSegName(prefix, 1))
	if err != nil {
		return nil, err
	}
	if groupSize <= 0 {
		groupSize = 1
	}
	return &FsWAL{fs: fs, f: f, name: walSegName(prefix, 1), segPrefix: prefix, segSeq: 1, groupSize: groupSize}, nil
}

// OpenSegmentedFsWAL opens an existing segmented log for replay; the
// highest-numbered segment becomes the active one.
func OpenSegmentedFsWAL(fs *pmfs.FS, prefix string, groupSize int) (*FsWAL, error) {
	seqs := walSegList(fs, prefix)
	if len(seqs) == 0 {
		return NewSegmentedFsWAL(fs, prefix, groupSize)
	}
	active := seqs[len(seqs)-1]
	f, err := fs.OpenFile(walSegName(prefix, active))
	if err != nil {
		return nil, err
	}
	if groupSize <= 0 {
		groupSize = 1
	}
	return &FsWAL{fs: fs, f: f, name: walSegName(prefix, active), segPrefix: prefix, segSeq: active, groupSize: groupSize}, nil
}

// Rotate seals the active segment and starts a new one, returning the
// sealed segment's number. The buffer is flushed first, so a transaction's
// records never span segments: rotation only happens at group boundaries.
func (w *FsWAL) Rotate() (sealed uint64, err error) {
	if w.segSeq == 0 {
		return 0, errors.New("wal: Rotate on single-file log")
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	next := w.segSeq + 1
	f, err := w.fs.Create(walSegName(w.segPrefix, next))
	if err != nil {
		return 0, ClassifyDurability(err)
	}
	sealed = w.segSeq
	w.f, w.name, w.segSeq = f, walSegName(w.segPrefix, next), next
	return sealed, nil
}

// ReleaseThrough deletes sealed segments numbered <= seq. The engine calls
// this only after the manifest commit that installed the flushed data those
// segments protected — release strictly after install.
func (w *FsWAL) ReleaseThrough(seq uint64) error {
	for _, s := range walSegList(w.fs, w.segPrefix) {
		if s <= seq && s != w.segSeq {
			if err := w.fs.Remove(walSegName(w.segPrefix, s)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplaySegments is Replay for a segmented log: segments are walked in
// order, each with its own committed-set pass and torn-tail truncation (a
// transaction never spans segments, so the commit-record scope is one
// segment).
func (w *FsWAL) ReplaySegments(minTxn uint64, fn func(r WalRecord) error) (maxTxn uint64, err error) {
	for _, seq := range walSegList(w.fs, w.segPrefix) {
		f := w.f
		if seq != w.segSeq {
			var err error
			f, err = w.fs.OpenFile(walSegName(w.segPrefix, seq))
			if err != nil {
				return maxTxn, err
			}
		}
		segMax, err := replayFile(f, minTxn, fn)
		if segMax > maxTxn {
			maxTxn = segMax
		}
		if err != nil {
			return maxTxn, err
		}
	}
	return maxTxn, nil
}

// UseArenaBuffer places the log buffer in allocator memory so buffered
// appends count as NVM traffic, as on the paper's NVM-only hierarchy.
func (w *FsWAL) UseArenaBuffer(arena *pmalloc.Arena) error {
	const initial = 256 << 10
	p, err := arena.Alloc(initial, pmalloc.TagLog)
	if err != nil {
		return err
	}
	w.arena, w.bufPtr, w.bufCap = arena, p, initial
	return nil
}

// bufAppend appends record bytes to the buffer (device-resident if an
// arena was attached).
func (w *FsWAL) bufAppend(b []byte) {
	w.scratch = append(w.scratch, b...)
	if w.arena != nil {
		for w.bufLen+len(b) > w.bufCap {
			// Grow the device-resident buffer.
			np, err := w.arena.Alloc(w.bufCap*2, pmalloc.TagLog)
			if err != nil {
				// Out of arena: fall back to process memory for the rest.
				w.arena = nil
				return
			}
			old := make([]byte, w.bufLen)
			w.arena.Device().Read(int64(w.bufPtr), old)
			w.arena.Device().Write(int64(np), old)
			w.arena.Free(w.bufPtr)
			w.bufPtr = np
			w.bufCap *= 2
		}
		w.arena.Device().Write(int64(w.bufPtr)+int64(w.bufLen), b)
	}
	w.bufLen += len(b)
}

// Append buffers a record. It becomes durable at the next group-commit
// flush.
func (w *FsWAL) Append(r WalRecord) {
	// size u32 | crc u32 | type u8 | table u8 | txnid u64 | key u64 |
	// beforeLen u32 | before | afterLen u32 | after
	//
	// crc covers the body. A crash can leave the file tail holding a torn
	// append or stale bytes from a reused extent; the checksum lets replay
	// tell a valid record from debris.
	body := 1 + 1 + 8 + 8 + 4 + len(r.Before) + 4 + len(r.After)
	rec := make([]byte, 0, 8+body)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(body))
	rec = append(rec, hdr[:]...)
	rec = append(rec, r.Type, uint8(r.Table))
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], r.TxnID)
	rec = append(rec, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], r.Key)
	rec = append(rec, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(r.Before)))
	rec = append(rec, b4[:]...)
	rec = append(rec, r.Before...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(r.After)))
	rec = append(rec, b4[:]...)
	rec = append(rec, r.After...)
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[8:], walTable))
	w.bufAppend(rec)
	w.records.Add(1)
	w.bytes.Add(int64(len(rec)))
}

// TxnCommitted appends the commit record and flushes if the group is full.
func (w *FsWAL) TxnCommitted(txnID uint64) error {
	w.Append(WalRecord{Type: WalCommit, TxnID: txnID})
	w.pendingTxn++
	if w.pendingTxn >= w.groupSize {
		return w.Flush()
	}
	return nil
}

// DropTail discards buffered records of an aborted transaction. With
// serial execution the aborted txn's records are the buffer tail after the
// last commit record; the engine calls this before appending anything for
// the next transaction, passing the buffer length at txn begin.
func (w *FsWAL) DropTail(mark int) {
	if mark <= w.bufLen {
		w.bufLen = mark
		w.scratch = w.scratch[:mark]
	}
}

// Mark returns the current buffer position (for DropTail).
func (w *FsWAL) Mark() int { return w.bufLen }

// PendingTxns returns the number of committed transactions whose records
// are still in the volatile group buffer. Zero means the last TxnCommitted
// reached the durability barrier — engines use this to decide whether a
// commit may publish MVCC versions immediately or must wait for Flush.
func (w *FsWAL) PendingTxns() int { return w.pendingTxn }

// Flush appends the buffer to the log file and fsyncs (the group commit).
//
// Failure leaves the WAL retryable: the buffer is kept intact and the file
// is rewound to its pre-append size, so no half-appended group can later be
// made durable by an unrelated successful fsync (which would resurrect
// commit records of transactions that were reported failed). Transient sync
// failures come back tagged ErrRetryable; if even the rewind fails the
// error is tagged ErrCorrupt and the engine instance must be recovered.
func (w *FsWAL) Flush() error {
	pre := w.f.Size()
	appended := false
	if w.bufLen > 0 {
		if _, err := w.f.Append(w.scratch[:w.bufLen]); err != nil {
			if terr := w.f.Truncate(pre); terr != nil {
				return Corrupt(errors.Join(err, terr))
			}
			return ClassifyDurability(err)
		}
		appended = true
	}
	if err := w.f.Sync(); err != nil {
		if appended {
			if terr := w.f.Truncate(pre); terr != nil {
				return Corrupt(errors.Join(err, terr))
			}
		}
		return ClassifyDurability(err)
	}
	if appended {
		// A group that used under a quarter of the buffer lets it go: a bulk
		// load's groups would otherwise pin their high-water mark for good.
		if w.bufLen < cap(w.scratch)/4 {
			w.scratch = nil
		} else {
			w.scratch = w.scratch[:0]
		}
		w.bufLen = 0
	}
	w.fsyncs.Add(1)
	w.pendingTxn = 0
	return nil
}

// Replay parses the durable log and calls fn for every record of a
// committed transaction with TxnID > minTxn, in log order. Records of
// transactions without a commit record (in-flight at the crash) are
// skipped, implementing the "changes made by uncommitted transactions are
// not propagated" rule; minTxn filters records already covered by a
// checkpoint or SSTable flush, which can resurface when a truncated log's
// extents are reused. Replay stops at the first torn or corrupt record and
// truncates the durable file back to the valid prefix, so later appends
// never land beyond crash debris. It returns the highest TxnID seen in any
// valid record (committed or not); the engine must restart its TxnID
// counter above it so old in-flight records can never pair with a new
// commit record.
func (w *FsWAL) Replay(minTxn uint64, fn func(r WalRecord) error) (maxTxn uint64, err error) {
	return replayFile(w.f, minTxn, fn)
}

// replayFile runs the two-pass replay over one log file.
func replayFile(f *pmfs.File, minTxn uint64, fn func(r WalRecord) error) (maxTxn uint64, err error) {
	size := f.Size()
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			return 0, err
		}
	}
	// Pass 1: find committed txns and the valid prefix length.
	committed := make(map[uint64]bool)
	valid, _ := walkRecords(data, func(r WalRecord) error {
		if r.TxnID > maxTxn {
			maxTxn = r.TxnID
		}
		if r.Type == WalCommit {
			committed[r.TxnID] = true
		}
		return nil
	})
	if int64(valid) < size {
		// Crash debris past the valid prefix: cut it off durably before the
		// engine appends anything new behind it.
		if err := f.Truncate(int64(valid)); err != nil {
			return maxTxn, err
		}
	}
	// Pass 2: redo committed records in order.
	_, err = walkRecords(data[:valid], func(r WalRecord) error {
		if r.Type != WalCommit && committed[r.TxnID] && r.TxnID > minTxn {
			return fn(r)
		}
		return nil
	})
	return maxTxn, err
}

// walkRecords parses records from data until the first torn or corrupt
// record, returning the length of the valid prefix. Damage is expected
// after a crash (unflushed group tails, reused extents) and simply ends the
// walk; only fn errors propagate.
func walkRecords(data []byte, fn func(r WalRecord) error) (valid int, err error) {
	off := 0
	for off+8 <= len(data) {
		body := int(binary.LittleEndian.Uint32(data[off:]))
		if body < 26 || off+8+body > len(data) {
			return off, nil
		}
		crc := binary.LittleEndian.Uint32(data[off+4:])
		rec := data[off+8 : off+8+body]
		if crc32.Checksum(rec, walTable) != crc {
			return off, nil
		}
		r := WalRecord{
			Type:  rec[0],
			Table: int(rec[1]),
			TxnID: binary.LittleEndian.Uint64(rec[2:]),
			Key:   binary.LittleEndian.Uint64(rec[10:]),
		}
		bl := int(binary.LittleEndian.Uint32(rec[18:]))
		if 22+bl > body {
			return off, nil
		}
		r.Before = rec[22 : 22+bl]
		al := int(binary.LittleEndian.Uint32(rec[22+bl:]))
		if 26+bl+al > body {
			return off, nil
		}
		r.After = rec[26+bl : 26+bl+al]
		if r.Type == 0 || r.Type > WalCommit {
			return off, nil
		}
		off += 8 + body
		if err := fn(r); err != nil {
			return off, err
		}
	}
	return off, nil
}

// Truncate discards the durable log (after a checkpoint).
func (w *FsWAL) Truncate() error {
	w.bufLen = 0
	w.scratch = w.scratch[:0]
	w.pendingTxn = 0
	return w.f.Truncate(0)
}

// SizeBytes returns the durable log size (Fig. 14) — across all live
// segments in segmented mode.
func (w *FsWAL) SizeBytes() int64 {
	if w.segSeq == 0 {
		return w.f.Size()
	}
	var total int64
	for _, seq := range walSegList(w.fs, w.segPrefix) {
		if n, err := w.fs.FileSize(walSegName(w.segPrefix, seq)); err == nil {
			total += n
		}
	}
	return total
}
