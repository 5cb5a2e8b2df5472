// Package lsm holds the log-structured-update machinery shared by the Log
// engine (§3.3) and the NVM-Log engine (§4.3): the entry model recording
// changes performed on tuples (full images for inserts, updated fields for
// updates, tombstone markers for deletes) and the coalescing logic that
// reconstructs a tuple from entries spread across LSM runs.
package lsm

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/core"
	"nstore/internal/pmalloc"
)

// Entry kinds.
const (
	KindFull    uint8 = 1 // full tuple image (insert)
	KindDelta   uint8 = 2 // updated fields only (update)
	KindTomb    uint8 = 3 // tombstone (delete)
	KindFullPtr uint8 = 4 // full image separated into the value log
)

// Entry is one change record for a key.
type Entry struct {
	Kind    uint8
	Payload []byte // KindFull: inline row; KindDelta: delta; KindTomb: empty;
	// KindFullPtr: 12-byte core.VlogPtr
}

// Resolver materializes a KindFullPtr entry into a KindFull one by reading
// the value log. Merge only invokes it when a delta must be applied on top
// of a separated image — untouched pointers flow through compaction without
// touching their values, which is the point of the separation.
type Resolver func(key uint64, e Entry) (Entry, error)

// Merge folds a newer entry over an older one, producing the equivalent
// single entry. It is associative in application order (newest first).
// KindFullPtr entries pass through opaquely; use MergeR when a resolver is
// available.
func Merge(s *core.Schema, newer, older Entry) Entry {
	e, _ := MergeR(s, 0, newer, older, nil)
	return e
}

// MergeR is Merge with value-log resolution: applying a delta over a
// separated image reads the value, applies the delta, and yields an inline
// full image. Resolver errors (a corrupt value-log record) propagate.
func MergeR(s *core.Schema, key uint64, newer, older Entry, resolve Resolver) (Entry, error) {
	switch newer.Kind {
	case KindFull, KindTomb, KindFullPtr:
		return newer, nil
	case KindDelta:
		if older.Kind == KindFullPtr {
			if resolve == nil {
				// No resolver: leave the delta unresolved so the caller
				// keeps reading deeper entries (matches the unknown-kind
				// behaviour below).
				return newer, nil
			}
			full, err := resolve(key, older)
			if err != nil {
				return Entry{}, err
			}
			older = full
		}
		switch older.Kind {
		case KindFull:
			row, err := core.DecodeRow(s, older.Payload)
			if err != nil {
				return newer, nil
			}
			upd, err := core.DecodeDelta(s, newer.Payload)
			if err != nil {
				return newer, nil
			}
			core.ApplyDelta(row, upd)
			return Entry{Kind: KindFull, Payload: core.EncodeRow(s, row)}, nil
		case KindDelta:
			oldUpd, err1 := core.DecodeDelta(s, older.Payload)
			newUpd, err2 := core.DecodeDelta(s, newer.Payload)
			if err1 != nil || err2 != nil {
				return newer, nil
			}
			// Newer columns win; older columns not overwritten survive.
			merged := core.Update{}
			seen := make(map[int]bool)
			for j, ci := range newUpd.Cols {
				merged.Cols = append(merged.Cols, ci)
				merged.Vals = append(merged.Vals, newUpd.Vals[j])
				seen[ci] = true
			}
			for j, ci := range oldUpd.Cols {
				if !seen[ci] {
					merged.Cols = append(merged.Cols, ci)
					merged.Vals = append(merged.Vals, oldUpd.Vals[j])
				}
			}
			return Entry{Kind: KindDelta, Payload: core.EncodeDelta(s, merged)}, nil
		default:
			return newer, nil
		}
	}
	return newer, nil
}

// Coalesce reconstructs the current tuple from entries ordered newest
// first (the paper's tuple-coalescing read path). It reports:
//
//	row, true, true   — the key exists with this row
//	nil, false, true  — the key is deleted (resolved by a tombstone)
//	nil, false, false — unresolved: only deltas seen, caller must read
//	                    deeper runs
func Coalesce(s *core.Schema, entries []Entry) (row []core.Value, exists bool, resolved bool) {
	row, exists, resolved, _ = CoalesceR(s, 0, entries, nil)
	return row, exists, resolved
}

// CoalesceR is Coalesce with value-log resolution: a separated image that
// ends up the terminal entry (or that a delta must land on) is materialized
// through the resolver. Resolver errors propagate.
func CoalesceR(s *core.Schema, key uint64, entries []Entry, resolve Resolver) (row []core.Value, exists bool, resolved bool, err error) {
	if len(entries) == 0 {
		return nil, false, false, nil
	}
	acc := entries[0]
	for _, e := range entries[1:] {
		acc, err = MergeR(s, key, acc, e, resolve)
		if err != nil {
			return nil, false, false, err
		}
		if acc.Kind != KindDelta {
			break
		}
	}
	if acc.Kind == KindFullPtr {
		if resolve == nil {
			return nil, false, false, nil
		}
		acc, err = resolve(key, acc)
		if err != nil {
			return nil, false, false, err
		}
	}
	switch acc.Kind {
	case KindTomb:
		return nil, false, true, nil
	case KindFull:
		r, derr := core.DecodeRow(s, acc.Payload)
		if derr != nil {
			return nil, false, true, nil
		}
		return r, true, true, nil
	default:
		return nil, false, false, nil
	}
}

// Entry chunks are how both engines' MemTables hold an Entry in allocator
// memory: kind u8, len u32, payload.
const entryChunkHdr = 5

// entryChunkImage encodes e's chunk image.
func entryChunkImage(e Entry) []byte {
	img := make([]byte, entryChunkHdr+len(e.Payload))
	img[0] = e.Kind
	binary.LittleEndian.PutUint32(img[1:], uint32(len(e.Payload)))
	copy(img[entryChunkHdr:], e.Payload)
	return img
}

// WriteEntryChunk streams e into a new table chunk (pmalloc.Arena.StreamAlloc)
// and leaves it volatile: the Log engine's MemTable is. Table-arena
// exhaustion is reachable from normal traffic: it is returned, so the
// transaction can abort cleanly instead of panicking.
func WriteEntryChunk(a *pmalloc.Arena, e Entry) (pmalloc.Ptr, error) {
	return a.StreamAlloc(pmalloc.TagTable, entryChunkImage(e))
}

// StreamEntryChunk streams e into a table chunk with its persisted mark
// (pmalloc.Arena.StreamPersisted), for an engine whose MemTable is durable:
// chunk and mark are durable at the caller's next fence, and until a tree
// names the chunk it is the caller's sweep's to reclaim.
func StreamEntryChunk(a *pmalloc.Arena, e Entry) (pmalloc.Ptr, error) {
	return a.StreamPersisted(pmalloc.TagTable, entryChunkImage(e))
}

// ReadEntryChunk reads the entry stored at p. The pointer, and the length
// word behind it, come from an image: one written with a fence missing may
// hold anything, so what does not fit in the arena's used extent is a
// corrupt error, not a read.
func ReadEntryChunk(a *pmalloc.Arena, p uint64) (Entry, error) {
	if !a.Holds(p, entryChunkHdr) {
		return Entry{}, core.Corrupt(fmt.Errorf("lsm: entry chunk %d lies outside the arena", p))
	}
	d := a.Device()
	var b [entryChunkHdr]byte
	d.Read(int64(p), b[:])
	n := int(binary.LittleEndian.Uint32(b[1:]))
	if !a.Holds(p, entryChunkHdr+n) {
		return Entry{}, core.Corrupt(fmt.Errorf("lsm: entry chunk %d claims %d bytes", p, n))
	}
	payload := make([]byte, n)
	d.Read(int64(p)+entryChunkHdr, payload)
	return Entry{Kind: b[0], Payload: payload}, nil
}
