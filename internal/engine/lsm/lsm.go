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
// the value log. MergeR only invokes it when a delta must be applied on top
// of a separated image — untouched pointers flow through compaction without
// touching their values, which is the point of the separation.
type Resolver func(key uint64, e Entry) (Entry, error)

// KnownKind reports whether kind is one of the four entry kinds. An entry
// read back from a MemTable chunk or a run with any other kind byte is
// corrupt: taken for a live delta or image it would make a key exist that
// no write made.
func KnownKind(kind uint8) bool { return kind >= KindFull && kind <= KindFullPtr }

// corrupt is the error for the entry of key that does not decode.
func corrupt(key uint64, what string, e Entry) error {
	return core.Corrupt(fmt.Errorf("lsm: key %d: %s (kind %d, %d bytes)", key, what, e.Kind, len(e.Payload)))
}

// MergeR folds a newer entry over an older one, producing the equivalent
// single entry; it is associative in application order (newest first).
// Applying a delta over a separated image reads the value through resolve,
// applies the delta, and yields an inline full image; every other
// KindFullPtr passes through opaquely. An entry of no known kind, a payload
// that does not decode, and a separated image a delta must land on with no
// resolver are core.ErrCorrupt, as are resolver errors.
func MergeR(s *core.Schema, key uint64, newer, older Entry, resolve Resolver) (Entry, error) {
	switch newer.Kind {
	case KindFull, KindTomb, KindFullPtr:
		return newer, nil
	case KindDelta:
	default:
		return Entry{}, corrupt(key, "unknown entry kind", newer)
	}
	if older.Kind == KindFullPtr {
		if resolve == nil {
			return Entry{}, corrupt(key, "separated image with no value log", older)
		}
		full, err := resolve(key, older)
		if err != nil {
			return Entry{}, err
		}
		older = full
	}
	upd, err := core.DecodeDelta(s, newer.Payload)
	if err != nil {
		return Entry{}, corrupt(key, "undecodable delta", newer)
	}
	switch older.Kind {
	case KindFull:
		row, err := core.DecodeRow(s, older.Payload)
		if err != nil {
			return Entry{}, corrupt(key, "undecodable full image", older)
		}
		core.ApplyDelta(row, upd)
		return Entry{Kind: KindFull, Payload: core.EncodeRow(s, row)}, nil
	case KindDelta:
		oldUpd, err := core.DecodeDelta(s, older.Payload)
		if err != nil {
			return Entry{}, corrupt(key, "undecodable delta", older)
		}
		// Newer columns win; older columns not overwritten survive.
		merged := core.Update{}
		seen := make(map[int]bool)
		for j, ci := range upd.Cols {
			merged.Cols = append(merged.Cols, ci)
			merged.Vals = append(merged.Vals, upd.Vals[j])
			seen[ci] = true
		}
		for j, ci := range oldUpd.Cols {
			if !seen[ci] {
				merged.Cols = append(merged.Cols, ci)
				merged.Vals = append(merged.Vals, oldUpd.Vals[j])
			}
		}
		return Entry{Kind: KindDelta, Payload: core.EncodeDelta(s, merged)}, nil
	case KindTomb:
		// A delta is only ever written over a live tuple.
		return Entry{}, corrupt(key, "delta over a tombstone", newer)
	default:
		return Entry{}, corrupt(key, "unknown entry kind", older)
	}
}

// CoalesceR reconstructs the current tuple from entries ordered newest
// first (the paper's tuple-coalescing read path), materializing a separated
// image that ends up the terminal entry (or that a delta must land on)
// through resolve. It reports:
//
//	row, true, true   — the key exists with this row
//	nil, false, true  — the key is deleted (resolved by a tombstone)
//	nil, false, false — unresolved: only deltas seen, caller must read
//	                    deeper runs
//
// Everything MergeR refuses, and a terminal full image that does not
// decode, is core.ErrCorrupt.
func CoalesceR(s *core.Schema, key uint64, entries []Entry, resolve Resolver) (row []core.Value, exists bool, resolved bool, err error) {
	if len(entries) == 0 {
		return nil, false, false, nil
	}
	acc := entries[0]
	for _, e := range entries[1:] {
		if acc.Kind != KindDelta {
			break
		}
		if acc, err = MergeR(s, key, acc, e, resolve); err != nil {
			return nil, false, false, err
		}
	}
	if acc.Kind == KindFullPtr {
		if resolve == nil {
			return nil, false, false, corrupt(key, "separated image with no value log", acc)
		}
		if acc, err = resolve(key, acc); err != nil {
			return nil, false, false, err
		}
	}
	switch acc.Kind {
	case KindTomb:
		return nil, false, true, nil
	case KindFull:
		r, derr := core.DecodeRow(s, acc.Payload)
		if derr != nil {
			return nil, false, false, corrupt(key, "undecodable full image", acc)
		}
		return r, true, true, nil
	case KindDelta:
		if _, derr := core.DecodeDelta(s, acc.Payload); derr != nil {
			return nil, false, false, corrupt(key, "undecodable delta", acc)
		}
		return nil, false, false, nil
	default:
		return nil, false, false, corrupt(key, "unknown entry kind", acc)
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

// ReadEntryKind reads only the kind byte of the entry stored at p, checked
// as ReadEntryChunk checks it: all a liveness probe needs.
func ReadEntryKind(a *pmalloc.Arena, p uint64) (uint8, error) {
	if !a.Holds(p, entryChunkHdr) {
		return 0, core.Corrupt(fmt.Errorf("lsm: entry chunk %d lies outside the arena", p))
	}
	kind := a.Device().ReadU8(int64(p))
	if !KnownKind(kind) {
		return 0, core.Corrupt(fmt.Errorf("lsm: entry chunk %d holds kind %d", p, kind))
	}
	return kind, nil
}

// ReadEntryChunk reads the entry stored at p. The pointer, and the length
// word behind it, come from an image: one written with a fence missing may
// hold anything, so what does not fit in the arena's used extent, or a kind
// byte of no known kind, is a corrupt error, not a read.
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
	if !KnownKind(b[0]) {
		return Entry{}, core.Corrupt(fmt.Errorf("lsm: entry chunk %d holds kind %d", p, b[0]))
	}
	payload := make([]byte, n)
	d.Read(int64(p)+entryChunkHdr, payload)
	return Entry{Kind: b[0], Payload: payload}, nil
}
