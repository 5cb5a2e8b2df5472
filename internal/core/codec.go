package core

import (
	"encoding/binary"
	"fmt"
)

// Inline tuple encoding: every field inlined, variable-length fields
// prefixed with their length. This is the "HDD/SSD-optimized format where
// all the tuple's fields are inlined" (§3.2) used by the CoW engine's tree,
// SSTables, checkpoints, and WAL before/after images.

// EncodeRow serializes a full row in inline format.
func EncodeRow(s *Schema, row []Value) []byte {
	n := 0
	for i, c := range s.Columns {
		if c.Type == TInt {
			n += 8
		} else {
			n += 4 + len(row[i].S)
		}
	}
	out := make([]byte, 0, n)
	for i, c := range s.Columns {
		if c.Type == TInt {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(row[i].I))
			out = append(out, b[:]...)
		} else {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(len(row[i].S)))
			out = append(out, b[:]...)
			out = append(out, row[i].S...)
		}
	}
	return out
}

// DecodeRow parses an inline-format row.
func DecodeRow(s *Schema, b []byte) ([]Value, error) {
	row := make([]Value, len(s.Columns))
	off := 0
	for i, c := range s.Columns {
		if c.Type == TInt {
			if off+8 > len(b) {
				return nil, fmt.Errorf("core: truncated int column %d", i)
			}
			row[i].I = int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		} else {
			if off+4 > len(b) {
				return nil, fmt.Errorf("core: truncated string header %d", i)
			}
			ln := int(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			if off+ln > len(b) {
				return nil, fmt.Errorf("core: truncated string column %d", i)
			}
			row[i].S = append([]byte(nil), b[off:off+ln]...)
			off += ln
		}
	}
	return row, nil
}

// Delta encoding: a bitmask-free compact form listing (column, value) pairs,
// used for WAL update images and log-structured update entries.

// EncodeDelta serializes a partial update.
func EncodeDelta(s *Schema, upd Update) []byte {
	out := []byte{byte(len(upd.Cols))}
	for j, ci := range upd.Cols {
		out = append(out, byte(ci))
		c := s.Columns[ci]
		if c.Type == TInt {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(upd.Vals[j].I))
			out = append(out, b[:]...)
		} else {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(len(upd.Vals[j].S)))
			out = append(out, b[:]...)
			out = append(out, upd.Vals[j].S...)
		}
	}
	return out
}

// DecodeDelta parses a partial update.
func DecodeDelta(s *Schema, b []byte) (Update, error) {
	var upd Update
	if len(b) < 1 {
		return upd, fmt.Errorf("core: empty delta")
	}
	n := int(b[0])
	off := 1
	for j := 0; j < n; j++ {
		if off >= len(b) {
			return upd, fmt.Errorf("core: truncated delta entry %d", j)
		}
		ci := int(b[off])
		off++
		if ci >= len(s.Columns) {
			return upd, fmt.Errorf("core: delta column %d out of range", ci)
		}
		var v Value
		if s.Columns[ci].Type == TInt {
			if off+8 > len(b) {
				return upd, fmt.Errorf("core: truncated delta int")
			}
			v.I = int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		} else {
			if off+4 > len(b) {
				return upd, fmt.Errorf("core: truncated delta header")
			}
			ln := int(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			if off+ln > len(b) {
				return upd, fmt.Errorf("core: truncated delta string")
			}
			v.S = append([]byte(nil), b[off:off+ln]...)
			off += ln
		}
		upd.Cols = append(upd.Cols, ci)
		upd.Vals = append(upd.Vals, v)
	}
	return upd, nil
}

// ApplyDelta overwrites the updated columns of row in place.
func ApplyDelta(row []Value, upd Update) {
	for j, ci := range upd.Cols {
		row[ci] = upd.Vals[j]
	}
}

// CloneRow deep-copies a row.
func CloneRow(row []Value) []Value {
	out := make([]Value, len(row))
	for i, v := range row {
		out[i].I = v.I
		if v.S != nil {
			out[i].S = append([]byte(nil), v.S...)
		}
	}
	return out
}

// RowsEqual reports whether two rows match under the schema.
func RowsEqual(s *Schema, a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i, c := range s.Columns {
		if c.Type == TInt {
			if a[i].I != b[i].I {
				return false
			}
		} else if string(a[i].S) != string(b[i].S) {
			return false
		}
	}
	return true
}

// Composite secondary-index keys: a 32-bit secondary key and a 32-bit
// primary key packed into one unique uint64, so duplicate secondary keys
// coexist and equal-secondary lookups become range scans.

// SecComposite packs (sec, pk) into a composite index key.
func SecComposite(sec uint32, pk uint64) uint64 {
	return uint64(sec)<<32 | (pk & 0xffffffff)
}

// SecRange returns the composite-key range [lo, hi) covering all entries
// with the given secondary key.
func SecRange(sec uint32) (lo, hi uint64) {
	return uint64(sec) << 32, (uint64(sec) + 1) << 32
}

// SecPK extracts the primary key from a composite key.
func SecPK(composite uint64) uint64 { return composite & 0xffffffff }

// SecFix is one change an operation makes to a secondary index: the entry
// (Sec, PK) of index Idx is added or removed. Each engine maps it onto its own
// tree key: Composite, or TreeSecondary in a packed tree.
type SecFix struct {
	Idx int
	Add bool
	Sec uint32
	PK  uint64
}

// Composite returns the fix's key in a composite-keyed index tree.
func (f SecFix) Composite() uint64 { return SecComposite(f.Sec, f.PK) }

// SecFixes appends the secondary-index changes of an operation that takes
// tuple pk from row old to row now. An insert passes no old row, a delete no
// new row, and an update yields only the indexes whose key changed, each
// removal before its add.
func (s *Schema) SecFixes(fixes []SecFix, pk uint64, old, now []Value) []SecFix {
	for j, ix := range s.Secondary {
		var was, is uint32
		if old != nil {
			was = ix.SecKey(old)
		}
		if now != nil {
			is = ix.SecKey(now)
		}
		if old != nil && (now == nil || was != is) {
			fixes = append(fixes, SecFix{Idx: j, Sec: was, PK: pk})
		}
		if now != nil && (old == nil || was != is) {
			fixes = append(fixes, SecFix{Idx: j, Add: true, Sec: is, PK: pk})
		}
	}
	return fixes
}

// IndexTree is an ordered index of uint64 keys and values (btree, nvbtree):
// a primary index of heap slots, or a secondary index of composite keys
// valued with their primary keys.
type IndexTree interface {
	Get(k uint64) (uint64, bool)
	Iter(from uint64, fn func(k, v uint64) bool)
}

// ScanSecondary is Engine.ScanSecondary for an engine that keeps index j of
// table t as the composite-keyed tree second[t][j].
func ScanSecondary[T IndexTree](b *Base, second [][]T, table, index string, sec uint32, fn func(pk uint64) bool) error {
	tm, err := b.Table(table)
	if err != nil {
		return err
	}
	j, ok := tm.SecPos(index)
	if !ok {
		return fmt.Errorf("core: unknown index %q", index)
	}
	defer b.Bd.Timer(&b.Bd.Index)()
	lo, hi := SecRange(sec)
	second[tm.ID][j].Iter(lo, func(k, pk uint64) bool { return k < hi && fn(pk) })
	return nil
}

// Packed tree keys for the CoW engines, which keep every table and index of
// a partition in one copy-on-write B+tree so a transaction's changes across
// tables commit atomically under a single master record (§3.2); the log
// engines reuse the same packing for their index trees. Layout:
// [63:59] table, [58:56] index+1 (0 = primary), then the payload:
// primary keys get 56 bits; secondary entries pack a 32-bit secondary key
// and a 24-bit primary key. The 5-bit table field holds 32 tables — 2PC
// augmentation (txn2pc.AugmentSchemas) shadows every user table with a
// lock table, which overflowed the original 4-bit field on TPC-C and
// silently aliased distinct tables' keys; ValidatePacked makes any future
// overflow a typed open-time error instead.

// MaxPackedTables is the table capacity of the packed tree-key layout.
const MaxPackedTables = 32

// MaxPackedIndexes is the per-table secondary-index capacity of the packed
// layout (index+1 must fit in 3 bits).
const MaxPackedIndexes = 7

// ValidatePacked rejects schema sets that overflow the packed tree-key
// budget. Engines that store a partition in one packed-key tree call this
// at construction: overflowing the field widths would not fail — it would
// alias different tables' keys onto each other.
func ValidatePacked(schemas []*Schema) error {
	if len(schemas) > MaxPackedTables {
		return fmt.Errorf("core: %d tables exceed the packed tree-key budget of %d", len(schemas), MaxPackedTables)
	}
	for _, s := range schemas {
		if len(s.Secondary) > MaxPackedIndexes {
			return fmt.Errorf("core: table %s: %d secondary indexes exceed the packed tree-key budget of %d", s.Name, len(s.Secondary), MaxPackedIndexes)
		}
	}
	return nil
}

// TreePrimary builds the tree key of a primary tuple.
func TreePrimary(table int, pk uint64) uint64 {
	return uint64(table)<<59 | pk&0x00ffffffffffffff
}

// TreeSecondary builds the tree key of a secondary-index entry. Primary
// keys of secondary-indexed tables fit in 24 bits (TableMeta.CheckKey).
func TreeSecondary(table, index int, sec uint32, pk uint64) uint64 {
	return uint64(table)<<59 | uint64(index+1)<<56 | uint64(sec)<<24 | pk&0xffffff
}

// TreeSecRange returns the key range covering one secondary key's entries.
func TreeSecRange(table, index int, sec uint32) (lo, hi uint64) {
	base := uint64(table)<<59 | uint64(index+1)<<56
	return base | uint64(sec)<<24, base | (uint64(sec)+1)<<24
}

// TreePrimaryRange returns the key range covering a table's primary tuples
// with pk in [from, to).
func TreePrimaryRange(table int, from, to uint64) (lo, hi uint64) {
	return TreePrimary(table, from), TreePrimary(table, to)
}

// TreeTable extracts the table id from any packed tree key (primary or
// secondary). Always use this rather than shifting by hand: the field
// widths are layout-private and have changed once already.
func TreeTable(k uint64) int { return int(k >> 59) }

// TreeSecPK extracts the 24-bit primary key from a secondary tree key.
func TreeSecPK(k uint64) uint64 { return k & 0xffffff }

// TreePK extracts the primary key from a primary tree key.
func TreePK(k uint64) uint64 { return k & 0x00ffffffffffffff }
