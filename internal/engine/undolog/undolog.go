// Package undolog is the write-ahead log NVM-InP (§4.1) and NVM-Log (§4.3)
// share: an undo-only, non-volatile linked list of entries in the allocator's
// arena, newest first, whose head word lives in the engine's header. Each
// operation's changes are durable before the transaction ends, so an empty
// log is the committed state and the head's reset is the commit point; what a
// crash leaves linked is undone at recovery.
//
// The log owns the entry's framing, the secondary-index repair list, the
// two-fence append, the walks, truncation and the entries' frees. The engine
// owns the body it appends and what undoing an entry means. DESIGN.md
// "The undo log" states the format and the protocol.
package undolog

import (
	"encoding/binary"
	"fmt"

	"nstore/internal/core"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// Entry layout (a TagLog chunk):
//
//	 0 next  u64  the entry appended before it (0: none)
//	 8 txn   u64
//	16 type  u8   core.WalInsert / WalUpdate / WalDelete
//	17 table u8
//	18 fixes u8   repair-list records
//	20 body  u16  the engine's body length
//	24 key   u64
//	32 the repair list: fixes x (index u8, op u8, composite u64)
//	   then the engine's body
//
// Undo replays the repair list with absolute, idempotent operations (op 1 =
// was added, undo deletes; op 2 = was removed, undo re-adds), so a crash
// anywhere inside an interrupted undo re-converges.
const (
	oNext  = 0
	oType  = 16
	oTable = 17
	oFixes = 18
	oBody  = 20
	oKey   = 24
	// headerSize is the bytes of an entry ahead of its repair list.
	headerSize = 32
	fixSize    = 10

	opAdded, opRemoved = 1, 2
)

var le = binary.LittleEndian

// Entry is one logged operation.
type Entry struct {
	Type  uint8
	Table int
	Key   uint64
	Fixes []core.SecFix // the secondary-index changes the operation made
	Body  []byte        // the engine's own record
}

// Log is one engine's undo log.
type Log struct {
	arena  *pmalloc.Arena
	dev    *nvm.Device
	head   int64 // device offset of the head word
	tables []*core.TableMeta
	rec    []byte // scratch: the entry being built or read
	// ents are this transaction's entries, oldest first, with their lengths,
	// which free them unread.
	ents []appended
}

type appended struct {
	p pmalloc.Ptr
	n int
}

// New returns the log whose head word is at device offset head, for entries
// of the given tables.
func New(arena *pmalloc.Arena, head int64, tables []*core.TableMeta) *Log {
	return &Log{arena: arena, dev: arena.Device(), head: head, tables: tables}
}

// Append logs an operation: the entry is streamed into a fresh chunk with its
// persisted mark, fenced, and linked with an atomic durable head update — two
// fences, after which undo owns what the entry names. The first fence also
// covers whatever the caller streamed or wrote back before the call. An entry
// a crash leaves marked but unlinked is a persisted log chunk nothing reaches,
// for the engine's sweep. Log-arena exhaustion is reachable from normal
// traffic: it is an error, nothing was written, and the transaction can be
// aborted cleanly.
func (l *Log) Append(txn uint64, ent Entry) error {
	rec := le.AppendUint64(l.rec[:0], l.dev.ReadU64(l.head))
	rec = le.AppendUint64(rec, txn)
	rec = append(rec, ent.Type, uint8(ent.Table), uint8(len(ent.Fixes)), 0)
	rec = append(le.AppendUint16(rec, uint16(len(ent.Body))), 0, 0)
	rec = le.AppendUint64(rec, ent.Key)
	for _, f := range ent.Fixes {
		op := uint8(opRemoved)
		if f.Add {
			op = opAdded
		}
		rec = le.AppendUint64(append(rec, uint8(f.Idx), op), f.Composite())
	}
	rec = append(rec, ent.Body...)
	l.rec = rec
	p, err := l.arena.StreamPersisted(pmalloc.TagLog, rec)
	if err != nil {
		return err
	}
	l.dev.Fence()
	l.dev.WriteU64Durable(l.head, p)
	l.ents = append(l.ents, appended{p, len(rec)})
	return nil
}

// Undo walks this transaction's entries newest first, for an abort. A failed
// walk leaves the entries to recovery: the transaction forgets them.
func (l *Log) Undo(undo func(i int, ent Entry) error) error {
	for i := len(l.ents) - 1; i >= 0; i-- {
		ent, err := l.read(l.ents[i].p, l.ents[i].n)
		if err == nil {
			err = undo(i, ent)
		}
		if err != nil {
			l.ents = l.ents[:0]
			return err
		}
	}
	return nil
}

// Recover undoes the durable list newest first — every entry still linked
// belongs to a transaction that had not committed — and empties the log as
// Truncate does, fencing first if the undo left written-back lines the
// truncation must follow. It returns the number of entries undone.
func (l *Log) Recover(undo func(ent Entry) error, fence bool) (int, error) {
	var found []pmalloc.Ptr
	seen := make(map[pmalloc.Ptr]bool)
	for p := l.dev.ReadU64(l.head); p != 0; p = l.dev.ReadU64(int64(p) + oNext) {
		if !l.arena.Holds(p, headerSize) || seen[p] {
			return 0, core.Corrupt(fmt.Errorf("undolog: entry %d lies outside the arena or closes a cycle", p))
		}
		seen[p] = true
		ent, err := l.read(p, l.arena.SizeOf(p))
		if err != nil {
			return 0, err
		}
		found = append(found, p)
		if err := undo(ent); err != nil {
			return 0, err
		}
	}
	if fence {
		l.dev.Fence()
	}
	l.dev.WriteU64Durable(l.head, 0)
	for _, p := range found {
		if l.arena.StateOf(p) != pmalloc.StateFree {
			l.arena.Free(p)
		}
	}
	return len(found), nil
}

// Truncate empties the log with one durable write of the head word. That
// write is the commit point, so the caller fences first whatever must be
// durable before it. The entries are freed after it, oldest first, free(i)
// running ahead of entry i's. A transaction that appended nothing writes
// nothing.
func (l *Log) Truncate(free func(i int)) {
	if len(l.ents) > 0 {
		l.dev.WriteU64Durable(l.head, 0)
	}
	for i, a := range l.ents {
		if free != nil {
			free(i)
		}
		l.arena.FreeStreamed(a.p, a.n, pmalloc.TagLog)
	}
	l.ents = l.ents[:0]
}

// read loads the entry at p, which holds at most n bytes, from its type byte
// on — an undo never needs the link words — and decodes it.
func (l *Log) read(p pmalloc.Ptr, n int) (Entry, error) {
	if n < headerSize || !l.arena.Holds(p, n) {
		return Entry{}, core.Corrupt(fmt.Errorf("undolog: entry %d of %d bytes", p, n))
	}
	if cap(l.rec) < n {
		l.rec = make([]byte, n)
	}
	rec := l.rec[:n]
	l.dev.Read(int64(p)+oType, rec[oType:headerSize])
	if end := headerSize + fixSize*int(rec[oFixes]) + int(le.Uint16(rec[oBody:])); end <= n {
		l.dev.Read(int64(p)+headerSize, rec[headerSize:end])
	}
	return Decode(rec, l.tables)
}

// Decode parses the entry image b; its link words are not read. It refuses,
// with a corrupt error, an unknown type, a table the schemas do not have, a
// repair record of an index its table does not have or of an unknown op, and
// records that do not end inside b. The body is a slice of b.
func Decode(b []byte, tables []*core.TableMeta) (Entry, error) {
	bad := func(format string, a ...any) (Entry, error) {
		return Entry{}, core.Corrupt(fmt.Errorf("undolog: "+format, a...))
	}
	if len(b) < headerSize {
		return bad("entry of %d bytes", len(b))
	}
	ent := Entry{Type: b[oType], Table: int(b[oTable]), Key: le.Uint64(b[oKey:])}
	if ent.Type < core.WalInsert || ent.Type > core.WalDelete {
		return bad("entry type %d", ent.Type)
	}
	if ent.Table >= len(tables) {
		return bad("table %d of %d", ent.Table, len(tables))
	}
	nfix, nbody := int(b[oFixes]), int(le.Uint16(b[oBody:]))
	end := headerSize + fixSize*nfix + nbody
	if end > len(b) {
		return bad("%d repair records and a %d-byte body overrun a %d-byte entry", nfix, nbody, len(b))
	}
	secs := len(tables[ent.Table].Schema.Secondary)
	for r := b[headerSize : headerSize+fixSize*nfix]; len(r) > 0; r = r[fixSize:] {
		if int(r[0]) >= secs || r[1] != opAdded && r[1] != opRemoved {
			return bad("repair record (index %d, op %d) on a table of %d indexes", r[0], r[1], secs)
		}
		c := le.Uint64(r[2:])
		ent.Fixes = append(ent.Fixes, core.SecFix{Idx: int(r[0]), Add: r[1] == opAdded, Sec: uint32(c >> 32), PK: core.SecPK(c)})
	}
	ent.Body = b[end-nbody : end]
	return ent, nil
}

// Fix carries out fixes on a table's secondary-index trees, each reversed if
// undo is set. Every step is absolute: an entry put or deleted by its key.
func Fix(second []*nvbtree.Tree, fixes []core.SecFix, undo bool) error {
	for _, f := range fixes {
		var err error
		if f.Add != undo {
			err = second[f.Idx].Put(f.Composite(), f.PK)
		} else {
			_, err = second[f.Idx].Delete(f.Composite())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
