// Package undolog is the write-ahead log NVM-InP (§4.1) and NVM-Log (§4.3)
// share: an undo-only log of self-validating entries, one allocator chunk
// each, and a commit line in the engine's header whose epoch names the open
// transaction's entries. Each operation's changes are durable before the
// transaction ends, so moving the epoch on is the commit point; the entries a
// crash leaves under the open epoch are undone at recovery.
//
// The log owns the entry's framing, the secondary-index repair list, the
// streamed append, the commit line, the choice of the entries recovery
// undoes, truncation and the entries' frees. The engine owns the body it
// appends, what undoing an entry means, the fence that orders an entry before
// the write it guards, and the one walk over the arena's chunks that hands
// recovery the log's. DESIGN.md "The undo log" states the format and the
// protocol.
package undolog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"nstore/internal/core"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// Entry layout (a TagLog chunk):
//
//	 0 epoch u64  the log's epoch when the entry was appended
//	 8 seq   u32  the entry's place in its epoch, from 0
//	12 crc   u32  CRC-32C of the frame, this word zero
//	16 type  u8   core.WalInsert / WalUpdate / WalDelete
//	17 table u8
//	18 fixes u8   repair-list records
//	19 body  u16  the engine's body length
//	21 key   u64
//	29 the repair list: fixes x (index u8, op u8, composite u64)
//	   then the engine's body
//
// The frame is the entry's first 29 + 10 x fixes + body bytes. The header is
// packed, not padded: a one-column NVM-InP update's entry, 46 bytes, fits the
// 48 a cache line leaves after the chunk header, so its append streams one
// line. Undo replays the repair list with absolute, idempotent operations (op
// 1 = was added, undo deletes; op 2 = was removed, undo re-adds), so a crash
// anywhere inside an interrupted undo re-converges.
const (
	oEpoch = 0
	oSeq   = 8
	oCRC   = 12
	oType  = 16
	oTable = 17
	oFixes = 18
	oBody  = 19
	oKey   = 21
	// headerSize is the bytes of an entry ahead of its repair list.
	headerSize = 29
	fixSize    = 10

	opAdded, opRemoved = 1, 2
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// errStale refuses an image that is not an entry of the epoch asked for.
	errStale = errors.New("undolog: not an entry of the open epoch")
)

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
	line   int64  // device offset of the commit line
	epoch  uint64 // the open epoch, what the line holds
	seq    uint32 // the next entry's place in the epoch
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

// Format writes a new log's first epoch into its commit line at device offset
// line, durable at the caller's next fence, and returns the log, for entries
// of the given tables. line must start a cache line the engine gives the log
// alone; it panics otherwise.
func Format(arena *pmalloc.Arena, line int64, tables []*core.TableMeta) *Log {
	if line%nvm.LineSize != 0 {
		panic(fmt.Sprintf("undolog: commit line at %d does not start a cache line", line))
	}
	l := &Log{arena: arena, dev: arena.Device(), line: line, epoch: 1, tables: tables}
	l.stream()
	return l
}

// Open returns the log whose commit line is at device offset line. Recover
// runs before its first append.
func Open(arena *pmalloc.Arena, line int64, tables []*core.TableMeta) *Log {
	return &Log{arena: arena, dev: arena.Device(), line: line, epoch: arena.Device().ReadU64(line), tables: tables}
}

// Append logs an operation: the entry, which carries the open epoch, its
// place in it and a CRC of its frame, is streamed into a fresh chunk with its
// persisted mark. It is durable at the caller's next fence, and undo owns
// what the entry names once it is: the caller fences before it writes
// anything the entry guards. No pointer links it: recovery finds it among the
// arena's chunks, and the CRC tells a whole entry from one a crash tore
// inside its fence interval. Log-arena exhaustion is reachable from normal
// traffic: it is an error, nothing was written, and the transaction can be
// aborted cleanly.
func (l *Log) Append(ent Entry) error {
	rec := le.AppendUint64(l.rec[:0], l.epoch)
	rec = le.AppendUint64(rec, uint64(l.seq)) // the CRC word is zero
	rec = append(rec, ent.Type, uint8(ent.Table), uint8(len(ent.Fixes)))
	rec = le.AppendUint16(rec, uint16(len(ent.Body)))
	rec = le.AppendUint64(rec, ent.Key)
	for _, f := range ent.Fixes {
		op := uint8(opRemoved)
		if f.Add {
			op = opAdded
		}
		rec = le.AppendUint64(append(rec, uint8(f.Idx), op), f.Composite())
	}
	rec = append(rec, ent.Body...)
	le.PutUint32(rec[oCRC:], frameCRC(rec))
	l.rec = rec
	p, err := l.arena.StreamPersisted(pmalloc.TagLog, rec)
	if err != nil {
		return err
	}
	l.seq++
	l.ents = append(l.ents, appended{p, len(rec)})
	return nil
}

// Undo walks this transaction's entries newest first, for an abort. A failed
// walk leaves the entries to recovery: the transaction forgets them, and the
// epoch stays open.
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

// Recover undoes the open epoch's entries newest first — each belongs to the
// transaction in flight at the crash — and then moves the epoch on as
// Truncate does, fencing first if the undo left written-back lines that must
// be durable before it. The entries are the persisted log chunks among
// chunks, the engine's one walk over the arena, that carry the open epoch and
// a frame whose CRC holds. An entry a crash tore inside its append's fence
// interval fails its CRC, and guards no write: the engine fences the entry
// before it writes what the entry guards. A chunk of an earlier epoch — an
// entry a committed or aborted transaction freed, or one a crash left behind
// — is not undone.
// Recover frees nothing: every log chunk is the engine's sweep's once the
// epoch has moved past it. It returns the number of entries undone.
func (l *Log) Recover(chunks []core.Chunk, undo func(ent Entry) error, fence bool) (int, error) {
	type open struct {
		seq uint32
		ent Entry
	}
	var found []open
	var epoch [8]byte
	for _, c := range chunks {
		if c.Tag != pmalloc.TagLog || c.Size < headerSize {
			continue
		}
		// A stale chunk costs its first line, not its every line.
		if l.dev.Read(int64(c.P)+oEpoch, epoch[:]); le.Uint64(epoch[:]) != l.epoch {
			continue
		}
		b := make([]byte, c.Size)
		l.dev.Read(int64(c.P), b)
		ent, err := Decode(b, l.epoch, l.tables)
		if err == errStale {
			continue
		}
		if err != nil {
			return 0, err
		}
		found = append(found, open{le.Uint32(b[oSeq:]), ent})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq > found[j].seq })
	for _, o := range found {
		if err := undo(o.ent); err != nil {
			return 0, err
		}
	}
	if fence {
		l.dev.Fence()
	}
	l.advance()
	return len(found), nil
}

// Truncate empties the log with one durable write, the commit line with the
// next epoch. That write is the commit point, so the caller fences first
// whatever must be durable before it. The entries are freed after it, oldest
// first, free(i) running ahead of entry i's. A transaction that appended
// nothing writes nothing. An abort moves the epoch on too, though recovery
// would undo its entries again harmlessly: no entry of the open epoch
// outlives its transaction.
func (l *Log) Truncate(free func(i int)) {
	if len(l.ents) > 0 {
		l.advance()
	}
	for i, a := range l.ents {
		if free != nil {
			free(i)
		}
		l.arena.FreeStreamed(a.p, a.n, pmalloc.TagLog)
	}
	l.ents = l.ents[:0]
}

// advance closes the open epoch: the commit line is streamed with the next
// one and fenced, and every entry appended under the old epoch is stale from
// then on.
func (l *Log) advance() {
	l.epoch++
	l.seq = 0
	l.stream()
	l.dev.Fence()
}

// stream writes the commit line — the open epoch, then zeros, a cache line no
// other word shares — durable at the next fence. Nothing on the write path
// reads the line back, so it is streamed whole (nvm.Device.WriteStream): no
// fill and no CLWB. A crash before that fence keeps the old line or the new
// one, since the epoch is its first 8-byte word and a torn line keeps whole
// words.
func (l *Log) stream() {
	var b [nvm.LineSize]byte
	le.PutUint64(b[:], l.epoch)
	l.dev.WriteStream(l.line, b[:])
}

// read loads this transaction's entry at p, n bytes, and decodes it. It
// carries the open epoch and its CRC holds, or the image is corrupt.
func (l *Log) read(p pmalloc.Ptr, n int) (Entry, error) {
	if cap(l.rec) < n {
		l.rec = make([]byte, n)
	}
	rec := l.rec[:n]
	l.dev.Read(int64(p), rec)
	ent, err := Decode(rec, l.epoch, l.tables)
	if err == errStale {
		err = core.Corrupt(fmt.Errorf("undolog: entry %d of the open transaction fails its check", p))
	}
	return ent, err
}

// Decode parses the entry image b as an entry of epoch. An image that does
// not prove itself one — of another epoch, too short for the frame its header
// states, or whose CRC fails — is refused with errStale, and is no entry at
// all: a torn append, or a chunk a crash left behind. An entry that proves
// itself is refused, with a corrupt error, if it names an unknown type, a
// table the schemas do not have, or a repair record of an index its table
// does not have or of an unknown op: no crash writes one. The body is a slice
// of b.
func Decode(b []byte, epoch uint64, tables []*core.TableMeta) (Entry, error) {
	if len(b) < headerSize || le.Uint64(b[oEpoch:]) != epoch {
		return Entry{}, errStale
	}
	nfix, nbody := int(b[oFixes]), int(le.Uint16(b[oBody:]))
	end := headerSize + fixSize*nfix + nbody
	if end > len(b) || frameCRC(b[:end]) != le.Uint32(b[oCRC:]) {
		return Entry{}, errStale
	}
	bad := func(format string, a ...any) (Entry, error) {
		return Entry{}, core.Corrupt(fmt.Errorf("undolog: "+format, a...))
	}
	ent := Entry{Type: b[oType], Table: int(b[oTable]), Key: le.Uint64(b[oKey:])}
	if ent.Type < core.WalInsert || ent.Type > core.WalDelete {
		return bad("entry type %d", ent.Type)
	}
	if ent.Table >= len(tables) {
		return bad("table %d of %d", ent.Table, len(tables))
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

// frameCRC is the CRC-32C of the frame b, its CRC word read as zero.
func frameCRC(b []byte) uint32 {
	var zero [4]byte
	return crc32.Update(crc32.Update(crc32.Checksum(b[:oCRC], castagnoli), castagnoli, zero[:]), castagnoli, b[oType:])
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
