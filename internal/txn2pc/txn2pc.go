// Package txn2pc implements the storage half of percolator-style two-phase
// commit (DESIGN.md §13): lock records and transaction-status records stored
// as rows in hidden engine tables, so they are durable, crash-recoverable,
// MVCC-visible, and replicate to backups as ordinary writes riding the
// REPL_APPEND stream.
//
// Protocol shape. A cross-shard transaction picks one of its writes as the
// PRIMARY lock. Prewrite buffers each shard's writes as lock records (the
// data tables stay untouched); the commit point is one atomic engine
// transaction on the primary shard that applies the buffered writes, deletes
// the locks, and inserts a committed status record. Every later observer —
// secondary-shard commits, readers hitting orphaned locks, crash recovery —
// keys off that single record: present means roll forward, an abort fence
// means roll back, neither means the primary lock itself decides. A resolver
// that finds neither record nor primary lock writes the abort fence first,
// so a slow coordinator can never commit afterwards.
//
// Every function here runs inside a caller-owned engine transaction (the
// serve executor's, or an explicit Begin/Commit in tests), which is what
// makes each 2PC step atomic per shard: a torn prewrite or a crashed commit
// either fully happened or never did, by the engines' own recovery
// guarantees (the paper's §4 protocols).
package txn2pc

import (
	"errors"
	"fmt"
	"strings"

	"nstore/internal/core"
	"nstore/internal/wire"
)

// StatusTable is the hidden per-shard transaction-status table. A row exists
// only for decided transactions: key = txn id, state column = committed or
// aborted. Status rows are written only on a transaction's primary shard.
const StatusTable = "__txnstate"

// Lock-table column indexes (after the id column).
const (
	lockColTxn      = 1 // holder txn id
	lockColPriShard = 2 // primary lock's shard
	lockColPriTable = 3 // primary lock's table
	lockColPriKey   = 4 // primary lock's key
	lockColOp       = 5 // buffered write, wire.EncodeOp bytes
)

const stateCol = 1 // StatusTable: wire.TxnCommitted / wire.TxnAborted

// LockTable names the hidden lock table shadowing a user table: same primary
// key space, one row per held lock.
func LockTable(user string) string { return "__lock_" + user }

// Hidden reports whether a table is 2PC bookkeeping (skipped by digests and
// user-facing scans).
func Hidden(table string) bool { return strings.HasPrefix(table, "__") }

// AugmentSchemas returns the user schemas plus the hidden 2PC tables: one
// lock table per user table and the per-shard status table. Pass the result
// to testbed/cluster configs to enable cross-shard transactions.
func AugmentSchemas(user []*core.Schema) []*core.Schema {
	out := make([]*core.Schema, 0, 2*len(user)+1)
	for _, sc := range user {
		out = append(out, sc)
	}
	for _, sc := range user {
		if Hidden(sc.Name) {
			continue
		}
		out = append(out, &core.Schema{
			Name: LockTable(sc.Name),
			Columns: []core.Column{
				{Name: "id", Type: core.TInt},
				{Name: "txn", Type: core.TInt},
				{Name: "prishard", Type: core.TInt},
				{Name: "pritable", Type: core.TString, Size: 64},
				{Name: "prikey", Type: core.TInt},
				{Name: "op", Type: core.TString, Size: 1024},
			},
		})
	}
	out = append(out, &core.Schema{
		Name: StatusTable,
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "state", Type: core.TInt},
		},
	})
	return out
}

// Enabled reports whether a schema set carries the 2PC tables.
func Enabled(schemas []*core.Schema) bool {
	for _, sc := range schemas {
		if sc.Name == StatusTable {
			return true
		}
	}
	return false
}

// Protocol errors. ErrTxnAborted fences a prewrite or commit that raced a
// resolver's rollback; ErrTxnCommitted rejects an abort of a transaction
// whose commit record already exists. Neither is retryable: the fate is
// decided.
var (
	ErrTxnAborted   = errors.New("txn2pc: transaction aborted")
	ErrTxnCommitted = errors.New("txn2pc: transaction already committed")
)

// ErrNoLock means a commit named a lock record that does not exist while the
// transaction is still undecided — a protocol bug or a corrupted shard, never
// a normal race.
var ErrNoLock = errors.New("txn2pc: lock record missing for undecided transaction")

// LockedError is the write-write/read-lock conflict: (Table, Key) is held by
// transaction Txn whose primary lock lives at (PriShard, PriTable, PriKey).
// The caller resolves against the primary shard and retries.
type LockedError struct {
	Txn      uint64
	PriShard int32
	PriTable string
	PriKey   uint64
	Table    string
	Key      uint64
}

func (e *LockedError) Error() string {
	return fmt.Sprintf("txn2pc: %s/%d locked by txn %d (primary %s/%d on shard %d)",
		e.Table, e.Key, e.Txn, e.PriTable, e.PriKey, e.PriShard)
}

// AsLocked unwraps a LockedError if err carries one.
func AsLocked(err error) *LockedError {
	var le *LockedError
	if errors.As(err, &le) {
		return le
	}
	return nil
}

// Lock is one decoded lock record (the buffered op stays encoded; DecodeOp
// it at apply time so corruption surfaces as an error, not a partial write).
type Lock struct {
	Txn      uint64
	PriShard int32
	PriTable string
	PriKey   uint64
	OpBytes  []byte
}

// Getter is the read capability ReadLock needs: both core.Engine and
// core.ReadView satisfy it, so lock checks work on the executor path and on
// MVCC snapshot reads alike.
type Getter interface {
	Get(table string, key uint64) ([]core.Value, bool, error)
}

// ReadLock fetches the lock shadowing (table, key), if any.
func ReadLock(eng Getter, table string, key uint64) (*Lock, bool, error) {
	row, ok, err := eng.Get(LockTable(table), key)
	if err != nil || !ok {
		return nil, false, err
	}
	l := &Lock{
		Txn:      uint64(row[lockColTxn].I),
		PriShard: int32(row[lockColPriShard].I),
		PriTable: string(row[lockColPriTable].S),
		PriKey:   uint64(row[lockColPriKey].I),
		OpBytes:  append([]byte(nil), row[lockColOp].S...),
	}
	return l, true, nil
}

// LockedAt returns a *LockedError when (table, key) is held by a 2PC lock —
// the read-path check: a reader that ignored the lock could see a
// transaction's primary-shard writes while missing its writes here, a
// partial commit. nil when unlocked.
func LockedAt(g Getter, table string, key uint64) error {
	l, ok, err := ReadLock(g, table, key)
	if err != nil || !ok {
		return err
	}
	return &LockedError{Txn: l.Txn, PriShard: l.PriShard, PriTable: l.PriTable,
		PriKey: l.PriKey, Table: table, Key: key}
}

// Scanner is the range capability LockedInRange needs.
type Scanner interface {
	ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error
}

// LockedInRange returns a *LockedError for the first lock shadowing
// [from, to) of table, nil when the range is lock-free.
func LockedInRange(s Scanner, table string, from, to uint64) error {
	var found *LockedError
	err := s.ScanRange(LockTable(table), from, to, func(pk uint64, row []core.Value) bool {
		found = &LockedError{
			Txn:      uint64(row[lockColTxn].I),
			PriShard: int32(row[lockColPriShard].I),
			PriTable: string(row[lockColPriTable].S),
			PriKey:   uint64(row[lockColPriKey].I),
			Table:    table,
			Key:      pk,
		}
		return false
	})
	if err != nil {
		return err
	}
	if found != nil {
		return found
	}
	return nil
}

// State reads the transaction's fate on this shard's status table:
// TxnPending when no record exists. Meaningful only on the primary shard.
func State(eng core.Engine, txn uint64) (byte, error) {
	row, ok, err := eng.Get(StatusTable, txn)
	if err != nil {
		return wire.TxnPending, err
	}
	if !ok {
		return wire.TxnPending, nil
	}
	return byte(row[stateCol].I), nil
}

// writeState inserts the decided-state record, idempotently: an existing
// record must agree (a committed record can never flip to aborted or back).
func writeState(eng core.Engine, txn uint64, state byte) error {
	st, err := State(eng, txn)
	if err != nil {
		return err
	}
	switch st {
	case state:
		return nil
	case wire.TxnPending:
		return eng.Insert(StatusTable, txn, []core.Value{{I: int64(txn)}, {I: int64(state)}})
	case wire.TxnCommitted:
		return ErrTxnCommitted
	default:
		return ErrTxnAborted
	}
}

// Prewrite validates and buffers req's write sub-ops as lock records on this
// shard. req.Table/Key/PriShard name the transaction's primary lock. The
// data tables are untouched; constraint checks (duplicate insert, missing
// delete/rmw target) run here so the later commit cannot fail on them.
// Idempotent for the same transaction; a conflicting holder returns
// *LockedError; a transaction already resolved to aborted returns
// ErrTxnAborted; one already committed is a no-op (re-locking after commit
// would resurrect locks a resolver then rolls forward twice).
func Prewrite(eng core.Engine, req *wire.Request) error {
	st, err := State(eng, req.Txn)
	if err != nil {
		return err
	}
	switch st {
	case wire.TxnAborted:
		return ErrTxnAborted
	case wire.TxnCommitted:
		return nil
	}
	for i := range req.Ops {
		sub := &req.Ops[i]
		// The insert a commit applies passes the key rule here, so a
		// cross-shard commit never fails on it.
		if sub.Op == wire.OpPut {
			if err := core.CheckKey(eng, sub.Table, sub.Key); err != nil {
				return fmt.Errorf("prewrite %s/%d: %w", sub.Table, sub.Key, err)
			}
		}
		if held, ok, err := ReadLock(eng, sub.Table, sub.Key); err != nil {
			return err
		} else if ok {
			if held.Txn == req.Txn {
				continue // idempotent re-prewrite
			}
			return &LockedError{Txn: held.Txn, PriShard: held.PriShard,
				PriTable: held.PriTable, PriKey: held.PriKey,
				Table: sub.Table, Key: sub.Key}
		}
		// Only existence matters here: a read of no columns is the index
		// lookup alone on the engines that store fields apart.
		_, exists, err := core.GetCols(eng, sub.Table, sub.Key, nil)
		if err != nil {
			return err
		}
		switch sub.Op {
		case wire.OpPut:
			if exists {
				return fmt.Errorf("prewrite %s/%d: %w", sub.Table, sub.Key, core.ErrKeyExists)
			}
		case wire.OpDelete, wire.OpRmw:
			if !exists {
				return fmt.Errorf("prewrite %s/%d: %w", sub.Table, sub.Key, core.ErrKeyNotFound)
			}
		default:
			return fmt.Errorf("txn2pc: prewrite cannot buffer op %v", sub.Op)
		}
		opb, err := wire.EncodeOp(sub)
		if err != nil {
			return err
		}
		err = eng.Insert(LockTable(sub.Table), sub.Key, []core.Value{
			{I: int64(sub.Key)},
			{I: int64(req.Txn)},
			{I: int64(req.PriShard)},
			{S: []byte(req.Table)},
			{I: int64(req.Key)},
			{S: opb},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Commit settles the named locks forward: decode every buffered op FIRST
// (any corruption aborts the whole transaction before a single write lands —
// a torn prewrite must never surface as committed), then apply the writes,
// delete the locks, and on the primary shard insert the committed status
// record. The whole function runs in one engine transaction: on the primary
// shard that transaction IS the commit point.
//
// Idempotent: a lock already settled (record gone, state committed) is
// skipped. ErrTxnAborted if a resolver's abort fence won the race.
func Commit(eng core.Engine, txn uint64, primary bool, refs []wire.LockRef) error {
	var st byte = wire.TxnPending
	if primary {
		var err error
		if st, err = State(eng, txn); err != nil {
			return err
		}
		if st == wire.TxnAborted {
			return ErrTxnAborted
		}
	}
	// Pass 1: load and decode every lock this commit settles.
	type settled struct {
		ref wire.LockRef
		op  *wire.Request
	}
	var locks []settled
	for _, ref := range refs {
		l, ok, err := ReadLock(eng, ref.Table, ref.Key)
		if err != nil {
			return err
		}
		if !ok || l.Txn != txn {
			// Already rolled forward (this shard re-shipped, or a reader
			// resolved it) — or, on an undecided primary, a hole that should
			// be impossible: prewrite and commit are each atomic.
			if primary && st == wire.TxnPending {
				return fmt.Errorf("%w: txn %d %s/%d", ErrNoLock, txn, ref.Table, ref.Key)
			}
			continue
		}
		op, err := wire.DecodeOp(l.OpBytes)
		if err != nil {
			return core.Corrupt(fmt.Errorf("txn2pc: lock %s/%d of txn %d: %w", ref.Table, ref.Key, txn, err))
		}
		locks = append(locks, settled{ref: ref, op: op})
	}
	// Pass 2: the decided writes. Status record first on the primary — if the
	// engine transaction tears here, recovery sees either nothing or the full
	// commit; never applied data without the record.
	if primary && st == wire.TxnPending {
		if err := writeState(eng, txn, wire.TxnCommitted); err != nil {
			return err
		}
	}
	for _, s := range locks {
		if err := applyBuffered(eng, s.op); err != nil {
			return err
		}
		if err := eng.Delete(LockTable(s.ref.Table), s.ref.Key); err != nil {
			return err
		}
	}
	return nil
}

// Abort settles the named locks backward: delete them, and on the primary
// shard write the abort fence so no commit can land afterwards.
// ErrTxnCommitted if the committed record already exists.
func Abort(eng core.Engine, txn uint64, primary bool, refs []wire.LockRef) error {
	if primary {
		if err := writeState(eng, txn, wire.TxnAborted); err != nil {
			return err
		}
	}
	for _, ref := range refs {
		l, ok, err := ReadLock(eng, ref.Table, ref.Key)
		if err != nil {
			return err
		}
		if !ok || l.Txn != txn {
			continue
		}
		if err := eng.Delete(LockTable(ref.Table), ref.Key); err != nil {
			return err
		}
	}
	return nil
}

// Resolve decides an orphaned transaction's fate on its PRIMARY shard:
// return the recorded state if decided; otherwise, if the primary lock is
// still held, either report pending (force=false) or roll the transaction
// back (force=true: delete the primary lock, write the abort fence). With no
// state record and no primary lock the transaction never reached its commit
// point — write the abort fence so it never can.
func Resolve(eng core.Engine, txn uint64, priTable string, priKey uint64, force bool) (byte, error) {
	st, err := State(eng, txn)
	if err != nil {
		return wire.TxnPending, err
	}
	if st != wire.TxnPending {
		return st, nil
	}
	l, ok, err := ReadLock(eng, priTable, priKey)
	if err != nil {
		return wire.TxnPending, err
	}
	if ok && l.Txn == txn {
		if !force {
			return wire.TxnPending, nil
		}
		if err := eng.Delete(LockTable(priTable), priKey); err != nil {
			return wire.TxnPending, err
		}
	}
	if err := writeState(eng, txn, wire.TxnAborted); err != nil {
		return wire.TxnPending, err
	}
	return wire.TxnAborted, nil
}

// applyBuffered lands one decoded buffered write on the data table. RMW adds
// recompute against the current pre-image — the value at prewrite time is
// still the value now, because the lock excluded every other writer.
func applyBuffered(eng core.Engine, op *wire.Request) error {
	switch op.Op {
	case wire.OpPut:
		return eng.Insert(op.Table, op.Key, op.Row)
	case wire.OpDelete:
		return eng.Delete(op.Table, op.Key)
	case wire.OpRmw:
		_, err := wire.ApplyRmw(eng, op)
		return err
	}
	return fmt.Errorf("txn2pc: cannot apply buffered op %v", op.Op)
}

// OrphanLocks scans every lock table for records left behind by crashed
// clients (recovery and tests; the serving path resolves lazily on reads).
func OrphanLocks(eng core.Engine, schemas []*core.Schema) (map[uint64][]*LockedError, error) {
	orphans := make(map[uint64][]*LockedError)
	for _, sc := range schemas {
		if Hidden(sc.Name) {
			continue
		}
		table := sc.Name
		err := eng.ScanRange(LockTable(table), 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			orphans[uint64(row[lockColTxn].I)] = append(orphans[uint64(row[lockColTxn].I)], &LockedError{
				Txn:      uint64(row[lockColTxn].I),
				PriShard: int32(row[lockColPriShard].I),
				PriTable: string(row[lockColPriTable].S),
				PriKey:   uint64(row[lockColPriKey].I),
				Table:    table,
				Key:      pk,
			})
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return orphans, nil
}

// Run wraps fn in one engine transaction: Begin, fn, Commit — with Abort on
// any error. The storage-level unit every wire 2PC op executes as.
func Run(eng core.Engine, fn func() error) error {
	if err := eng.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		eng.Abort()
		return err
	}
	return eng.Commit()
}
