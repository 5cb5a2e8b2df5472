package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nstore/internal/core"
)

// Op identifies one declarative operation.
type Op byte

// The op set. Every op maps onto a single testbed transaction server-side;
// OpTxn bundles several ops into one atomic transaction (single-partition,
// like every testbed transaction).
const (
	OpGet    Op = 1 // point read by primary key
	OpPut    Op = 2 // insert a full row
	OpDelete Op = 3 // delete by primary key
	OpScan   Op = 4 // ascending range scan [From, To), bounded by Limit
	OpRmw    Op = 5 // read-modify-write: return the pre-image of the named columns, apply the updates
	OpTxn    Op = 6 // multi-op transaction (sub-ops may not nest another OpTxn)

	// Replication / cluster metadata ops (the REPL_APPEND / REPL_ACK /
	// SHARDMAP frames of the cluster layer). Part carries the shard id.
	OpReplAppend Op = 7  // primary→backup: ship one committed batch (Epoch, Seq, Ops)
	OpReplAck    Op = 8  // ack-state probe: ask a replica its durable (Epoch, Seq) for a shard
	OpShardMap   Op = 9  // fetch the node's current shard map
	OpReplSnap   Op = 10 // primary→backup: snapshot chunk for re-seeding (Phase, rows)

	// Cross-shard 2PC ops (percolator-style; DESIGN.md §13). These are
	// executor-plane writes: they run through the replicated commit path so
	// lock and status records ride the REPL_APPEND stream to backups.
	OpTxnPrewrite Op = 11 // buffer write sub-ops as lock records on one shard
	OpTxnCommit   Op = 12 // apply buffered ops + delete locks (Phase 1 = primary: the commit point)
	OpTxnAbort    Op = 13 // delete locks (Phase 1 = primary: also write the abort fence)
	OpTxnResolve  Op = 14 // ask the primary shard a txn's fate (Phase 1 = force-rollback if undecided)

	// Consensus-plane ops for the replicated shard map (single-decree;
	// DESIGN.md §13). Epoch carries the ballot; Map carries the value.
	OpMapPrepare Op = 15 // phase 1: promise ballot, report highest accepted (ballot, map)
	OpMapAccept  Op = 16 // phase 2: accept (ballot, map) unless a higher ballot was promised
	OpMapLearn   Op = 17 // learn a chosen map (version-monotonic install)
)

// OpReplSnap phases.
const (
	SnapBegin byte = 0 // clear the shard and start a snapshot at (Epoch, Seq)
	SnapChunk byte = 1 // one table's row chunk
	SnapDone  byte = 2 // snapshot complete; the replica is a backup at (Epoch, Seq)
)

// IsRepl reports whether the op belongs to the replication/cluster-metadata
// plane (dispatched to the server's Replicator, never to the executor). The
// consensus ops live on this plane too: acceptors answer them without
// touching the storage executors.
func (o Op) IsRepl() bool {
	return o == OpReplAppend || o == OpReplAck || o == OpShardMap || o == OpReplSnap ||
		o == OpMapPrepare || o == OpMapAccept || o == OpMapLearn
}

// Is2PC reports whether the op is a cross-shard transaction-protocol op.
// These execute on the storage executor (and replicate) like ordinary
// writes, but carry the extra txn fields.
func (o Op) Is2PC() bool {
	return o == OpTxnPrewrite || o == OpTxnCommit || o == OpTxnAbort || o == OpTxnResolve
}

// basic reports whether the op is a plain data op (legal as an OpTxn sub-op
// and as a prewrite's buffered write, where only the write subset applies).
func (o Op) basic() bool {
	return o == OpGet || o == OpPut || o == OpDelete || o == OpScan || o == OpRmw
}

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpRmw:
		return "rmw"
	case OpTxn:
		return "txn"
	case OpReplAppend:
		return "repl-append"
	case OpReplAck:
		return "repl-ack"
	case OpShardMap:
		return "shardmap"
	case OpReplSnap:
		return "repl-snap"
	case OpTxnPrewrite:
		return "txn-prewrite"
	case OpTxnCommit:
		return "txn-commit"
	case OpTxnAbort:
		return "txn-abort"
	case OpTxnResolve:
		return "txn-resolve"
	case OpMapPrepare:
		return "map-prepare"
	case OpMapAccept:
		return "map-accept"
	case OpMapLearn:
		return "map-learn"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Ops lists the op set (for metrics registration and sweeps).
var Ops = []Op{OpGet, OpPut, OpDelete, OpScan, OpRmw, OpTxn,
	OpReplAppend, OpReplAck, OpShardMap, OpReplSnap,
	OpTxnPrewrite, OpTxnCommit, OpTxnAbort, OpTxnResolve,
	OpMapPrepare, OpMapAccept, OpMapLearn}

// Status is a typed response code. The set mirrors the internal/core error
// taxonomy plus the serving runtime's admission states, so a client on the
// far side of a TCP connection can make the same retry-vs-give-up decisions
// an in-process caller makes with errors.Is.
type Status byte

// Response statuses.
const (
	StatusOK         Status = 0  // the transaction committed and is durable (ack-after-barrier)
	StatusNotFound   Status = 1  // core.ErrKeyNotFound
	StatusKeyExists  Status = 2  // core.ErrKeyExists
	StatusAborted    Status = 3  // testbed.ErrAbort: clean client-requested rollback
	StatusBadRequest Status = 4  // malformed or schema-violating request; retrying is pointless
	StatusOverloaded Status = 5  // serve.ErrOverloaded: admission backpressure, retryable
	StatusRecovering Status = 6  // serve.ErrRecovering: partition mid-heal, retryable
	StatusRetryable  Status = 7  // other core.ErrRetryable failures (incl. contained panics)
	StatusCorrupt    Status = 8  // core.ErrCorrupt: partition heading into crash recovery
	StatusDegraded   Status = 9  // serve.ErrDegraded: circuit breaker open, operator needed
	StatusClosed     Status = 10 // serve.ErrClosed: runtime shut down
	StatusInternal   Status = 11 // anything unclassified
	// Cluster statuses. NotPrimary tells a client its shard map is stale:
	// refresh and re-route (the Router does this automatically). StaleEpoch
	// rejects a REPL frame from a fenced ex-primary; on seeing it the sender
	// must fence itself, never retry.
	StatusNotPrimary Status = 12 // node is not the shard's primary (or wrong role for a REPL frame)
	StatusStaleEpoch Status = 13 // REPL frame carried an epoch below the shard's current epoch
	// Locked means the key is held by another transaction's 2PC lock. The
	// response's Txn/Pri* fields name the holder; the client resolves the
	// lock against its primary shard (roll forward or back, whichever way
	// the primary record went) and retries. Deliberately not in Retryable():
	// blind resubmission cannot make progress until someone resolves.
	StatusLocked Status = 14
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusKeyExists:
		return "key-exists"
	case StatusAborted:
		return "aborted"
	case StatusBadRequest:
		return "bad-request"
	case StatusOverloaded:
		return "overloaded"
	case StatusRecovering:
		return "recovering"
	case StatusRetryable:
		return "retryable"
	case StatusCorrupt:
		return "corrupt"
	case StatusDegraded:
		return "degraded"
	case StatusClosed:
		return "closed"
	case StatusInternal:
		return "internal"
	case StatusNotPrimary:
		return "not-primary"
	case StatusStaleEpoch:
		return "stale-epoch"
	case StatusLocked:
		return "locked"
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// Statuses lists every status (for metrics registration).
var Statuses = []Status{
	StatusOK, StatusNotFound, StatusKeyExists, StatusAborted, StatusBadRequest,
	StatusOverloaded, StatusRecovering, StatusRetryable, StatusCorrupt,
	StatusDegraded, StatusClosed, StatusInternal, StatusNotPrimary,
	StatusStaleEpoch, StatusLocked,
}

// Retryable reports whether the status is an invitation to resubmit: the
// request did not commit, the server is (or will be) healthy, and the client
// did nothing wrong. Mirrors core.IsRetryable across the wire.
func (s Status) Retryable() bool {
	return s == StatusOverloaded || s == StatusRecovering || s == StatusRetryable
}

// StatusError is the client-side error form of a non-OK status. Is makes the
// core taxonomy predicates work unchanged on the far side of the connection:
// errors.Is(err, core.ErrRetryable) for the three retryable statuses,
// core.ErrCorrupt, core.ErrKeyNotFound and core.ErrKeyExists likewise.
type StatusError struct {
	Status Status
	Msg    string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return "wire: " + e.Status.String()
	}
	return "wire: " + e.Status.String() + ": " + e.Msg
}

// Is maps wire statuses back onto the core error taxonomy sentinels.
func (e *StatusError) Is(target error) bool {
	switch target {
	case core.ErrRetryable:
		return e.Status.Retryable()
	case core.ErrCorrupt:
		return e.Status == StatusCorrupt
	case core.ErrKeyNotFound:
		return e.Status == StatusNotFound
	case core.ErrKeyExists:
		return e.Status == StatusKeyExists
	}
	return false
}

// RmwCol is one column modification inside an OpRmw. A request names each
// column at most once (the server answers StatusBadRequest otherwise).
//
// Contract of the answer: Response.Row is the pre-image of the columns the
// request names and of nothing else — a row of the table's schema width,
// indexed by column as ever (Row[col]), in which every un-named column is the
// zero core.Value. The server never reads what the client did not ask about.
type RmwCol struct {
	Col int  // column index in the table's schema
	Add bool // true: add Val.I to the current value (TInt columns only)
	Val core.Value
}

// RmwReads lists the columns an OpRmw reads before it writes: every column it
// names when the caller reports the pre-image (a primary answering a client),
// only the Add columns when the result is discarded (a backup's replay, a 2PC
// commit) — a set-mode column's old value is then nobody's business.
func (r *Request) RmwReads(preImage bool) []int {
	var cols []int
	for _, cm := range r.Cols {
		if preImage || cm.Add {
			cols = append(cols, cm.Col)
		}
	}
	return cols
}

// ApplyRmw is the one lowering of an OpRmw onto an engine, inside the caller's
// transaction: read RmwReads(preImage) through core.GetCols, compute the Add
// columns from that read, Update. It returns what it read — the pre-image in
// the Response.Row contract when preImage is set. With nothing to read (a
// set-mode-only request whose result is discarded) the tuple is not fetched
// at all and Update reports a missing key.
func ApplyRmw(eng core.Engine, req *Request, preImage bool) ([]core.Value, error) {
	var pre []core.Value
	if reads := req.RmwReads(preImage); len(reads) > 0 {
		row, ok, err := core.GetCols(eng, req.Table, req.Key, reads)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, core.ErrKeyNotFound
		}
		pre = row
	}
	upd := core.Update{Cols: make([]int, len(req.Cols)), Vals: make([]core.Value, len(req.Cols))}
	for i, cm := range req.Cols {
		upd.Cols[i] = cm.Col
		if cm.Add {
			upd.Vals[i] = core.Value{I: pre[cm.Col].I + cm.Val.I}
		} else {
			upd.Vals[i] = cm.Val
		}
	}
	return pre, eng.Update(req.Table, req.Key, upd)
}

// LockRef names one lock record: the (table, key) a prewrite locked. Commit
// and abort carry the explicit list so no shard ever scans for a txn's locks.
type LockRef struct {
	Table string
	Key   uint64
}

// Transaction fate as recorded (or decided) on the primary shard.
const (
	TxnPending   byte = 0 // no status record; the primary lock decides
	TxnCommitted byte = 1 // committed status record present: roll forward
	TxnAborted   byte = 2 // abort fence present: roll back
)

// Request is one framed request. Exactly the fields relevant to Op are
// encoded; the rest stay zero. Part >= 0 pins the request to an explicit
// partition (workloads with their own placement, like TPC-C's
// warehouse-per-partition layout); Part == -1 routes by Key the way
// testbed.DB.Route does.
type Request struct {
	ID   uint64
	Part int32
	Op   Op

	Table string
	Key   uint64

	Row []core.Value // OpPut

	From, To uint64 // OpScan
	Limit    uint32 // OpScan: max rows returned (0 = server default)

	Cols []RmwCol // OpRmw

	Ops []Request // OpTxn/OpReplAppend sub-ops; only Op/Table/Key/Row/From/To/Limit/Cols are used

	// Replication fields (Part carries the shard id for every repl op).
	// The consensus ops reuse Epoch as the proposer's ballot.
	Epoch uint64 // OpReplAppend/OpReplAck/OpReplSnap: fencing epoch; OpMapPrepare/OpMapAccept: ballot
	Seq   uint64 // OpReplAppend: batch sequence; OpReplSnap: snapshot floor
	Phase byte   // OpReplSnap: snapshot phase; OpTxnCommit/OpTxnAbort: 1 = primary shard; OpTxnResolve: 1 = force rollback

	SnapKeys []uint64       // OpReplSnap(SnapChunk): primary keys for Table
	SnapRows [][]core.Value // OpReplSnap(SnapChunk): rows parallel to SnapKeys

	// 2PC fields. Txn is the transaction id (always nonzero). For
	// OpTxnPrewrite, Table/Key point at the PRIMARY lock (PriShard its
	// shard) and Ops carries the write sub-ops to buffer; for OpTxnResolve,
	// Table/Key point at the primary lock being asked about.
	Txn      uint64
	PriShard int32
	Locks    []LockRef // OpTxnCommit/OpTxnAbort: the lock records to settle

	// Map is the consensus value (OpMapAccept/OpMapLearn).
	Map *ShardMap
}

// Response body kinds (self-describing, so a decoder needs no request
// context to parse a response).
const (
	respNone byte = 0 // Put, Delete, or any non-OK status
	respRow  byte = 1 // Get, Rmw: found flag + optional row
	respScan byte = 2 // Scan: (key, row) list
	respSubs byte = 3 // Txn: per-sub-op responses
	respMap  byte = 4 // ShardMap: the node's current routing table
	respRepl byte = 5 // ReplAppend/ReplAck: replica's durable (epoch, seq)
	respTxn  byte = 6 // Locked conflicts and TxnResolve: txn id, state, primary lock pointer
	respCons byte = 7 // MapPrepare/MapAccept: ballot (+ highest accepted map, if any)
)

// Response is one framed response, matched to its request by ID. Pipelined
// responses may arrive in any order.
type Response struct {
	ID     uint64
	Status Status
	Msg    string // non-OK detail, empty on success

	Found bool         // Get/Rmw: whether the key existed
	Row   []core.Value // Get: the row; Rmw: the pre-image of the named columns (see RmwCol)

	Keys []uint64       // Scan: primary keys, ascending
	Rows [][]core.Value // Scan: rows parallel to Keys

	Subs []Response // Txn: one response per sub-op, in request order

	Map *ShardMap // ShardMap: the node's current routing table

	// ReplAppend/ReplAck: the replica's durable position for the shard.
	// Encoded only when either is nonzero (a zero pair round-trips as
	// respNone, which decodes identically). The consensus ops reuse Epoch
	// as a ballot; when an accepted map rides along (Map != nil AND
	// Epoch != 0) the pair encodes as respCons.
	Epoch uint64
	Seq   uint64

	// 2PC fields (encoded as respTxn when Txn != 0): the transaction a
	// StatusLocked conflict belongs to, or the one TxnResolve decided.
	// TxnState is the primary shard's verdict; Pri* point at the primary
	// lock so the blocked client knows where to resolve.
	Txn      uint64
	TxnState byte
	PriShard int32
	PriTable string
	PriKey   uint64
	// LockTable/LockKey name the lock that actually blocked the request
	// (useful when the request was a scan and the caller cannot know which
	// key in the range is locked). Empty/zero on resolve verdicts.
	LockTable string
	LockKey   uint64
}

// Value tags inside rows. A decoded TBytes value always has a non-nil S so
// encode(decode(x)) is a fixpoint.
const (
	tagInt   byte = 0
	tagBytes byte = 1
)

var errTruncated = errors.New("wire: truncated message")

// dec is a bounds-checked little decoder over one payload.
type dec struct {
	b   []byte
	off int
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return v, nil
}

func (d *dec) byte() (byte, error) {
	if d.off >= len(d.b) {
		return 0, errTruncated
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

func (d *dec) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.b) {
		return nil, errTruncated
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s, nil
}

func (d *dec) remaining() int { return len(d.b) - d.off }

// count reads a uvarint element count and rejects values that could not
// possibly fit in the remaining bytes (each element costs at least min
// bytes), so a hostile count cannot pre-allocate unbounded memory.
func (d *dec) count(min int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(d.remaining()/min+1) {
		return 0, fmt.Errorf("wire: count %d exceeds remaining payload", v)
	}
	return int(v), nil
}

func (d *dec) str() (string, error) {
	n, err := d.count(1)
	if err != nil {
		return "", err
	}
	b, err := d.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValue(dst []byte, v core.Value) []byte {
	if v.S != nil {
		dst = append(dst, tagBytes)
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	}
	dst = append(dst, tagInt)
	return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
}

func (d *dec) value() (core.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return core.Value{}, err
	}
	switch tag {
	case tagInt:
		b, err := d.bytes(8)
		if err != nil {
			return core.Value{}, err
		}
		return core.Value{I: int64(binary.LittleEndian.Uint64(b))}, nil
	case tagBytes:
		n, err := d.count(1)
		if err != nil {
			return core.Value{}, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return core.Value{}, err
		}
		return core.Value{S: append(make([]byte, 0, n), b...)}, nil
	}
	return core.Value{}, fmt.Errorf("wire: unknown value tag %d", tag)
}

func appendRow(dst []byte, row []core.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = appendValue(dst, v)
	}
	return dst
}

func (d *dec) row() ([]core.Value, error) {
	n, err := d.count(2)
	if err != nil {
		return nil, err
	}
	row := make([]core.Value, n)
	for i := range row {
		if row[i], err = d.value(); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// appendOpBody appends the op-specific body fields shared by top-level
// requests and OpTxn sub-ops.
func appendOpBody(dst []byte, req *Request) ([]byte, error) {
	dst = appendStr(dst, req.Table)
	switch req.Op {
	case OpGet, OpDelete:
		dst = binary.AppendUvarint(dst, req.Key)
	case OpPut:
		dst = binary.AppendUvarint(dst, req.Key)
		dst = appendRow(dst, req.Row)
	case OpScan:
		dst = binary.AppendUvarint(dst, req.From)
		dst = binary.AppendUvarint(dst, req.To)
		dst = binary.AppendUvarint(dst, uint64(req.Limit))
	case OpRmw:
		dst = binary.AppendUvarint(dst, req.Key)
		dst = binary.AppendUvarint(dst, uint64(len(req.Cols)))
		for _, c := range req.Cols {
			dst = binary.AppendUvarint(dst, uint64(c.Col))
			mode := byte(0)
			if c.Add {
				mode = 1
			}
			dst = append(dst, mode)
			dst = appendValue(dst, c.Val)
		}
	case OpTxnPrewrite:
		if req.Txn == 0 {
			return nil, errors.New("wire: prewrite with zero txn id")
		}
		if len(req.Ops) == 0 {
			return nil, errors.New("wire: empty prewrite")
		}
		if req.PriShard < 0 {
			return nil, fmt.Errorf("wire: prewrite primary shard %d out of range", req.PriShard)
		}
		dst = binary.AppendUvarint(dst, req.Txn)
		dst = binary.AppendUvarint(dst, uint64(req.PriShard))
		dst = binary.AppendUvarint(dst, req.Key)
		dst = binary.AppendUvarint(dst, uint64(len(req.Ops)))
		for i := range req.Ops {
			sub := &req.Ops[i]
			if sub.Op != OpPut && sub.Op != OpDelete && sub.Op != OpRmw {
				return nil, fmt.Errorf("wire: prewrite cannot buffer op %v", sub.Op)
			}
			dst = append(dst, byte(sub.Op))
			var err error
			if dst, err = appendOpBody(dst, sub); err != nil {
				return nil, err
			}
		}
	case OpTxnCommit, OpTxnAbort:
		if req.Txn == 0 {
			return nil, errors.New("wire: txn settle with zero txn id")
		}
		if req.Phase > 1 {
			return nil, fmt.Errorf("wire: txn phase %d out of range", req.Phase)
		}
		dst = binary.AppendUvarint(dst, req.Txn)
		dst = append(dst, req.Phase)
		dst = binary.AppendUvarint(dst, uint64(len(req.Locks)))
		for _, l := range req.Locks {
			dst = appendStr(dst, l.Table)
			dst = binary.AppendUvarint(dst, l.Key)
		}
	case OpTxnResolve:
		if req.Txn == 0 {
			return nil, errors.New("wire: resolve with zero txn id")
		}
		if req.Phase > 1 {
			return nil, fmt.Errorf("wire: resolve phase %d out of range", req.Phase)
		}
		dst = binary.AppendUvarint(dst, req.Txn)
		dst = append(dst, req.Phase)
		dst = binary.AppendUvarint(dst, req.Key)
	default:
		return nil, fmt.Errorf("wire: cannot encode op %v", req.Op)
	}
	return dst, nil
}

func (d *dec) opBody(req *Request) error {
	var err error
	if req.Table, err = d.str(); err != nil {
		return err
	}
	switch req.Op {
	case OpGet, OpDelete:
		req.Key, err = d.uvarint()
		return err
	case OpPut:
		if req.Key, err = d.uvarint(); err != nil {
			return err
		}
		req.Row, err = d.row()
		return err
	case OpScan:
		if req.From, err = d.uvarint(); err != nil {
			return err
		}
		if req.To, err = d.uvarint(); err != nil {
			return err
		}
		limit, err := d.uvarint()
		if err != nil {
			return err
		}
		if limit > 1<<31 {
			return fmt.Errorf("wire: scan limit %d out of range", limit)
		}
		req.Limit = uint32(limit)
		return nil
	case OpRmw:
		if req.Key, err = d.uvarint(); err != nil {
			return err
		}
		n, err := d.count(3)
		if err != nil {
			return err
		}
		req.Cols = make([]RmwCol, n)
		for i := range req.Cols {
			col, err := d.uvarint()
			if err != nil {
				return err
			}
			if col > 1<<16 {
				return fmt.Errorf("wire: rmw column %d out of range", col)
			}
			req.Cols[i].Col = int(col)
			mode, err := d.byte()
			if err != nil {
				return err
			}
			if mode > 1 {
				return fmt.Errorf("wire: unknown rmw mode %d", mode)
			}
			req.Cols[i].Add = mode == 1
			if req.Cols[i].Val, err = d.value(); err != nil {
				return err
			}
		}
		return nil
	case OpTxnPrewrite:
		if req.Txn, err = d.uvarint(); err != nil {
			return err
		}
		if req.Txn == 0 {
			return errors.New("wire: prewrite with zero txn id")
		}
		shard, err := d.uvarint()
		if err != nil {
			return err
		}
		if shard > 1<<20 {
			return fmt.Errorf("wire: prewrite primary shard %d out of range", shard)
		}
		req.PriShard = int32(shard)
		if req.Key, err = d.uvarint(); err != nil {
			return err
		}
		n, err := d.count(3)
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("wire: empty prewrite")
		}
		req.Ops = make([]Request, n)
		for i := range req.Ops {
			opb, err := d.byte()
			if err != nil {
				return err
			}
			req.Ops[i].Op = Op(opb)
			req.Ops[i].Part = -1
			if o := req.Ops[i].Op; o != OpPut && o != OpDelete && o != OpRmw {
				return fmt.Errorf("wire: prewrite cannot buffer op %v", o)
			}
			if err := d.opBody(&req.Ops[i]); err != nil {
				return err
			}
		}
		return nil
	case OpTxnCommit, OpTxnAbort:
		if req.Txn, err = d.uvarint(); err != nil {
			return err
		}
		if req.Txn == 0 {
			return errors.New("wire: txn settle with zero txn id")
		}
		if req.Phase, err = d.byte(); err != nil {
			return err
		}
		if req.Phase > 1 {
			return fmt.Errorf("wire: txn phase %d out of range", req.Phase)
		}
		n, err := d.count(2)
		if err != nil {
			return err
		}
		req.Locks = make([]LockRef, n)
		for i := range req.Locks {
			if req.Locks[i].Table, err = d.str(); err != nil {
				return err
			}
			if req.Locks[i].Key, err = d.uvarint(); err != nil {
				return err
			}
		}
		return nil
	case OpTxnResolve:
		if req.Txn, err = d.uvarint(); err != nil {
			return err
		}
		if req.Txn == 0 {
			return errors.New("wire: resolve with zero txn id")
		}
		if req.Phase, err = d.byte(); err != nil {
			return err
		}
		if req.Phase > 1 {
			return fmt.Errorf("wire: resolve phase %d out of range", req.Phase)
		}
		req.Key, err = d.uvarint()
		return err
	}
	return fmt.Errorf("wire: unknown op %v", req.Op)
}

// EncodeRequest serializes a request payload (frame it with AppendFrame or
// WriteFrame). Layout:
//
//	id uvarint | part+1 uvarint | op byte | body
//	body(get/delete) := table key
//	body(put)        := table key row
//	body(scan)       := table from to limit
//	body(rmw)        := table key ncols { col mode value }*
//	body(txn)        := "" nops { op byte, body }*   (sub-ops may not nest)
//	body(repl-append):= epoch seq nops { op byte, body }*   (write sub-ops only)
//	body(repl-ack)   := epoch
//	body(shardmap)   := (empty)
//	body(repl-snap)  := epoch seq phase table nrows { key row }*
//	body(txn-prewrite) := pri-table txn pri-shard pri-key nops { op byte, body }*
//	body(txn-commit/abort) := "" txn phase nlocks { table key }*
//	body(txn-resolve)  := pri-table txn phase pri-key
//	body(map-prepare)  := ballot          (carried in Epoch)
//	body(map-accept)   := ballot shardmap
//	body(map-learn)    := shardmap
func EncodeRequest(req *Request) ([]byte, error) {
	if req.Part < -1 {
		return nil, fmt.Errorf("wire: partition %d out of range", req.Part)
	}
	dst := binary.AppendUvarint(nil, req.ID)
	dst = binary.AppendUvarint(dst, uint64(req.Part+1))
	dst = append(dst, byte(req.Op))
	if req.Op.IsRepl() {
		return appendReplBody(dst, req)
	}
	if req.Op != OpTxn {
		return appendOpBody(dst, req)
	}
	if len(req.Ops) == 0 {
		return nil, errors.New("wire: empty transaction")
	}
	dst = appendStr(dst, "")
	dst = binary.AppendUvarint(dst, uint64(len(req.Ops)))
	for i := range req.Ops {
		sub := &req.Ops[i]
		if sub.Op == OpTxn {
			return nil, errors.New("wire: nested transaction")
		}
		if !sub.Op.basic() {
			return nil, fmt.Errorf("wire: op %v cannot nest in a transaction", sub.Op)
		}
		dst = append(dst, byte(sub.Op))
		var err error
		if dst, err = appendOpBody(dst, sub); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendReplBody encodes the body of a replication-plane request.
func appendReplBody(dst []byte, req *Request) ([]byte, error) {
	switch req.Op {
	case OpReplAppend:
		if len(req.Ops) == 0 {
			return nil, errors.New("wire: empty repl batch")
		}
		dst = binary.AppendUvarint(dst, req.Epoch)
		dst = binary.AppendUvarint(dst, req.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(req.Ops)))
		for i := range req.Ops {
			sub := &req.Ops[i]
			dst = append(dst, byte(sub.Op))
			var err error
			if dst, err = appendOpBody(dst, sub); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case OpReplAck:
		return binary.AppendUvarint(dst, req.Epoch), nil
	case OpShardMap:
		return dst, nil
	case OpReplSnap:
		if req.Phase > SnapDone {
			return nil, fmt.Errorf("wire: unknown snapshot phase %d", req.Phase)
		}
		if len(req.SnapKeys) != len(req.SnapRows) {
			return nil, fmt.Errorf("wire: snapshot chunk %d keys vs %d rows", len(req.SnapKeys), len(req.SnapRows))
		}
		dst = binary.AppendUvarint(dst, req.Epoch)
		dst = binary.AppendUvarint(dst, req.Seq)
		dst = append(dst, req.Phase)
		dst = appendStr(dst, req.Table)
		dst = binary.AppendUvarint(dst, uint64(len(req.SnapKeys)))
		for i, k := range req.SnapKeys {
			dst = binary.AppendUvarint(dst, k)
			dst = appendRow(dst, req.SnapRows[i])
		}
		return dst, nil
	case OpMapPrepare:
		return binary.AppendUvarint(dst, req.Epoch), nil
	case OpMapAccept:
		if req.Map == nil {
			return nil, errors.New("wire: map accept without a map")
		}
		dst = binary.AppendUvarint(dst, req.Epoch)
		return appendShardMap(dst, req.Map), nil
	case OpMapLearn:
		if req.Map == nil {
			return nil, errors.New("wire: map learn without a map")
		}
		return appendShardMap(dst, req.Map), nil
	}
	return nil, fmt.Errorf("wire: cannot encode repl op %v", req.Op)
}

func (d *dec) replBody(req *Request) error {
	var err error
	switch req.Op {
	case OpReplAppend:
		if req.Epoch, err = d.uvarint(); err != nil {
			return err
		}
		if req.Seq, err = d.uvarint(); err != nil {
			return err
		}
		n, err := d.count(3)
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("wire: empty repl batch")
		}
		req.Ops = make([]Request, n)
		for i := range req.Ops {
			opb, err := d.byte()
			if err != nil {
				return err
			}
			req.Ops[i].Op = Op(opb)
			req.Ops[i].Part = -1
			if err := d.opBody(&req.Ops[i]); err != nil {
				return err
			}
		}
		return nil
	case OpReplAck:
		req.Epoch, err = d.uvarint()
		return err
	case OpShardMap:
		return nil
	case OpReplSnap:
		if req.Epoch, err = d.uvarint(); err != nil {
			return err
		}
		if req.Seq, err = d.uvarint(); err != nil {
			return err
		}
		if req.Phase, err = d.byte(); err != nil {
			return err
		}
		if req.Phase > SnapDone {
			return fmt.Errorf("wire: unknown snapshot phase %d", req.Phase)
		}
		if req.Table, err = d.str(); err != nil {
			return err
		}
		n, err := d.count(3)
		if err != nil {
			return err
		}
		req.SnapKeys = make([]uint64, n)
		req.SnapRows = make([][]core.Value, n)
		for i := 0; i < n; i++ {
			if req.SnapKeys[i], err = d.uvarint(); err != nil {
				return err
			}
			if req.SnapRows[i], err = d.row(); err != nil {
				return err
			}
		}
		return nil
	case OpMapPrepare:
		req.Epoch, err = d.uvarint()
		return err
	case OpMapAccept:
		if req.Epoch, err = d.uvarint(); err != nil {
			return err
		}
		req.Map, err = d.shardMap()
		return err
	case OpMapLearn:
		req.Map, err = d.shardMap()
		return err
	}
	return fmt.Errorf("wire: unknown repl op %v", req.Op)
}

// EncodeOp serializes one buffered write op (op byte + body) — the form a
// prewrite stores inside a lock record. Only the write subset is legal.
func EncodeOp(sub *Request) ([]byte, error) {
	if sub.Op != OpPut && sub.Op != OpDelete && sub.Op != OpRmw {
		return nil, fmt.Errorf("wire: cannot buffer op %v in a lock record", sub.Op)
	}
	return appendOpBody([]byte{byte(sub.Op)}, sub)
}

// DecodeOp parses a buffered write op from a lock record. Trailing bytes and
// truncations are errors — a torn lock record must never silently decode as
// a different (or shorter) write, which is what keeps a torn prewrite from
// ever surfacing as committed.
func DecodeOp(b []byte) (*Request, error) {
	d := &dec{b: b}
	opb, err := d.byte()
	if err != nil {
		return nil, err
	}
	req := &Request{Op: Op(opb), Part: -1}
	if req.Op != OpPut && req.Op != OpDelete && req.Op != OpRmw {
		return nil, fmt.Errorf("wire: lock record buffers op %v", req.Op)
	}
	if err := d.opBody(req); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after lock record", d.remaining())
	}
	return req, nil
}

// RequestID extracts the request ID from a payload prefix, for error
// responses to frames whose full decode failed.
func RequestID(payload []byte) (uint64, bool) {
	v, n := binary.Uvarint(payload)
	return v, n > 0
}

// DecodeRequest parses a request payload.
func DecodeRequest(payload []byte) (*Request, error) {
	d := &dec{b: payload}
	req := &Request{}
	var err error
	if req.ID, err = d.uvarint(); err != nil {
		return nil, err
	}
	part, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if part > 1<<20 {
		return nil, fmt.Errorf("wire: partition %d out of range", part)
	}
	req.Part = int32(part) - 1
	op, err := d.byte()
	if err != nil {
		return nil, err
	}
	req.Op = Op(op)
	if req.Op.IsRepl() {
		if err := d.replBody(req); err != nil {
			return nil, err
		}
	} else if req.Op != OpTxn {
		if err := d.opBody(req); err != nil {
			return nil, err
		}
	} else {
		if _, err := d.str(); err != nil { // reserved empty table slot
			return nil, err
		}
		n, err := d.count(3)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, errors.New("wire: empty transaction")
		}
		req.Ops = make([]Request, n)
		for i := range req.Ops {
			opb, err := d.byte()
			if err != nil {
				return nil, err
			}
			req.Ops[i].Op = Op(opb)
			req.Ops[i].Part = -1
			if req.Ops[i].Op == OpTxn {
				return nil, errors.New("wire: nested transaction")
			}
			if !req.Ops[i].Op.basic() {
				return nil, fmt.Errorf("wire: op %v cannot nest in a transaction", req.Ops[i].Op)
			}
			if err := d.opBody(&req.Ops[i]); err != nil {
				return nil, err
			}
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after request", d.remaining())
	}
	return req, nil
}

// EncodeResponse serializes a response payload. Layout:
//
//	id uvarint | status byte | msg | kind byte | body
//	body(row)  := found byte [row]
//	body(scan) := n { key row }*
//	body(subs) := n { status byte, msg, kind, body }*   (subs may not nest)
func EncodeResponse(resp *Response) ([]byte, error) {
	dst := binary.AppendUvarint(nil, resp.ID)
	return appendRespBody(dst, resp, false)
}

func appendRespBody(dst []byte, resp *Response, sub bool) ([]byte, error) {
	dst = append(dst, byte(resp.Status))
	dst = appendStr(dst, resp.Msg)
	switch {
	case resp.Subs != nil:
		if sub {
			return nil, errors.New("wire: nested sub-responses")
		}
		dst = append(dst, respSubs)
		dst = binary.AppendUvarint(dst, uint64(len(resp.Subs)))
		for i := range resp.Subs {
			var err error
			if dst, err = appendRespBody(dst, &resp.Subs[i], true); err != nil {
				return nil, err
			}
		}
	case resp.Keys != nil || resp.Rows != nil:
		if len(resp.Keys) != len(resp.Rows) {
			return nil, fmt.Errorf("wire: scan response %d keys vs %d rows", len(resp.Keys), len(resp.Rows))
		}
		dst = append(dst, respScan)
		dst = binary.AppendUvarint(dst, uint64(len(resp.Keys)))
		for i, k := range resp.Keys {
			dst = binary.AppendUvarint(dst, k)
			dst = appendRow(dst, resp.Rows[i])
		}
	case resp.Found || resp.Row != nil:
		dst = append(dst, respRow)
		if resp.Found {
			dst = append(dst, 1)
			dst = appendRow(dst, resp.Row)
		} else {
			dst = append(dst, 0)
		}
	case resp.Txn != 0:
		if resp.TxnState > TxnAborted {
			return nil, fmt.Errorf("wire: txn state %d out of range", resp.TxnState)
		}
		if resp.PriShard < 0 {
			return nil, fmt.Errorf("wire: txn primary shard %d out of range", resp.PriShard)
		}
		dst = append(dst, respTxn)
		dst = binary.AppendUvarint(dst, resp.Txn)
		dst = append(dst, resp.TxnState)
		dst = binary.AppendUvarint(dst, uint64(resp.PriShard))
		dst = appendStr(dst, resp.PriTable)
		dst = binary.AppendUvarint(dst, resp.PriKey)
		dst = appendStr(dst, resp.LockTable)
		dst = binary.AppendUvarint(dst, resp.LockKey)
	case resp.Map != nil && resp.Epoch != 0:
		// Consensus: an accepted (ballot, map) pair from a prepare promise.
		dst = append(dst, respCons)
		dst = binary.AppendUvarint(dst, resp.Epoch)
		dst = appendShardMap(dst, resp.Map)
	case resp.Map != nil:
		dst = append(dst, respMap)
		dst = appendShardMap(dst, resp.Map)
	case resp.Epoch != 0 || resp.Seq != 0:
		dst = append(dst, respRepl)
		dst = binary.AppendUvarint(dst, resp.Epoch)
		dst = binary.AppendUvarint(dst, resp.Seq)
	default:
		dst = append(dst, respNone)
	}
	return dst, nil
}

// DecodeResponse parses a response payload.
func DecodeResponse(payload []byte) (*Response, error) {
	d := &dec{b: payload}
	resp := &Response{}
	var err error
	if resp.ID, err = d.uvarint(); err != nil {
		return nil, err
	}
	if err := d.respBody(resp, false); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after response", d.remaining())
	}
	return resp, nil
}

func (d *dec) respBody(resp *Response, sub bool) error {
	status, err := d.byte()
	if err != nil {
		return err
	}
	if status > byte(StatusLocked) {
		return fmt.Errorf("wire: unknown status %d", status)
	}
	resp.Status = Status(status)
	if resp.Msg, err = d.str(); err != nil {
		return err
	}
	kind, err := d.byte()
	if err != nil {
		return err
	}
	switch kind {
	case respNone:
		return nil
	case respRow:
		found, err := d.byte()
		if err != nil {
			return err
		}
		if found > 1 {
			return fmt.Errorf("wire: found flag %d", found)
		}
		if found == 1 {
			resp.Found = true
			if resp.Row, err = d.row(); err != nil {
				return err
			}
		}
		return nil
	case respScan:
		n, err := d.count(3)
		if err != nil {
			return err
		}
		resp.Keys = make([]uint64, n)
		resp.Rows = make([][]core.Value, n)
		for i := 0; i < n; i++ {
			if resp.Keys[i], err = d.uvarint(); err != nil {
				return err
			}
			if resp.Rows[i], err = d.row(); err != nil {
				return err
			}
		}
		return nil
	case respSubs:
		if sub {
			return errors.New("wire: nested sub-responses")
		}
		n, err := d.count(3)
		if err != nil {
			return err
		}
		resp.Subs = make([]Response, n)
		for i := range resp.Subs {
			if err := d.respBody(&resp.Subs[i], true); err != nil {
				return err
			}
		}
		return nil
	case respMap:
		resp.Map, err = d.shardMap()
		return err
	case respRepl:
		if resp.Epoch, err = d.uvarint(); err != nil {
			return err
		}
		resp.Seq, err = d.uvarint()
		return err
	case respTxn:
		if resp.Txn, err = d.uvarint(); err != nil {
			return err
		}
		if resp.Txn == 0 {
			return errors.New("wire: txn response with zero txn id")
		}
		if resp.TxnState, err = d.byte(); err != nil {
			return err
		}
		if resp.TxnState > TxnAborted {
			return fmt.Errorf("wire: txn state %d out of range", resp.TxnState)
		}
		shard, err := d.uvarint()
		if err != nil {
			return err
		}
		if shard > 1<<20 {
			return fmt.Errorf("wire: txn primary shard %d out of range", shard)
		}
		resp.PriShard = int32(shard)
		if resp.PriTable, err = d.str(); err != nil {
			return err
		}
		if resp.PriKey, err = d.uvarint(); err != nil {
			return err
		}
		if resp.LockTable, err = d.str(); err != nil {
			return err
		}
		resp.LockKey, err = d.uvarint()
		return err
	case respCons:
		if resp.Epoch, err = d.uvarint(); err != nil {
			return err
		}
		if resp.Epoch == 0 {
			return errors.New("wire: consensus response with zero ballot")
		}
		resp.Map, err = d.shardMap()
		return err
	}
	return fmt.Errorf("wire: unknown response kind %d", kind)
}
