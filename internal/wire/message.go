package wire

import (
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
	OpRmw    Op = 5 // read-modify-write: read the Add columns, apply the updates, return what was read
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

// opPlane says who executes an op and what may carry it.
type opPlane byte

const (
	planeRead  opPlane = 1 + iota // data read: a TXN or REPL_APPEND sub-op
	planeWrite                    // data write: also a prewrite's buffered op and a lock record
	planeTxn                      // OpTxn: carries data ops, never itself
	planeRepl                     // replication, cluster-metadata and consensus plane
	plane2PC                      // cross-shard 2PC: executes and replicates like a write
)

// opTable names every op and its plane, indexed by the op's wire byte; a
// zero entry is no op.
var opTable = [...]struct {
	name  string
	plane opPlane
}{
	OpGet:         {"get", planeRead},
	OpPut:         {"put", planeWrite},
	OpDelete:      {"delete", planeWrite},
	OpScan:        {"scan", planeRead},
	OpRmw:         {"rmw", planeWrite},
	OpTxn:         {"txn", planeTxn},
	OpReplAppend:  {"repl-append", planeRepl},
	OpReplAck:     {"repl-ack", planeRepl},
	OpShardMap:    {"shardmap", planeRepl},
	OpReplSnap:    {"repl-snap", planeRepl},
	OpTxnPrewrite: {"txn-prewrite", plane2PC},
	OpTxnCommit:   {"txn-commit", plane2PC},
	OpTxnAbort:    {"txn-abort", plane2PC},
	OpTxnResolve:  {"txn-resolve", plane2PC},
	OpMapPrepare:  {"map-prepare", planeRepl},
	OpMapAccept:   {"map-accept", planeRepl},
	OpMapLearn:    {"map-learn", planeRepl},
}

func (o Op) plane() opPlane {
	if int(o) < len(opTable) {
		return opTable[o].plane
	}
	return 0
}

// IsRepl reports whether the op belongs to the replication/cluster-metadata
// plane (dispatched to the server's Replicator, never to the executor). The
// consensus ops live on this plane too: acceptors answer them without
// touching the storage executors.
func (o Op) IsRepl() bool { return o.plane() == planeRepl }

// Is2PC reports whether the op is a cross-shard transaction-protocol op.
// These execute on the storage executor (and replicate) like ordinary
// writes, but carry the extra txn fields.
func (o Op) Is2PC() bool { return o.plane() == plane2PC }

// basic reports whether the op is a plain data op (legal as an OpTxn sub-op).
func (o Op) basic() bool { return o.plane() == planeRead || o.plane() == planeWrite }

// buffered reports whether the op is a data write, the subset a prewrite
// buffers and a lock record stores.
func (o Op) buffered() bool { return o.plane() == planeWrite }

// replicable reports whether the op may ride a REPL_APPEND batch.
func (o Op) replicable() bool { return o.basic() || o.Is2PC() }

func (o Op) String() string {
	if o.plane() != 0 {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Ops lists the op set (for metrics registration and sweeps).
var Ops = func() []Op {
	var out []Op
	for o := range opTable {
		if Op(o).plane() != 0 {
			out = append(out, Op(o))
		}
	}
	return out
}()

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

// statusTable names every status, indexed by its wire byte, and says
// whether it invites a resubmit: the request did not commit, the server is
// (or will be) healthy, and the client did nothing wrong — core.IsRetryable
// across the wire.
var statusTable = [...]struct {
	name      string
	retryable bool
}{
	StatusOK:         {"ok", false},
	StatusNotFound:   {"not-found", false},
	StatusKeyExists:  {"key-exists", false},
	StatusAborted:    {"aborted", false},
	StatusBadRequest: {"bad-request", false},
	StatusOverloaded: {"overloaded", true},
	StatusRecovering: {"recovering", true},
	StatusRetryable:  {"retryable", true},
	StatusCorrupt:    {"corrupt", false},
	StatusDegraded:   {"degraded", false},
	StatusClosed:     {"closed", false},
	StatusInternal:   {"internal", false},
	StatusNotPrimary: {"not-primary", false},
	StatusStaleEpoch: {"stale-epoch", false},
	StatusLocked:     {"locked", false},
}

// maxStatus is the highest status a response may carry.
const maxStatus = Status(len(statusTable) - 1)

func (s Status) String() string {
	if s <= maxStatus {
		return statusTable[s].name
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// Statuses lists every status (for metrics registration).
var Statuses = func() []Status {
	out := make([]Status, len(statusTable))
	for s := range out {
		out[s] = Status(s)
	}
	return out
}()

// Retryable reports whether the status is an invitation to resubmit (see
// statusTable).
func (s Status) Retryable() bool { return s <= maxStatus && statusTable[s].retryable }

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
// Contract of the answer: an RMW reads what it computes from. Response.Row is
// the pre-image of the request's Add columns and of nothing else — a row of
// the table's schema width, indexed by column as ever (Row[col]), in which
// every other column is the zero core.Value. A set-mode column is written
// blind, so a set-only RMW answers with a bare status; a client that wants a
// set column's old value sends a GET in the same TXN frame.
type RmwCol struct {
	Col int  // column index in the table's schema
	Add bool // true: add Val.I to the current value (TInt columns only)
	Val core.Value
}

// RmwReads lists the columns an OpRmw reads before it writes: its Add
// columns, the ones it computes from.
func (r *Request) RmwReads() []int {
	var cols []int
	for _, cm := range r.Cols {
		if cm.Add {
			cols = append(cols, cm.Col)
		}
	}
	return cols
}

// ApplyRmw is the one lowering of an OpRmw onto an engine, inside the caller's
// transaction, for the primary, a backup's replay and a 2PC commit alike:
// read RmwReads through core.GetCols, compute the Add columns from that read,
// Update. It returns what it read, the pre-image in the RmwCol contract. A
// set-only request reads nothing and is a bare Update, which reports a
// missing key.
func ApplyRmw(eng core.Engine, req *Request) ([]core.Value, error) {
	var pre []core.Value
	if reads := req.RmwReads(); len(reads) > 0 {
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

	Found bool         // Get: whether the key existed; Rmw: whether it read a pre-image
	Row   []core.Value // Get: the row; Rmw: the pre-image of the Add columns (see RmwCol)

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

// Value tags inside rows. A decoded TBytes value always has a non-nil S, and
// a zero value always travels as tagZero, so encode(decode(x)) is a fixpoint.
const (
	tagInt   byte = 0
	tagBytes byte = 1
	tagZero  byte = 2 // core.Value{}: no payload
)
