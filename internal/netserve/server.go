// Package netserve is the TCP front door over serve.Runtime: it speaks the
// internal/wire framed protocol, executes requests through the supervised
// per-partition executors, and — the invariant everything else leans on —
// writes a StatusOK response only after serve.SubmitPart has returned, which
// happens strictly after the group-commit durability barrier released the
// ack. An acked commit over the wire is durable by construction, never
// merely buffered.
//
// Point reads (OpGet) and range scans (OpScan) outside a transaction take a
// different road: serve.ReadPart hands them to the partition's snapshot
// reader, which serves them from an MVCC read view pinned at the durable
// timestamp frontier — outside the executor's queue, and incapable of
// observing an unacked write. Reads inside OpTxn still run on
// the executor so a transaction sees its own writes.
//
// Each connection gets a reader goroutine (frame decode, request dispatch)
// and a writer goroutine (response serialization); requests execute in their
// own handler goroutines, so a connection can pipeline requests to many
// partitions and receive responses out of order, matched by request ID.
package netserve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/obs"
	"nstore/internal/serve"
	"nstore/internal/testbed"
	"nstore/internal/txn2pc"
	"nstore/internal/wire"
)

// Replicator hooks a cluster layer into the server's request path. All three
// methods are optional behaviors of one implementation (internal/cluster);
// a nil Replicator leaves the server single-node.
type Replicator interface {
	// Admit screens an already-routed request before execution. A non-nil
	// error (typically wire.StatusError{StatusNotPrimary}) rejects it —
	// this is how a backup refuses client traffic.
	Admit(part int, req *wire.Request) error
	// Commit wraps a write's execution. Implementations call submit() —
	// which runs the transaction through the runtime and returns after the
	// group-commit durability barrier — under their own shard ordering
	// discipline, ship the batch to the backup, and return only when the
	// ack may be released to the client. The returned error replaces
	// submit's for status mapping.
	Commit(ctx context.Context, part int, req *wire.Request, submit func() error) error
	// Handle serves a replication-plane request (req.Op.IsRepl()).
	Handle(ctx context.Context, req *wire.Request) *wire.Response
}

// Config parameterizes a Server.
type Config struct {
	// MaxConns bounds concurrent connections (default 256). A connection
	// over the limit is accepted and immediately closed, which a client
	// sees as a dial-then-EOF — the standard "try another replica" signal.
	MaxConns int
	// MaxFrame bounds a request frame's payload (default wire.DefaultMaxFrame).
	MaxFrame int
	// ScanLimit caps rows per scan when the request asks for no limit or a
	// larger one (default 1024).
	ScanLimit int
	// Repl, when non-nil, is the cluster layer's hook into the request
	// path: role admission, ack-after-replication on writes, and the
	// replication-plane ops.
	Repl Replicator
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.ScanLimit <= 0 {
		c.ScanLimit = 1024
	}
	return c
}

// Server serves the wire protocol over TCP on top of a serve.Runtime. The
// caller owns the runtime; Close tears down only the network layer (graceful
// drain: stop accepting, let in-flight requests finish and flush, then close
// the connections).
type Server struct {
	rt  *serve.Runtime
	db  *testbed.DB
	cfg Config
	ln  net.Listener

	schemas map[string]*core.Schema
	// twoPC is set when the DB schemas carry the hidden txn2pc tables:
	// cross-shard 2PC ops are accepted and every client read/write checks
	// the shadowing lock table first.
	twoPC bool

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup

	active atomic.Int64

	mConns    *obs.Counter
	mRejected *obs.Counter
	mBadFrame *obs.Counter
	mOps      map[wire.Op]*obs.Counter
	mStatus   map[wire.Status]*obs.Counter
	mLat      map[wire.Op]*obs.Histogram
}

// New starts a server on addr (":0" for an ephemeral port) serving rt. The
// wire_* metric surface is registered on the runtime's registry at creation,
// so the /metrics schema stays stable for the server's lifetime.
func New(rt *serve.Runtime, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: listen %s: %w", addr, err)
	}
	s := &Server{
		rt:      rt,
		db:      rt.DB(),
		cfg:     cfg.withDefaults(),
		ln:      ln,
		schemas: make(map[string]*core.Schema),
		conns:   make(map[*srvConn]struct{}),
	}
	for _, sc := range s.db.Schemas() {
		s.schemas[sc.Name] = sc
	}
	s.twoPC = txn2pc.Enabled(s.db.Schemas())
	s.buildMetrics(rt.Metrics())
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *Server) buildMetrics(reg *obs.Registry) {
	s.mConns = reg.Counter("wire_conns")
	s.mRejected = reg.Counter("wire_conns_rejected")
	s.mBadFrame = reg.Counter("wire_bad_frames")
	reg.GaugeFunc("wire_conns_active", func() float64 { return float64(s.active.Load()) })
	s.mOps = make(map[wire.Op]*obs.Counter, len(wire.Ops))
	s.mLat = make(map[wire.Op]*obs.Histogram, len(wire.Ops))
	for _, op := range wire.Ops {
		s.mOps[op] = reg.Counter("wire_op_" + op.String())
		s.mLat[op] = reg.Histogram("wire_op_" + op.String() + "_ns")
	}
	s.mStatus = make(map[wire.Status]*obs.Counter, len(wire.Statuses))
	for _, st := range wire.Statuses {
		s.mStatus[st] = reg.Counter("wire_status_" + st.String())
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains the server: the listener closes immediately, every
// connection's read side is shut so no new requests enter, in-flight
// requests run to completion and their responses flush, then the
// connections close. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.closeRead()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Kill severs the server abruptly — the SIGKILL stand-in for node-death
// chaos: the listener and every connection close immediately, nothing drains,
// nothing flushes, in-flight responses go nowhere. Unlike Close it does not
// wait for handler goroutines; the caller must treat the node as gone.
func (s *Server) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.c.Close()
	}
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.active.Load() >= int64(s.cfg.MaxConns) {
			s.mRejected.Inc()
			conn.Close()
			continue
		}
		c := &srvConn{s: s, c: conn, writeCh: make(chan []byte, 64)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.mConns.Inc()
		s.active.Add(1)
		s.wg.Add(2)
		go c.read()
		go c.write()
	}
}

func (s *Server) drop(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.active.Add(-1)
}

// srvConn is one client connection.
type srvConn struct {
	s       *Server
	c       net.Conn
	writeCh chan []byte

	inflight sync.WaitGroup
}

// closeRead shuts the connection's read side so the reader unblocks with
// EOF and the drain path (flush in-flight, then close) runs.
func (c *srvConn) closeRead() {
	if tc, ok := c.c.(*net.TCPConn); ok {
		tc.CloseRead()
		return
	}
	c.c.SetReadDeadline(time.Now())
}

// read is the connection's reader loop: frames in, handlers out. On any
// framing error or EOF it stops, waits for in-flight handlers (whose
// responses still get written), then releases the writer.
func (c *srvConn) read() {
	defer c.s.wg.Done()
	br := bufio.NewReaderSize(c.c, 64<<10)
	for {
		payload, err := wire.ReadFrame(br, c.s.cfg.MaxFrame)
		if err != nil {
			// A corrupt or oversized frame means the stream can't be
			// trusted; EOF means the client is done. Either way: drain.
			if errors.Is(err, wire.ErrCRC) || errors.Is(err, wire.ErrFrameTooBig) {
				c.s.mBadFrame.Inc()
			}
			break
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// Framing held, so the stream is still in sync: answer with
			// BadRequest if the ID survived, else drop the connection.
			id, ok := wire.RequestID(payload)
			if !ok {
				break
			}
			c.respond(&wire.Response{ID: id, Status: wire.StatusBadRequest, Msg: err.Error()})
			continue
		}
		c.inflight.Add(1)
		go func() {
			defer c.inflight.Done()
			start := time.Now()
			resp := c.s.exec(context.Background(), req)
			if m, ok := c.s.mLat[req.Op]; ok {
				m.Record(time.Since(start))
			}
			c.s.mStatus[resp.Status].Inc()
			c.respond(resp)
		}()
	}
	c.inflight.Wait()
	close(c.writeCh)
}

// respond frames and queues one response. The writer owns the socket; this
// only blocks if the client stops reading long enough to fill the queue.
func (c *srvConn) respond(resp *wire.Response) {
	payload, err := wire.EncodeResponse(resp)
	if err != nil {
		// An unencodable response is a server bug; degrade to a bare
		// internal error so the client is not left waiting.
		payload, _ = wire.EncodeResponse(&wire.Response{ID: resp.ID, Status: wire.StatusInternal, Msg: "response encoding failed"})
	}
	c.writeCh <- wire.AppendFrame(make([]byte, 0, len(payload)+9), payload)
}

// write is the connection's writer loop. It batches: after each frame it
// opportunistically drains whatever else is queued before flushing, so
// pipelined responses share syscalls.
func (c *srvConn) write() {
	defer c.s.wg.Done()
	defer c.s.drop(c)
	defer c.c.Close()
	bw := bufio.NewWriterSize(c.c, 64<<10)
	dead := false
	for frame := range c.writeCh {
		if dead {
			continue // drain so handlers never block on a dead socket
		}
		if _, err := bw.Write(frame); err != nil {
			dead = true
			continue
		}
		if len(c.writeCh) == 0 {
			if err := bw.Flush(); err != nil {
				dead = true
			}
		}
	}
	if !dead {
		bw.Flush()
	}
}

// exec validates and executes one request through the runtime, producing
// the response only after the durability barrier has released the ack.
func (s *Server) exec(ctx context.Context, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if m, ok := s.mOps[req.Op]; ok {
		m.Inc()
	}
	if req.Op.IsRepl() {
		if s.cfg.Repl == nil {
			resp.Status, resp.Msg = wire.StatusBadRequest, "not a cluster node"
			return resp
		}
		r := s.cfg.Repl.Handle(ctx, req)
		r.ID = req.ID
		return r
	}
	part, err := s.route(req)
	if err != nil {
		resp.Status, resp.Msg = wire.StatusBadRequest, err.Error()
		return resp
	}
	if s.cfg.Repl != nil {
		if err := s.cfg.Repl.Admit(part, req); err != nil {
			resp.Status, resp.Msg = statusOf(err)
			return resp
		}
	}
	if err := s.validate(req); err != nil {
		resp.Status, resp.Msg = wire.StatusBadRequest, err.Error()
		return resp
	}
	// Point reads and range scans bypass the executor queue entirely: a
	// reader goroutine serves them from an MVCC view pinned at the
	// partition's durable frontier, so they never wait behind writes and
	// never observe an unacked commit.
	if req.Op == wire.OpGet || req.Op == wire.OpScan {
		err = s.rt.ReadPart(ctx, part, func(v core.ReadView) error {
			resp.Found, resp.Row, resp.Keys, resp.Rows = false, nil, nil, nil
			// A lock shadowing the key means a cross-shard transaction is
			// between its commit point and this shard's roll-forward: serving
			// the pre-image here while the primary shard already shows the
			// new state would expose a partial commit. Kick the resolution
			// back to the client (StatusLocked carries the primary pointer).
			if s.twoPC {
				if req.Op == wire.OpGet {
					if err := txn2pc.LockedAt(v, req.Table, req.Key); err != nil {
						return err
					}
				} else if err := txn2pc.LockedInRange(v, req.Table, req.From, req.To); err != nil {
					return err
				}
			}
			return s.applyRead(v, req, resp)
		})
		s.finish(resp, err)
		return resp
	}
	// The executor retries retryable transaction failures in place, so the
	// closure must reset its result fields each attempt.
	txn := func(eng core.Engine) error {
		resp.Found, resp.Row, resp.Keys, resp.Rows, resp.Subs = false, nil, nil, nil, nil
		resp.Txn, resp.TxnState, resp.PriShard, resp.PriTable, resp.PriKey = 0, 0, 0, "", 0
		switch req.Op {
		case wire.OpTxnPrewrite:
			if err := txn2pc.Prewrite(eng, req); err != nil {
				return err
			}
			// Report RMW pre-images alongside the locks: the lock excludes
			// every other writer, so the value read here is the value the
			// commit-time apply will see.
			resp.Subs = make([]wire.Response, len(req.Ops))
			for i := range req.Ops {
				sub := &req.Ops[i]
				if sub.Op != wire.OpRmw {
					continue
				}
				row, ok, err := core.GetCols(eng, sub.Table, sub.Key, sub.RmwReads(true))
				if err != nil {
					return err
				}
				resp.Subs[i].Found = ok
				resp.Subs[i].Row = copyRow(row)
			}
			return nil
		case wire.OpTxnCommit:
			return txn2pc.Commit(eng, req.Txn, req.Phase == 1, req.Locks)
		case wire.OpTxnAbort:
			return txn2pc.Abort(eng, req.Txn, req.Phase == 1, req.Locks)
		case wire.OpTxnResolve:
			st, err := txn2pc.Resolve(eng, req.Txn, req.Table, req.Key, req.Phase == 1)
			if err != nil {
				return err
			}
			resp.Txn, resp.TxnState = req.Txn, st
			resp.PriShard, resp.PriTable, resp.PriKey = int32(part), req.Table, req.Key
			return nil
		case wire.OpTxn:
			resp.Subs = make([]wire.Response, len(req.Ops))
			for i := range req.Ops {
				if err := s.apply(eng, &req.Ops[i], &resp.Subs[i]); err != nil {
					return err
				}
			}
			return nil
		}
		return s.apply(eng, req, resp)
	}
	if s.cfg.Repl != nil {
		// The cluster layer owns the write: it serializes per shard, runs
		// submit (local durability), ships the batch, and only returns when
		// the backup acked — or with the error that must mask the result.
		err = s.cfg.Repl.Commit(ctx, part, req, func() error {
			return s.rt.SubmitPart(ctx, part, txn)
		})
	} else {
		err = s.rt.SubmitPart(ctx, part, txn)
	}
	s.finish(resp, err)
	return resp
}

// finish maps err onto the response status. A lock conflict keeps the
// primary-lock pointer fields so the client can drive resolution; every
// other failure clears all result fields.
func (s *Server) finish(resp *wire.Response, err error) {
	resp.Status, resp.Msg = statusOf(err)
	if resp.Status == wire.StatusOK {
		return
	}
	resp.Found, resp.Row, resp.Keys, resp.Rows, resp.Subs = false, nil, nil, nil, nil
	resp.Txn, resp.TxnState, resp.PriShard, resp.PriTable, resp.PriKey = 0, 0, 0, "", 0
	resp.LockTable, resp.LockKey = "", 0
	if le := txn2pc.AsLocked(err); le != nil {
		resp.Txn, resp.TxnState = le.Txn, wire.TxnPending
		resp.PriShard, resp.PriTable, resp.PriKey = le.PriShard, le.PriTable, le.PriKey
		resp.LockTable, resp.LockKey = le.Table, le.Key
	}
}

// route picks the request's home partition: explicit Part, or the testbed
// routing function over the primary key (a transaction routes by its first
// sub-op, since every testbed transaction is single-partition).
func (s *Server) route(req *wire.Request) (int, error) {
	if req.Part >= 0 {
		if int(req.Part) >= s.db.Partitions() {
			return 0, fmt.Errorf("no partition %d", req.Part)
		}
		return int(req.Part), nil
	}
	if req.Op == wire.OpTxn {
		if len(req.Ops) == 0 {
			return 0, errors.New("empty transaction")
		}
		return s.db.Route(req.Ops[0].Key), nil
	}
	return s.db.Route(req.Key), nil
}

// validate rejects schema-violating requests before they cost an executor
// slot: unknown tables and ops, malformed rows, out-of-range or repeated RMW
// columns.
func (s *Server) validate(req *wire.Request) error {
	if req.Op == wire.OpTxn {
		for i := range req.Ops {
			if req.Ops[i].Op == wire.OpTxn {
				return errors.New("nested transaction")
			}
			if err := s.validate(&req.Ops[i]); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	}
	if req.Op.Is2PC() {
		if !s.twoPC {
			return fmt.Errorf("%v: server schemas carry no 2pc tables", req.Op)
		}
		switch req.Op {
		case wire.OpTxnPrewrite:
			if err := s.checkUserTable(req.Table); err != nil {
				return fmt.Errorf("primary lock: %w", err)
			}
			for i := range req.Ops {
				if err := s.checkUserTable(req.Ops[i].Table); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
				if err := s.validate(&req.Ops[i]); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
		case wire.OpTxnCommit, wire.OpTxnAbort:
			for i, l := range req.Locks {
				if err := s.checkUserTable(l.Table); err != nil {
					return fmt.Errorf("lock %d: %w", i, err)
				}
			}
		case wire.OpTxnResolve:
			if err := s.checkUserTable(req.Table); err != nil {
				return fmt.Errorf("primary lock: %w", err)
			}
		}
		return nil
	}
	sc, ok := s.schemas[req.Table]
	if !ok {
		return fmt.Errorf("unknown table %q", req.Table)
	}
	// The hidden 2PC bookkeeping tables are engine-internal: a client that
	// could write a lock record directly could forge or destroy a commit
	// point. Only the 2PC ops themselves reach them.
	if txn2pc.Hidden(req.Table) {
		return fmt.Errorf("table %q is internal", req.Table)
	}
	switch req.Op {
	case wire.OpGet, wire.OpDelete, wire.OpScan:
		return nil
	case wire.OpPut:
		if len(req.Row) != len(sc.Columns) {
			return fmt.Errorf("table %q wants %d columns, row has %d", req.Table, len(sc.Columns), len(req.Row))
		}
		for i, v := range req.Row {
			if err := checkValue(sc, i, v); err != nil {
				return err
			}
		}
		return nil
	case wire.OpRmw:
		if len(req.Cols) == 0 {
			return errors.New("rmw with no columns")
		}
		for i, cm := range req.Cols {
			if cm.Col < 0 || cm.Col >= len(sc.Columns) {
				return fmt.Errorf("table %q has no column %d", req.Table, cm.Col)
			}
			// Two modifications of one column would both be computed from the
			// same pre-image, and an engine would supersede the column's old
			// var-slot twice.
			for _, prev := range req.Cols[:i] {
				if prev.Col == cm.Col {
					return fmt.Errorf("rmw names column %q twice", sc.Columns[cm.Col].Name)
				}
			}
			if cm.Add && sc.Columns[cm.Col].Type != core.TInt {
				return fmt.Errorf("rmw add on non-integer column %q", sc.Columns[cm.Col].Name)
			}
			if err := checkValue(sc, cm.Col, cm.Val); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op %v", req.Op)
}

// checkUserTable admits only known, non-hidden tables as 2PC targets: the
// lock and status tables shadowing them are derived names, never named
// directly on the wire.
func (s *Server) checkUserTable(table string) error {
	if _, ok := s.schemas[table]; !ok {
		return fmt.Errorf("unknown table %q", table)
	}
	if txn2pc.Hidden(table) {
		return fmt.Errorf("table %q is internal", table)
	}
	return nil
}

func checkValue(sc *core.Schema, col int, v core.Value) error {
	c := sc.Columns[col]
	switch c.Type {
	case core.TInt:
		if v.S != nil {
			return fmt.Errorf("column %q is an integer, got bytes", c.Name)
		}
	case core.TString:
		if v.S == nil {
			return fmt.Errorf("column %q is a string, got an integer", c.Name)
		}
		if c.Size > 0 && len(v.S) > c.Size {
			return fmt.Errorf("column %q: %d bytes exceeds size %d", c.Name, len(v.S), c.Size)
		}
	}
	return nil
}

// applyRead serves a read-only op from a pinned snapshot view. Rows are
// deep-copied for the same reason apply copies them: the response is
// encoded after the view closes.
func (s *Server) applyRead(v core.ReadView, req *wire.Request, resp *wire.Response) error {
	switch req.Op {
	case wire.OpGet:
		row, ok, err := v.Get(req.Table, req.Key)
		if err != nil {
			return err
		}
		resp.Found = ok
		resp.Row = copyRow(row)
		return nil
	case wire.OpScan:
		limit := int(req.Limit)
		if limit <= 0 || limit > s.cfg.ScanLimit {
			limit = s.cfg.ScanLimit
		}
		resp.Keys = []uint64{}
		resp.Rows = [][]core.Value{}
		return v.ScanRange(req.Table, req.From, req.To, func(pk uint64, row []core.Value) bool {
			resp.Keys = append(resp.Keys, pk)
			resp.Rows = append(resp.Rows, copyRow(row))
			return len(resp.Keys) < limit
		})
	}
	return fmt.Errorf("unknown read op %v", req.Op)
}

// apply runs one op against the engine, inside the executor's transaction.
// Result rows are deep-copied: the response is encoded after the executor
// has moved on, and engines hand out views into storage they may rewrite.
//
// Under 2PC the lock table is consulted first: a shadowing lock means some
// cross-shard transaction holds the key between prewrite and resolution, so
// both reads (partial-commit visibility) and writes (lost update against the
// buffered op) must bounce. The check and the op run in one transaction on
// the partition's one executor, so no prewrite can land between them.
func (s *Server) apply(eng core.Engine, req *wire.Request, resp *wire.Response) error {
	if s.twoPC {
		switch req.Op {
		case wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpRmw:
			if err := txn2pc.LockedAt(eng, req.Table, req.Key); err != nil {
				return err
			}
		case wire.OpScan:
			if err := txn2pc.LockedInRange(eng, req.Table, req.From, req.To); err != nil {
				return err
			}
		}
	}
	return applyOp(eng, req, resp, s.cfg.ScanLimit, true)
}

// ApplyOps lowers a shipped batch of sub-ops into one replay transaction for
// a backup: each op applied in order against the engine, results discarded.
// RMW adds are recomputed from the local pre-image — replicas apply batches
// in sequence order from identical state, so the recomputation lands on the
// primary's value — and since nobody sees the result, an RMW reads its Add
// columns only: a set-mode RMW replays as a bare Update. Reads inside a batch
// are harmless no-ops.
func ApplyOps(ops []wire.Request) func(core.Engine) error {
	return func(eng core.Engine) error {
		for i := range ops {
			var sink wire.Response
			if err := applyOp(eng, &ops[i], &sink, 1, false); err != nil {
				return err
			}
		}
		return nil
	}
}

// applyOp runs one op. preImage says whether anyone reads resp: a primary
// reports an RMW's pre-image, a replay does not fetch it (wire.ApplyRmw).
func applyOp(eng core.Engine, req *wire.Request, resp *wire.Response, scanLimit int, preImage bool) error {
	switch req.Op {
	case wire.OpGet:
		row, ok, err := eng.Get(req.Table, req.Key)
		if err != nil {
			return err
		}
		resp.Found = ok
		resp.Row = copyRow(row)
		return nil
	case wire.OpPut:
		return eng.Insert(req.Table, req.Key, req.Row)
	case wire.OpDelete:
		return eng.Delete(req.Table, req.Key)
	case wire.OpScan:
		limit := int(req.Limit)
		if limit <= 0 || limit > scanLimit {
			limit = scanLimit
		}
		resp.Keys = []uint64{}
		resp.Rows = [][]core.Value{}
		return eng.ScanRange(req.Table, req.From, req.To, func(pk uint64, row []core.Value) bool {
			resp.Keys = append(resp.Keys, pk)
			resp.Rows = append(resp.Rows, copyRow(row))
			return len(resp.Keys) < limit
		})
	case wire.OpRmw:
		pre, err := wire.ApplyRmw(eng, req, preImage)
		if preImage && err == nil {
			resp.Found, resp.Row = true, copyRow(pre)
		}
		return err
	// The 2PC ops appear here for the backup replay path: a shipped
	// prewrite/commit/abort/resolve replays against identical state, so the
	// same deterministic mutation lands. Lock checks are skipped — the
	// primary already ran them, and re-running them against the replica's
	// own lock table would be a no-op on identical state anyway.
	case wire.OpTxnPrewrite:
		return txn2pc.Prewrite(eng, req)
	case wire.OpTxnCommit:
		return txn2pc.Commit(eng, req.Txn, req.Phase == 1, req.Locks)
	case wire.OpTxnAbort:
		return txn2pc.Abort(eng, req.Txn, req.Phase == 1, req.Locks)
	case wire.OpTxnResolve:
		_, err := txn2pc.Resolve(eng, req.Txn, req.Table, req.Key, req.Phase == 1)
		return err
	}
	return fmt.Errorf("unknown op %v", req.Op)
}

func copyRow(row []core.Value) []core.Value {
	if row == nil {
		return nil
	}
	out := make([]core.Value, len(row))
	for i, v := range row {
		if v.S != nil {
			v.S = append(make([]byte, 0, len(v.S)), v.S...)
		}
		out[i] = v
	}
	return out
}

// statusOf maps the runtime's error taxonomy onto wire statuses. Corrupt is
// checked before the key sentinels because corrupt paths join errors and
// could embed one; the serve sentinels come before the generic retryable
// check because they carry the retryable tag too.
func statusOf(err error) (wire.Status, string) {
	// A wire.StatusError passes through verbatim: the cluster layer speaks
	// in statuses (NotPrimary, StaleEpoch) that have no core sentinel.
	var se *wire.StatusError
	if errors.As(err, &se) {
		return se.Status, se.Msg
	}
	switch {
	case err == nil:
		return wire.StatusOK, ""
	case errors.Is(err, serve.ErrOverloaded):
		return wire.StatusOverloaded, err.Error()
	case errors.Is(err, serve.ErrRecovering):
		return wire.StatusRecovering, err.Error()
	case errors.Is(err, serve.ErrDegraded):
		return wire.StatusDegraded, err.Error()
	case errors.Is(err, serve.ErrClosed):
		return wire.StatusClosed, err.Error()
	case core.IsCorrupt(err):
		return wire.StatusCorrupt, err.Error()
	case errors.Is(err, testbed.ErrAbort):
		return wire.StatusAborted, err.Error()
	case errors.Is(err, core.ErrKeyNotFound):
		return wire.StatusNotFound, err.Error()
	case errors.Is(err, core.ErrKeyExists):
		return wire.StatusKeyExists, err.Error()
	case errors.Is(err, core.ErrKeyRange):
		return wire.StatusBadRequest, err.Error()
	case errors.Is(err, txn2pc.ErrTxnAborted):
		return wire.StatusAborted, err.Error()
	case errors.Is(err, txn2pc.ErrTxnCommitted):
		return wire.StatusBadRequest, err.Error()
	case txn2pc.AsLocked(err) != nil:
		return wire.StatusLocked, err.Error()
	case core.IsRetryable(err), errors.Is(err, nvm.ErrInjectedCrash), isPanicErr(err):
		return wire.StatusRetryable, err.Error()
	default:
		return wire.StatusInternal, err.Error()
	}
}

func isPanicErr(err error) bool {
	var te *core.TxnError
	return errors.As(err, &te) && te.Panicked
}
