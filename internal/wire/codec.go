package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nstore/internal/core"
)

// codec walks one message in one direction: encoding appends each field to
// b, decoding reads it back from b at off. Every message shape is written
// once, as a walk over its fields with the primitives below, and that walk
// is both its encoder and its decoder, so the two cannot disagree about a
// field's place, width or bound. The first error ends the walk: every
// primitive does nothing once err is set.
type codec struct {
	enc  bool
	b    []byte
	off  int
	err  error
	need int // encoding: the least payload length every count's bound allows
}

var (
	errTruncated = errors.New("wire: truncated message")
	errOverlong  = errors.New("wire: over-long uvarint")
)

// noMax bounds a uvarint that may take any value.
const noMax = ^uint64(0)

func (c *codec) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// done ends a walk. An encoding returns its bytes; a decoding must have
// consumed the payload, so trailing bytes are refused.
func (c *codec) done(what string) ([]byte, error) {
	if !c.enc && c.off != len(c.b) {
		c.failf("wire: %d trailing bytes after %s", len(c.b)-c.off, what)
	}
	if c.enc && len(c.b) < c.need {
		c.failf("wire: %s of %d bytes is too short for its counts", what, len(c.b))
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.b, nil
}

// uv moves a uvarint no greater than max. A signed field moves its
// two's-complement bits, so a negative value is out of range. Decoding
// refuses a uvarint longer than its shortest form (a last byte of 0 after
// the first), so every accepted message re-encodes to its own bytes.
func uv[T ~uint64 | ~uint32 | ~int | ~int32 | ~int64](c *codec, v *T, max uint64, what string) {
	if c.err != nil {
		return
	}
	if c.enc {
		if uint64(*v) > max {
			c.failf("wire: %s %d out of range", what, *v)
			return
		}
		c.b = binary.AppendUvarint(c.b, uint64(*v))
		return
	}
	x, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = errTruncated
		return
	}
	if n > 1 && c.b[c.off+n-1] == 0 {
		c.err = errOverlong
		return
	}
	if x > max {
		c.failf("wire: %s %d out of range", what, x)
		return
	}
	c.off += n
	*v = T(x)
}

// u64 moves a uvarint that may take any value.
func (c *codec) u64(v *uint64) { uv(c, v, noMax, "") }

// u8 moves one byte no greater than max.
func u8[T ~byte](c *codec, v *T, max T, what string) {
	if c.err != nil {
		return
	}
	if c.enc {
		if *v > max {
			c.failf("wire: %s %d out of range", what, *v)
			return
		}
		c.b = append(c.b, byte(*v))
		return
	}
	if c.off >= len(c.b) {
		c.err = errTruncated
		return
	}
	x := T(c.b[c.off])
	if x > max {
		c.failf("wire: %s %d out of range", what, x)
		return
	}
	c.off++
	*v = x
}

// bool moves a flag as one byte, 0 or 1.
func (c *codec) bool(v *bool, what string) {
	var x byte
	if *v {
		x = 1
	}
	u8(c, &x, 1, what)
	if !c.enc {
		*v = x == 1
	}
}

// count moves an element count. Decoding refuses a count the remaining
// bytes cannot hold, each element taking at least min of them, so a hostile
// count cannot make the decoder allocate beyond the payload's size. An
// element may take fewer (a scan pair with an empty row takes two of its
// three), so encoding checks the same bound once the payload is complete.
func (c *codec) count(n, min int) int {
	v := uint64(n)
	uv(c, &v, noMax, "count")
	if c.enc {
		c.need = max(c.need, len(c.b)+min*(n-1))
	} else if c.err == nil && v > uint64((len(c.b)-c.off)/min+1) {
		c.failf("wire: count %d exceeds remaining payload", v)
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// take reads the next n bytes of a decoding.
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b)-c.off {
		c.err = errTruncated
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// str moves a string: its length, then its bytes.
func (c *codec) str(s *string) {
	n := c.count(len(*s), 1)
	if c.enc {
		c.b = append(c.b, *s...)
	} else if b := c.take(n); c.err == nil {
		*s = string(b)
	}
}

// value moves a tagged value: the zero value (I 0, S nil) as its tag alone,
// another int as 8 little-endian bytes, a byte string as its length and
// bytes. Decoding refuses an int of 8 zero bytes, whose canonical form is the
// zero tag, and a decoded byte string is never nil, so encode(decode(x)) is a
// fixpoint.
func (c *codec) value(v *core.Value) {
	tag := tagInt
	switch {
	case v.S != nil:
		tag = tagBytes
	case v.I == 0:
		tag = tagZero
	}
	u8(c, &tag, tagZero, "value tag")
	switch tag {
	case tagZero:
		if !c.enc {
			*v = core.Value{}
		}
	case tagInt:
		if c.enc {
			c.b = binary.LittleEndian.AppendUint64(c.b, uint64(v.I))
		} else if b := c.take(8); c.err == nil {
			if v.I = int64(binary.LittleEndian.Uint64(b)); v.I == 0 {
				c.failf("wire: a zero int not in its one-byte form")
			}
		}
	default:
		n := c.count(len(v.S), 1)
		if c.enc {
			c.b = append(c.b, v.S...)
		} else if b := c.take(n); c.err == nil {
			v.S = append(make([]byte, 0, n), b...)
		}
	}
}

// list moves a slice: its count, each element taking at least min bytes,
// then each element. A decoded list is never nil.
func list[T any](c *codec, s *[]T, min int, each func(*T)) {
	n := c.count(len(*s), min)
	if !c.enc && c.err == nil {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		each(&(*s)[i])
	}
}

// row moves a row: its width, then each value, a zero one a byte.
func (c *codec) row(r *[]core.Value) { list(c, r, 1, c.value) }

// keyedRows moves (key, row) pairs held in two parallel slices.
func (c *codec) keyedRows(keys *[]uint64, rows *[][]core.Value) {
	if c.enc && len(*keys) != len(*rows) {
		c.failf("wire: %d keys vs %d rows", len(*keys), len(*rows))
	}
	n := c.count(len(*keys), 3)
	if !c.enc && c.err == nil {
		*keys, *rows = make([]uint64, n), make([][]core.Value, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.u64(&(*keys)[i])
		c.row(&(*rows)[i])
	}
}

// txnID moves a transaction id, which is never zero.
func (c *codec) txnID(v *uint64) {
	c.u64(v)
	if c.err == nil && *v == 0 {
		c.failf("wire: zero txn id")
	}
}

// subOp moves one op byte and that op's body; ok says which ops the
// carrier may hold. A sub-op has no partition of its own: it decodes with
// Part -1.
func (c *codec) subOp(sub *Request, carrier string, ok func(Op) bool) {
	u8(c, &sub.Op, 0xff, "op")
	if !c.enc {
		sub.Part = -1
	}
	if c.err == nil && !ok(sub.Op) {
		c.failf("wire: a %s cannot carry op %v", carrier, sub.Op)
	}
	c.body(sub)
}

// subOps moves a nonempty list of sub-ops.
func (c *codec) subOps(ops *[]Request, carrier string, ok func(Op) bool) {
	list(c, ops, 3, func(sub *Request) { c.subOp(sub, carrier, ok) })
	if c.err == nil && len(*ops) == 0 {
		c.failf("wire: empty %s", carrier)
	}
}

// EncodeRequest serializes a request payload (frame it with AppendFrame or
// WriteFrame). Layout:
//
//	id uvarint | part+1 uvarint | op byte | body
//	body(get/delete) := table key
//	body(put)        := table key row
//	body(scan)       := table from to limit
//	body(rmw)        := table key ncols { col mode value }*
//	body(txn)        := "" nops { op byte, body }*   (basic ops only)
//	body(repl-append):= epoch seq nops { op byte, body }*   (basic and 2PC ops)
//	body(repl-ack)   := epoch
//	body(shardmap)   := (empty)
//	body(repl-snap)  := epoch seq phase table nrows { key row }*
//	body(txn-prewrite) := pri-table txn pri-shard pri-key nops { op byte, body }*   (writes only)
//	body(txn-commit/abort) := table txn phase nlocks { table key }*
//	body(txn-resolve)  := pri-table txn phase pri-key
//	body(map-prepare)  := ballot          (carried in Epoch)
//	body(map-accept)   := ballot shardmap
//	body(map-learn)    := shardmap
//
// DESIGN.md §9 lists every bounded field and its bound.
func EncodeRequest(req *Request) ([]byte, error) {
	c := codec{enc: true}
	c.request(req)
	return c.done("request")
}

// DecodeRequest parses a request payload.
func DecodeRequest(payload []byte) (*Request, error) {
	c := codec{b: payload}
	req := &Request{}
	c.request(req)
	if _, err := c.done("request"); err != nil {
		return nil, err
	}
	return req, nil
}

func (c *codec) request(r *Request) {
	c.u64(&r.ID)
	part := int64(r.Part) + 1
	uv(c, &part, 1<<20, "partition+1")
	if !c.enc {
		r.Part = int32(part) - 1
	}
	u8(c, &r.Op, 0xff, "op")
	c.body(r)
}

// body moves the fields of r's op: every op's body is described here once,
// for a request, a sub-op and a lock record alike.
func (c *codec) body(r *Request) {
	switch r.Op {
	case OpGet, OpDelete:
		c.str(&r.Table)
		c.u64(&r.Key)
	case OpPut:
		c.str(&r.Table)
		c.u64(&r.Key)
		c.row(&r.Row)
	case OpScan:
		c.str(&r.Table)
		c.u64(&r.From)
		c.u64(&r.To)
		uv(c, &r.Limit, 1<<31, "scan limit")
	case OpRmw:
		c.str(&r.Table)
		c.u64(&r.Key)
		list(c, &r.Cols, 3, func(m *RmwCol) {
			uv(c, &m.Col, 1<<16, "rmw column")
			c.bool(&m.Add, "rmw mode")
			c.value(&m.Val)
		})
	case OpTxn:
		var reserved string // an empty table slot
		c.str(&reserved)
		c.subOps(&r.Ops, "transaction", Op.basic)
	case OpReplAppend:
		c.u64(&r.Epoch)
		c.u64(&r.Seq)
		c.subOps(&r.Ops, "repl batch", Op.replicable)
	case OpReplAck, OpMapPrepare:
		c.u64(&r.Epoch)
	case OpShardMap:
	case OpReplSnap:
		c.u64(&r.Epoch)
		c.u64(&r.Seq)
		u8(c, &r.Phase, SnapDone, "snapshot phase")
		c.str(&r.Table)
		c.keyedRows(&r.SnapKeys, &r.SnapRows)
	case OpTxnPrewrite:
		c.str(&r.Table)
		c.txnID(&r.Txn)
		uv(c, &r.PriShard, 1<<20, "prewrite primary shard")
		c.u64(&r.Key)
		c.subOps(&r.Ops, "prewrite", Op.buffered)
	case OpTxnCommit, OpTxnAbort:
		c.str(&r.Table)
		c.txnID(&r.Txn)
		u8(c, &r.Phase, 1, "txn phase")
		list(c, &r.Locks, 2, func(l *LockRef) {
			c.str(&l.Table)
			c.u64(&l.Key)
		})
	case OpTxnResolve:
		c.str(&r.Table)
		c.txnID(&r.Txn)
		u8(c, &r.Phase, 1, "resolve phase")
		c.u64(&r.Key)
	case OpMapAccept:
		c.u64(&r.Epoch)
		c.shardMap(&r.Map)
	case OpMapLearn:
		c.shardMap(&r.Map)
	default:
		c.failf("wire: unknown op %v", r.Op)
	}
}

// EncodeOp serializes one buffered write op (op byte + body) — the form a
// prewrite stores inside a lock record. Only the write subset is legal.
func EncodeOp(sub *Request) ([]byte, error) {
	c := codec{enc: true}
	c.subOp(sub, "lock record", Op.buffered)
	return c.done("lock record")
}

// DecodeOp parses a buffered write op from a lock record. Trailing bytes and
// truncations are errors — a torn lock record must never silently decode as
// a different (or shorter) write, which is what keeps a torn prewrite from
// ever surfacing as committed.
func DecodeOp(b []byte) (*Request, error) {
	c := codec{b: b}
	req := &Request{}
	c.subOp(req, "lock record", Op.buffered)
	if _, err := c.done("lock record"); err != nil {
		return nil, err
	}
	return req, nil
}

// RequestID extracts the request ID from a payload prefix, for error
// responses to frames whose full decode failed.
func RequestID(payload []byte) (uint64, bool) {
	v, n := binary.Uvarint(payload)
	return v, n > 0
}

// EncodeResponse serializes a response payload. Layout:
//
//	id uvarint | body
//	body       := status byte | msg | kind byte | kind's fields
//	none       := (empty)
//	row        := found byte [row]   (the row only when found is 1)
//	scan       := n { key row }*
//	subs       := n { body }*        (subs may not nest)
//	map        := shardmap
//	repl       := epoch seq
//	txn        := txn state pri-shard pri-table pri-key lock-table lock-key
//	cons       := ballot shardmap    (carried in Epoch)
//
// The encoder picks the kind from the fields that are set (Response.kind).
func EncodeResponse(resp *Response) ([]byte, error) {
	c := codec{enc: true}
	c.u64(&resp.ID)
	c.response(resp, false)
	return c.done("response")
}

// DecodeResponse parses a response payload.
func DecodeResponse(payload []byte) (*Response, error) {
	c := codec{b: payload}
	resp := &Response{}
	c.u64(&resp.ID)
	c.response(resp, false)
	if _, err := c.done("response"); err != nil {
		return nil, err
	}
	return resp, nil
}

// kind picks the body a response carries from the fields that are set.
func (r *Response) kind() byte {
	switch {
	case r.Subs != nil:
		return respSubs
	case r.Keys != nil || r.Rows != nil:
		return respScan
	case r.Found || r.Row != nil:
		return respRow
	case r.Txn != 0:
		return respTxn
	case r.Map != nil && r.Epoch != 0:
		return respCons
	case r.Map != nil:
		return respMap
	case r.Epoch != 0 || r.Seq != 0:
		return respRepl
	}
	return respNone
}

func (c *codec) response(r *Response, sub bool) {
	u8(c, &r.Status, maxStatus, "status")
	c.str(&r.Msg)
	var kind byte
	if c.enc {
		kind = r.kind()
	}
	u8(c, &kind, respCons, "response kind")
	switch kind {
	case respRow:
		c.bool(&r.Found, "found flag")
		if r.Found {
			c.row(&r.Row)
		}
	case respScan:
		c.keyedRows(&r.Keys, &r.Rows)
	case respSubs:
		if sub {
			c.failf("wire: nested sub-responses")
		}
		list(c, &r.Subs, 3, func(s *Response) { c.response(s, true) })
	case respMap:
		c.shardMap(&r.Map)
	case respRepl:
		c.u64(&r.Epoch)
		c.u64(&r.Seq)
	case respTxn:
		c.txnID(&r.Txn)
		u8(c, &r.TxnState, TxnAborted, "txn state")
		uv(c, &r.PriShard, 1<<20, "txn primary shard")
		c.str(&r.PriTable)
		c.u64(&r.PriKey)
		c.str(&r.LockTable)
		c.u64(&r.LockKey)
	case respCons:
		c.u64(&r.Epoch)
		if c.err == nil && r.Epoch == 0 {
			c.failf("wire: consensus response with zero ballot")
		}
		c.shardMap(&r.Map)
	}
}
