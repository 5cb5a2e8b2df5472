package wire

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"

	"nstore/internal/core"
)

// FuzzWireFrame feeds arbitrary bytes through the frame reader and both
// message decoders (the exact path a hostile or chaos-mangled connection
// exercises). Invariants: no panics, no unbounded allocation, and anything
// the decoders accept re-encodes to a stable fixpoint — encode(decode(x))
// must itself decode to the same bytes, or two peers could disagree about
// what a payload means.
func FuzzWireFrame(f *testing.F) {
	// Seed corpus: every sample message, framed, plus raw edge cases.
	for _, req := range sampleRequests() {
		payload, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(AppendFrame(nil, payload))
	}
	for _, resp := range sampleResponses() {
		payload, err := EncodeResponse(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(AppendFrame(nil, payload))
	}
	f.Add([]byte{})
	f.Add(AppendFrame(nil, nil))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x40}) // hostile length prefix
	f.Add(AppendFrame(nil, []byte{1, 0, byte(OpTxn), 0, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame layer: must terminate, never panic, and cap allocation
		// at the configured max regardless of the length prefix.
		payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)), 1<<20)
		if err != nil {
			// Mangled framing is fine — the connection would drop. Also run
			// the decoders over the raw input so they see unframed garbage.
			payload = data
		}

		if req, err := DecodeRequest(payload); err == nil {
			enc, err := EncodeRequest(req)
			if err != nil {
				t.Fatalf("accepted request does not re-encode: %v (%+v)", err, req)
			}
			req2, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			enc2, err := EncodeRequest(req2)
			if err != nil {
				t.Fatalf("second re-encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("request encode not a fixpoint:\n first %x\nsecond %x", enc, enc2)
			}
		}

		if resp, err := DecodeResponse(payload); err == nil {
			enc, err := EncodeResponse(resp)
			if err != nil {
				t.Fatalf("accepted response does not re-encode: %v (%+v)", err, resp)
			}
			resp2, err := DecodeResponse(enc)
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			enc2, err := EncodeResponse(resp2)
			if err != nil {
				t.Fatalf("second re-encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("response encode not a fixpoint:\n first %x\nsecond %x", enc, enc2)
			}
		}

		// Framing itself must round-trip whatever the payload is.
		framed := AppendFrame(nil, payload)
		back, err := ReadFrame(bufio.NewReader(bytes.NewReader(framed)), 0)
		if err != nil {
			t.Fatalf("own frame does not read back: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatal("frame round trip changed payload")
		}
	})
}

// FuzzWireValue narrows in on the value codec, whose tag byte is the one
// place empty-vs-nil byte strings could diverge.
func FuzzWireValue(f *testing.F) {
	f.Add([]byte{tagInt, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{tagBytes, 0})
	f.Add([]byte{tagBytes, 3, 'a', 'b', 'c'})
	f.Add([]byte{tagZero})
	f.Add([]byte{tagInt, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v core.Value
		d := codec{b: data}
		if d.value(&v); d.err != nil {
			return
		}
		if v.S != nil && v.I != 0 {
			t.Fatal("decoded value sets both I and S")
		}
		e := codec{enc: true}
		e.value(&v)
		if e.err != nil {
			t.Fatalf("decoded value does not re-encode: %v", e.err)
		}
		var v2 core.Value
		d2 := codec{b: e.b}
		if d2.value(&v2); d2.err != nil {
			t.Fatalf("re-decode: %v", d2.err)
		}
		if v2.I != v.I || !bytes.Equal(v2.S, v.S) || (v2.S == nil) != (v.S == nil) {
			t.Fatalf("value round trip: %+v vs %+v", v, v2)
		}
	})
}

// FuzzEncodeDecode is FuzzWireFrame's converse: it builds a Request or a
// Response of any op or kind from the input, field values allowed out of
// range, and requires that whatever Encode* accepts, Decode* accepts and
// returns as the message that was encoded (normReq), re-encoding to the same
// bytes. An encoder that sends what its decoder refuses fails here.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 5, 7, 1, 2, 3, 4, 5, 6, 7, 8, 4, 2, 1, 0, 1, 1, 1, 1})
	f.Add([]byte{0, 6, 7, 3, 3, 1, 2, 4, 0, 1, 0})
	f.Add([]byte{1, 3, 9, 4, 0, 2, 2, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{b: data[min(1, len(data)):]}
		if len(data) > 0 && data[0]%2 == 1 {
			resp := src.response(false)
			enc, err := EncodeResponse(&resp)
			if err != nil {
				return
			}
			got, err := DecodeResponse(enc)
			if err != nil {
				t.Fatalf("encoded response refused: %v\n%+v", err, resp)
			}
			if !reflect.DeepEqual(*got, resp) {
				t.Fatalf("response round trip:\n got %+v\nwant %+v", *got, resp)
			}
			return
		}
		req := src.request(0)
		enc, err := EncodeRequest(&req)
		if err != nil {
			return
		}
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("encoded request refused: %v\n%+v", err, req)
		}
		if !reflect.DeepEqual(normReq(got), normReq(&req)) {
			t.Fatalf("request round trip:\n got %+v\nwant %+v", got, req)
		}
		if again, err := EncodeRequest(got); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("decoded request re-encodes as %x (%v), want %x", again, err, enc)
		}
	})
}

// fuzzSrc turns fuzz input into messages: each field takes the next bytes,
// and an exhausted input reads as zeros.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	x := s.b[0]
	s.b = s.b[1:]
	return x
}

// fuzzNums are the values either side of every bound the codec checks.
var fuzzNums = []int64{0, 1, 2, -1, -2, 1 << 16, 1<<16 + 1, 1<<20 - 1, 1 << 20, 1<<20 + 1,
	1 << 21, 1 << 31, 1<<31 + 1, 1 << 32, math.MaxInt32, math.MinInt32, math.MaxInt64}

// num is a boundary value, or eight raw bytes.
func (s *fuzzSrc) num() int64 {
	if sel := int(s.byte()); sel < len(fuzzNums) {
		return fuzzNums[sel]
	}
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(s.byte())
	}
	return int64(x)
}

func (s *fuzzSrc) u64() uint64 { return uint64(s.num()) }

func (s *fuzzSrc) n() int { return int(s.byte() % 5) }

func (s *fuzzSrc) str() string {
	b := make([]byte, s.n())
	for i := range b {
		b[i] = s.byte()
	}
	return string(b)
}

func (s *fuzzSrc) value() core.Value {
	if s.byte()%2 == 0 {
		return core.Value{I: s.num()}
	}
	return core.Value{S: []byte(s.str())}
}

// row is never nil: a decoded row is not.
func (s *fuzzSrc) row() []core.Value {
	row := make([]core.Value, s.n())
	for i := range row {
		row[i] = s.value()
	}
	return row
}

// keyedRows is a key list and a row list, one row short now and then.
func (s *fuzzSrc) keyedRows() ([]uint64, [][]core.Value) {
	keys, rows := make([]uint64, s.n()), [][]core.Value{}
	for i := range keys {
		keys[i] = s.u64()
		if s.byte() != 1 {
			rows = append(rows, s.row())
		}
	}
	return keys, rows
}

// shardMap is nil now and then, and a map of maxShards+1 routes.
func (s *fuzzSrc) shardMap() *ShardMap {
	switch sel := s.byte(); {
	case sel == 1:
		return nil
	case sel == 2:
		return &ShardMap{Shards: make([]ShardRoute, maxShards+1)}
	}
	m := &ShardMap{Version: s.u64(), Shards: make([]ShardRoute, s.n())}
	for i := range m.Shards {
		m.Shards[i] = ShardRoute{Epoch: s.u64(), Primary: s.str(), Backup: s.str(), Reseeding: s.byte()%2 == 1}
	}
	return m
}

// request sets only the fields its op carries; a sub-op (depth > 0) has no
// ID and Part -1, and sub-ops nest at most twice.
func (s *fuzzSrc) request(depth int) Request {
	r := Request{Op: Op(s.byte() % 20), Part: -1}
	if depth == 0 {
		r.ID, r.Part = s.u64(), int32(s.num())
	}
	subs := func() []Request {
		ops := make([]Request, 0)
		for n := s.n(); depth < 2 && len(ops) < n; {
			ops = append(ops, s.request(depth+1))
		}
		return ops
	}
	switch r.Op {
	case OpGet, OpDelete:
		r.Table, r.Key = s.str(), s.u64()
	case OpPut:
		r.Table, r.Key, r.Row = s.str(), s.u64(), s.row()
	case OpScan:
		r.Table, r.From, r.To, r.Limit = s.str(), s.u64(), s.u64(), uint32(s.num())
	case OpRmw:
		r.Table, r.Key, r.Cols = s.str(), s.u64(), make([]RmwCol, s.n())
		for i := range r.Cols {
			r.Cols[i] = RmwCol{Col: int(s.num()), Add: s.byte()%2 == 1, Val: s.value()}
		}
	case OpTxn:
		r.Ops = subs()
	case OpReplAppend:
		r.Epoch, r.Seq, r.Ops = s.u64(), s.u64(), subs()
	case OpReplAck, OpMapPrepare:
		r.Epoch = s.u64()
	case OpReplSnap:
		r.Epoch, r.Seq, r.Phase, r.Table = s.u64(), s.u64(), s.byte()%4, s.str()
		r.SnapKeys, r.SnapRows = s.keyedRows()
	case OpTxnPrewrite:
		r.Table, r.Txn, r.PriShard, r.Key, r.Ops = s.str(), s.u64(), int32(s.num()), s.u64(), subs()
	case OpTxnCommit, OpTxnAbort:
		r.Table, r.Txn, r.Phase, r.Locks = s.str(), s.u64(), s.byte()%3, make([]LockRef, s.n())
		for i := range r.Locks {
			r.Locks[i] = LockRef{Table: s.str(), Key: s.u64()}
		}
	case OpTxnResolve:
		r.Table, r.Txn, r.Phase, r.Key = s.str(), s.u64(), s.byte()%3, s.u64()
	case OpMapAccept:
		r.Epoch, r.Map = s.u64(), s.shardMap()
	case OpMapLearn:
		r.Map = s.shardMap()
	}
	return r
}

// response sets only the fields of one kind, each as a decoded response
// holds them; a sub-response has no ID.
func (s *fuzzSrc) response(sub bool) Response {
	r := Response{Status: Status(s.byte()), Msg: s.str()}
	if !sub {
		r.ID = s.u64()
	}
	switch s.byte() % 8 {
	case respRow:
		if r.Found = s.byte()%2 == 1; r.Found {
			r.Row = s.row()
		}
	case respScan:
		r.Keys, r.Rows = s.keyedRows()
	case respSubs:
		r.Subs = make([]Response, 0)
		for n := s.n(); !sub && len(r.Subs) < n; {
			r.Subs = append(r.Subs, s.response(true))
		}
	case respMap:
		r.Map = s.shardMap()
	case respRepl:
		r.Epoch, r.Seq = s.u64(), s.u64()
	case respTxn:
		r.Txn, r.TxnState, r.PriShard = max(s.u64(), 1), s.byte()%4, int32(s.num())
		r.PriTable, r.PriKey, r.LockTable, r.LockKey = s.str(), s.u64(), s.str(), s.u64()
	case respCons:
		r.Epoch, r.Map = s.u64(), s.shardMap()
	}
	return r
}
