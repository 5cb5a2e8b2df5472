package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"nstore/internal/core"
)

// sampleRequests covers every op shape once.
func sampleRequests() []*Request {
	return []*Request{
		{ID: 1, Part: -1, Op: OpGet, Table: "t", Key: 42},
		{ID: 2, Part: 3, Op: OpPut, Table: "usertable", Key: 7,
			Row: []core.Value{{I: 7}, {S: []byte("hello")}, {S: []byte{}}, {I: -1}}},
		{ID: 3, Part: -1, Op: OpDelete, Table: "t", Key: 0},
		{ID: 4, Part: 0, Op: OpScan, Table: "t", From: 10, To: 99, Limit: 25},
		{ID: 5, Part: -1, Op: OpRmw, Table: "warehouse", Key: 1, Cols: []RmwCol{
			{Col: 7, Add: true, Val: core.Value{I: 123}},
			{Col: 2, Add: false, Val: core.Value{S: []byte("x")}},
		}},
		{ID: 6, Part: 1, Op: OpTxn, Ops: []Request{
			{Op: OpRmw, Part: -1, Table: "warehouse", Key: 1, Cols: []RmwCol{{Col: 7, Add: true, Val: core.Value{I: 5}}}},
			{Op: OpPut, Part: -1, Table: "history", Key: 99, Row: []core.Value{{I: 99}, {S: []byte("h")}}},
			{Op: OpGet, Part: -1, Table: "customer", Key: 3},
		}},
		{ID: 7, Part: 0, Op: OpReplAppend, Epoch: 3, Seq: 17, Ops: []Request{
			{Op: OpPut, Part: -1, Table: "t", Key: 11, Row: []core.Value{{I: 11}, {S: []byte("r")}}},
			{Op: OpDelete, Part: -1, Table: "t", Key: 12},
			{Op: OpRmw, Part: -1, Table: "t", Key: 13, Cols: []RmwCol{{Col: 1, Add: true, Val: core.Value{I: 2}}}},
		}},
		{ID: 8, Part: 2, Op: OpReplAck, Epoch: 5},
		{ID: 9, Part: -1, Op: OpShardMap},
		{ID: 10, Part: 1, Op: OpReplSnap, Epoch: 4, Seq: 0, Phase: SnapBegin},
		{ID: 11, Part: 1, Op: OpReplSnap, Epoch: 4, Phase: SnapChunk, Table: "t",
			SnapKeys: []uint64{5, 9},
			SnapRows: [][]core.Value{
				{{I: 5}, {S: []byte("a")}},
				{{I: 9}, {S: []byte{}}},
			}},
		{ID: 12, Part: 1, Op: OpReplSnap, Epoch: 4, Seq: 41, Phase: SnapDone},
		{ID: 13, Part: 2, Op: OpTxnPrewrite, Txn: 77, PriShard: 1, Table: "t", Key: 5,
			Ops: []Request{
				{Op: OpPut, Part: -1, Table: "t", Key: 11, Row: []core.Value{{I: 11}, {S: []byte("p")}}},
				{Op: OpDelete, Part: -1, Table: "t", Key: 12},
				{Op: OpRmw, Part: -1, Table: "t", Key: 13, Cols: []RmwCol{{Col: 1, Add: true, Val: core.Value{I: 4}}}},
			}},
		{ID: 14, Part: 1, Op: OpTxnCommit, Txn: 77, Phase: 1,
			Locks: []LockRef{{Table: "t", Key: 5}, {Table: "u", Key: 9}}},
		{ID: 15, Part: 0, Op: OpTxnAbort, Txn: 78, Phase: 0, Locks: []LockRef{{Table: "t", Key: 5}}},
		{ID: 16, Part: 1, Op: OpTxnResolve, Txn: 77, Phase: 1, Table: "t", Key: 5},
		{ID: 17, Part: 0, Op: OpReplAppend, Epoch: 3, Seq: 18, Ops: []Request{
			{Op: OpTxnPrewrite, Part: -1, Txn: 79, PriShard: 0, Table: "t", Key: 2,
				Ops: []Request{{Op: OpPut, Part: -1, Table: "t", Key: 2, Row: []core.Value{{I: 2}, {S: []byte("q")}}}}},
		}},
		{ID: 18, Part: -1, Op: OpMapPrepare, Epoch: 9},
		{ID: 19, Part: -1, Op: OpMapAccept, Epoch: 9, Map: &ShardMap{Version: 7, Shards: []ShardRoute{
			{Epoch: 3, Primary: "127.0.0.1:7001", Backup: "127.0.0.1:7002"},
			{Epoch: 1, Primary: "127.0.0.1:7002", Backup: "", Reseeding: true},
		}}},
		{ID: 20, Part: -1, Op: OpMapLearn, Map: &ShardMap{Version: 8, Shards: []ShardRoute{
			{Epoch: 4, Primary: "127.0.0.1:7002", Backup: "127.0.0.1:7003"},
		}}},
		// One column named twice: the codec carries it, netserve.validate
		// answers StatusBadRequest.
		{ID: 21, Part: -1, Op: OpRmw, Table: "t", Key: 1, Cols: []RmwCol{
			{Col: 1, Add: true, Val: core.Value{I: 5}},
			{Col: 1, Add: true, Val: core.Value{I: 3}},
		}},
	}
}

func sampleResponses() []*Response {
	return []*Response{
		{ID: 1, Status: StatusOK},
		{ID: 2, Status: StatusOK, Found: true, Row: []core.Value{{I: 9}, {S: []byte("v")}}},
		{ID: 3, Status: StatusOK, Found: false, Row: nil},
		{ID: 4, Status: StatusNotFound, Msg: "key 42 not found"},
		{ID: 5, Status: StatusOK, Keys: []uint64{1, 2}, Rows: [][]core.Value{
			{{I: 1}, {S: []byte("a")}},
			{{I: 2}, {S: []byte{}}},
		}},
		{ID: 6, Status: StatusOK, Keys: []uint64{}, Rows: [][]core.Value{}},
		{ID: 7, Status: StatusOK, Subs: []Response{
			{Status: StatusOK, Found: true, Row: []core.Value{{I: 1}}},
			{Status: StatusOK},
			{Status: StatusNotFound, Msg: "gone"},
		}},
		{ID: 8, Status: StatusOverloaded, Msg: "queue full"},
		{ID: 9, Status: StatusOK, Epoch: 3, Seq: 17},
		{ID: 10, Status: StatusStaleEpoch, Msg: "epoch 2 < 5", Epoch: 5, Seq: 40},
		{ID: 11, Status: StatusNotPrimary, Msg: "shard 1 is backup here"},
		{ID: 12, Status: StatusOK, Map: &ShardMap{Version: 7, Shards: []ShardRoute{
			{Epoch: 3, Primary: "127.0.0.1:7001", Backup: "127.0.0.1:7002"},
			{Epoch: 1, Primary: "127.0.0.1:7002", Backup: "", Reseeding: true},
		}}},
		{ID: 13, Status: StatusOK, Map: &ShardMap{Version: 0, Shards: []ShardRoute{}}},
		{ID: 14, Status: StatusLocked, Msg: "key 5 locked by txn 77",
			Txn: 77, TxnState: TxnPending, PriShard: 1, PriTable: "t", PriKey: 5,
			LockTable: "u", LockKey: 12},
		{ID: 15, Status: StatusOK, Txn: 77, TxnState: TxnCommitted, PriShard: 0, PriTable: "t", PriKey: 5},
		{ID: 16, Status: StatusOK, Txn: 78, TxnState: TxnAborted, PriShard: 2, PriTable: "u", PriKey: 9},
		{ID: 17, Status: StatusOK, Epoch: 9, Map: &ShardMap{Version: 7, Shards: []ShardRoute{
			{Epoch: 3, Primary: "127.0.0.1:7001", Backup: "127.0.0.1:7002"},
		}}},
		{ID: 18, Status: StatusStaleEpoch, Msg: "promised ballot 12", Epoch: 12},
		// An RMW pre-image: schema width, only the named column filled.
		{ID: 19, Status: StatusOK, Found: true, Row: []core.Value{{}, {}, {S: []byte("before")}, {}}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		payload, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		if id, ok := RequestID(payload); !ok || id != req.ID {
			t.Fatalf("RequestID = %d,%v want %d", id, ok, req.ID)
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if !reflect.DeepEqual(normReq(got), normReq(req)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, req)
		}
	}
}

// normReq normalizes encoding-invisible differences: sub-ops always decode
// with Part=-1, a decoded TBytes value is never nil, and empty snapshot
// chunks decode as empty non-nil slices.
func normReq(r *Request) *Request {
	c := *r
	c.Row = normRow(r.Row)
	if len(r.Ops) > 0 {
		c.Ops = make([]Request, len(r.Ops))
		for i := range r.Ops {
			s := r.Ops[i]
			s.Part = -1
			s.Row = normRow(s.Row)
			c.Ops[i] = s
		}
	}
	if len(r.SnapKeys) == 0 {
		c.SnapKeys, c.SnapRows = nil, nil
	} else {
		c.SnapRows = make([][]core.Value, len(r.SnapRows))
		for i := range r.SnapRows {
			c.SnapRows[i] = normRow(r.SnapRows[i])
		}
	}
	return &c
}

func normRow(row []core.Value) []core.Value {
	if row == nil {
		return nil
	}
	out := make([]core.Value, len(row))
	for i, v := range row {
		if v.S != nil && len(v.S) == 0 {
			v.S = []byte{}
		}
		out[i] = v
	}
	return out
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		payload, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		// Re-encode instead of DeepEqual: empty-vs-nil slices differ in
		// memory but not on the wire.
		again, err := EncodeResponse(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(payload, again) {
			t.Fatalf("re-encode mismatch for %+v", resp)
		}
		if got.ID != resp.ID || got.Status != resp.Status || got.Msg != resp.Msg {
			t.Fatalf("header mismatch: got %+v want %+v", got, resp)
		}
	}
}

func TestEncodeRequestRejects(t *testing.T) {
	cases := []*Request{
		{ID: 1, Part: -1, Op: OpTxn},                                          // empty txn
		{ID: 2, Part: -1, Op: OpTxn, Ops: []Request{{Op: OpTxn}}},             // nested txn
		{ID: 3, Part: -2, Op: OpGet, Table: "t"},                              // bad part
		{ID: 4, Part: -1, Op: Op(99), Table: "t"},                             // unknown op
		{ID: 5, Part: -1, Op: OpTxn, Ops: []Request{{Op: Op(0), Table: "t"}}}, // unknown sub-op
		{ID: 6, Part: 0, Op: OpReplAppend, Epoch: 1, Seq: 1},                  // empty repl batch
		{ID: 7, Part: 0, Op: OpReplAppend, Epoch: 1, Seq: 1,
			Ops: []Request{{Op: OpTxn}}}, // txn may not ride a repl batch
		{ID: 8, Part: 0, Op: OpReplSnap, Phase: 9}, // unknown phase
		{ID: 9, Part: 0, Op: OpReplSnap, Phase: SnapChunk, Table: "t",
			SnapKeys: []uint64{1}}, // keys without rows
		// Values the decoder refuses, so the encoder must too.
		{ID: 10, Part: -1, Op: OpScan, Table: "t", Limit: 1<<31 + 1},
		{ID: 11, Part: -1, Op: OpRmw, Table: "t", Key: 1, Cols: []RmwCol{{Col: -1}}},
		{ID: 12, Part: -1, Op: OpRmw, Table: "t", Key: 1, Cols: []RmwCol{{Col: 70_000}}},
		{ID: 13, Part: 1 << 21, Op: OpGet, Table: "t"},
		{ID: 14, Part: 0, Op: OpTxnPrewrite, Txn: 1, PriShard: 1 << 21, Table: "t",
			Ops: []Request{{Op: OpDelete, Table: "t", Key: 1}}},
		{ID: 15, Part: -1, Op: OpMapLearn, Map: &ShardMap{Shards: make([]ShardRoute, maxShards+1)}},
		{ID: 16, Part: 0, Op: OpReplSnap, Phase: SnapChunk, Table: "t",
			SnapKeys: []uint64{1, 2, 3, 4}, SnapRows: make([][]core.Value, 4)}, // pairs of 2 bytes
	}
	for _, req := range cases {
		if _, err := EncodeRequest(req); err == nil {
			t.Errorf("encode %+v: want error", req)
		}
	}
}

func TestEncodeResponseRejects(t *testing.T) {
	cases := []*Response{
		{ID: 1, Subs: []Response{{Subs: []Response{}}}},                    // nested subs
		{ID: 2, Keys: []uint64{1}},                                         // keys without rows
		{ID: 3, Txn: 1, TxnState: TxnAborted + 1},                          // unknown txn state
		{ID: 4, Txn: 1, PriShard: -1},                                      // negative shard
		{ID: 5, Status: 200},                                               // unknown status
		{ID: 6, Txn: 1, PriShard: 1 << 21},                                 // shard out of range
		{ID: 7, Map: &ShardMap{Shards: make([]ShardRoute, maxShards+1)}},   // too many routes
		{ID: 8, Keys: []uint64{1, 2, 3, 4}, Rows: make([][]core.Value, 4)}, // pairs of 2 bytes
	}
	for _, resp := range cases {
		if _, err := EncodeResponse(resp); err == nil {
			t.Errorf("encode %+v: want error", resp)
		}
	}
}

// TestShardOf pins the hash placement: deterministic, in-range, not the
// identity key%n the testbed uses internally, and reasonably balanced.
func TestShardOf(t *testing.T) {
	const shards = 4
	counts := make([]int, shards)
	identity := 0
	for key := uint64(0); key < 4096; key++ {
		s := ShardOf(key, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", key, shards, s)
		}
		if s != ShardOf(key, shards) {
			t.Fatalf("ShardOf(%d) not deterministic", key)
		}
		if s == int(key%shards) {
			identity++
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 4096/shards/2 || n > 4096/shards*2 {
			t.Fatalf("shard %d holds %d of 4096 keys: unbalanced", s, n)
		}
	}
	if identity > 4096/shards*2 {
		t.Fatalf("ShardOf agrees with key%%n on %d/4096 keys: looks like identity routing", identity)
	}
	if ShardOf(123, 0) != 0 {
		t.Fatal("ShardOf with 0 shards must clamp to 0")
	}
	m := &ShardMap{Shards: make([]ShardRoute, shards)}
	if m.ShardOf(99) != ShardOf(99, shards) {
		t.Fatal("map ShardOf disagrees with package ShardOf")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xab}, 100_000)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if _, err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, p := range payloads {
		got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(p))
		}
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// TestFrameTruncated cuts a frame short at every possible byte boundary: the
// reader must report io.ErrUnexpectedEOF (or io.EOF only for the empty
// stream), never succeed and never hang.
func TestFrameTruncated(t *testing.T) {
	frame := AppendFrame(nil, []byte("the quick brown fox"))
	for cut := 0; cut < len(frame); cut++ {
		r := bufio.NewReader(bytes.NewReader(frame[:cut]))
		_, err := ReadFrame(r, 0)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: want unexpected EOF, got %v", cut, err)
		}
	}
}

// TestFrameFlippedCRC flips each bit of the payload and of the stored CRC in
// turn; every single-bit corruption must surface as ErrCRC.
func TestFrameFlippedCRC(t *testing.T) {
	payload := []byte("torn-tail discipline")
	frame := AppendFrame(nil, payload)
	start := len(frame) - len(payload) - 4 // first payload byte
	for i := start; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(frame)
			mut[i] ^= 1 << bit
			_, err := ReadFrame(bufio.NewReader(bytes.NewReader(mut)), 0)
			if !errors.Is(err, ErrCRC) {
				t.Fatalf("byte %d bit %d: want ErrCRC, got %v", i, bit, err)
			}
		}
	}
}

// TestFrameOversized checks that a length prefix above the limit errors out
// without the reader buffering the claimed bytes.
func TestFrameOversized(t *testing.T) {
	frame := AppendFrame(nil, bytes.Repeat([]byte{1}, 100))
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), 10); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
	// A hostile prefix claiming 2^40 bytes with no data behind it must fail
	// fast on the size check, not attempt a giant allocation.
	hostile := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hostile)), 0); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("hostile prefix: want ErrFrameTooBig, got %v", err)
	}
}

// TestInterleavedPipelinedResponses writes responses to IDs out of request
// order on one stream and checks a reader can reassemble them by ID.
func TestInterleavedPipelinedResponses(t *testing.T) {
	order := []uint64{3, 1, 4, 2, 5}
	var buf bytes.Buffer
	for _, id := range order {
		payload, err := EncodeResponse(&Response{ID: id, Status: StatusOK, Found: true, Row: []core.Value{{I: int64(id) * 10}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	got := map[uint64]int64{}
	for range order {
		payload, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		got[resp.ID] = resp.Row[0].I
	}
	for _, id := range order {
		if got[id] != int64(id)*10 {
			t.Fatalf("response %d: got row %d", id, got[id])
		}
	}
}

func TestStatusErrorTaxonomy(t *testing.T) {
	cases := []struct {
		status Status
		target error
		want   bool
	}{
		{StatusOverloaded, core.ErrRetryable, true},
		{StatusRecovering, core.ErrRetryable, true},
		{StatusRetryable, core.ErrRetryable, true},
		{StatusCorrupt, core.ErrRetryable, false},
		{StatusCorrupt, core.ErrCorrupt, true},
		{StatusNotFound, core.ErrKeyNotFound, true},
		{StatusKeyExists, core.ErrKeyExists, true},
		{StatusBadRequest, core.ErrRetryable, false},
		{StatusOK, core.ErrRetryable, false},
	}
	for _, c := range cases {
		err := error(&StatusError{Status: c.status})
		if got := errors.Is(err, c.target); got != c.want {
			t.Errorf("errors.Is(%v, %v) = %v, want %v", c.status, c.target, got, c.want)
		}
	}
	for _, s := range Statuses {
		if s.Retryable() != (s == StatusOverloaded || s == StatusRecovering || s == StatusRetryable) {
			t.Errorf("%v.Retryable() inconsistent", s)
		}
	}
}

func TestDecodeRequestRejectsHostileCounts(t *testing.T) {
	// A txn claiming 2^30 sub-ops in a 10-byte payload must fail on the
	// count bound, not allocate.
	payload := []byte{1, 0, byte(OpTxn), 0, 0x80, 0x80, 0x80, 0x80, 0x04}
	if _, err := DecodeRequest(payload); err == nil {
		t.Fatal("want error for hostile sub-op count")
	}
	// A row takes at least a byte a value, so a PUT whose row claims 2^20
	// values in three bytes must fail on the count bound, not allocate.
	put, err := EncodeRequest(&Request{ID: 1, Part: -1, Op: OpPut, Table: "t", Key: 1, Row: make([]core.Value, 3)})
	if err != nil {
		t.Fatal(err)
	}
	hostile := append(append(put[:len(put)-4:len(put)-4], 0x80, 0x80, 0x40), put[len(put)-3:]...)
	if _, err := DecodeRequest(hostile); err == nil || !strings.Contains(err.Error(), "exceeds remaining payload") {
		t.Fatalf("want the count bound to refuse a 2^20-value row, got %v", err)
	}
	// Trailing garbage after a valid request must be rejected.
	ok, err := EncodeRequest(&Request{ID: 1, Part: -1, Op: OpGet, Table: "t", Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(append(ok, 0xff)); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

// TestZeroValueIsOneByte: core.Value{} crosses the wire as its tag alone and
// decodes to exactly itself, as the 8-byte zero int it replaced did; that
// longer form is refused, so every accepted row re-encodes to its own bytes.
// A row of zero values is a byte a column.
func TestZeroValueIsOneByte(t *testing.T) {
	e := codec{enc: true}
	e.value(&core.Value{})
	if e.err != nil || !bytes.Equal(e.b, []byte{tagZero}) {
		t.Fatalf("the zero value encodes to %x (%v), want %x", e.b, e.err, tagZero)
	}
	v := core.Value{I: 7, S: []byte("x")}
	d := codec{b: e.b}
	if d.value(&v); d.err != nil || v.I != 0 || v.S != nil {
		t.Fatalf("the zero tag decodes to %+v (%v), want the zero value", v, d.err)
	}
	d = codec{b: []byte{tagInt, 0, 0, 0, 0, 0, 0, 0, 0}}
	if d.value(&v); d.err == nil {
		t.Error("an 8-byte zero int was accepted")
	}
	e = codec{enc: true}
	e.row(&[]core.Value{{}, {}, {}})
	var row []core.Value
	d = codec{b: e.b}
	if d.row(&row); d.err != nil || len(e.b) != 4 || len(row) != 3 {
		t.Fatalf("a row of three zero values: %x, decoded to %v (%v)", e.b, row, d.err)
	}
}

// TestCodecAllocs pins the heap allocations of encoding and decoding the
// sample messages, summed over the samples: an encoder's allocations are its
// buffer's growth, a decoder's the message and the slices and strings it
// returns. Exact counts, not wall time.
func TestCodecAllocs(t *testing.T) {
	reqs, resps := sampleRequests(), sampleResponses()
	var reqPay, respPay [][]byte
	for _, r := range reqs {
		b, err := EncodeRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		reqPay = append(reqPay, b)
	}
	for _, r := range resps {
		b, err := EncodeResponse(r)
		if err != nil {
			t.Fatal(err)
		}
		respPay = append(respPay, b)
	}
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"encode requests", 49, func() {
			for _, r := range reqs {
				_, _ = EncodeRequest(r)
			}
		}},
		{"decode requests", 63, func() {
			for _, b := range reqPay {
				_, _ = DecodeRequest(b)
			}
		}},
		{"encode responses", 43, func() {
			for _, r := range resps {
				_, _ = EncodeResponse(r)
			}
		}},
		{"decode responses", 47, func() {
			for _, b := range respPay {
				_, _ = DecodeResponse(b)
			}
		}},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// TestOpAndStatusNames pins every op's and status's name: netserve registers
// the wire_op_<name> and wire_status_<name> metrics from them.
func TestOpAndStatusNames(t *testing.T) {
	var ops, statuses []string
	for _, o := range Ops {
		ops = append(ops, o.String())
	}
	for _, s := range Statuses {
		statuses = append(statuses, s.String())
	}
	wantOps := "get put delete scan rmw txn repl-append repl-ack shardmap repl-snap " +
		"txn-prewrite txn-commit txn-abort txn-resolve map-prepare map-accept map-learn"
	wantStatuses := "ok not-found key-exists aborted bad-request overloaded recovering retryable " +
		"corrupt degraded closed internal not-primary stale-epoch locked"
	if got := strings.Join(ops, " "); got != wantOps {
		t.Errorf("ops: %s", got)
	}
	if got := strings.Join(statuses, " "); got != wantStatuses {
		t.Errorf("statuses: %s", got)
	}
	if Op(0).String() != "op(0)" || Op(18).String() != "op(18)" || Status(15).String() != "status(15)" {
		t.Errorf("unknown values print as %v, %v, %v", Op(0), Op(18), Status(15))
	}
	for _, o := range Ops {
		if o.IsRepl() != (o == OpReplAppend || o == OpReplAck || o == OpShardMap || o == OpReplSnap ||
			o == OpMapPrepare || o == OpMapAccept || o == OpMapLearn) {
			t.Errorf("%v.IsRepl() = %v", o, o.IsRepl())
		}
		if o.Is2PC() != (o >= OpTxnPrewrite && o <= OpTxnResolve) {
			t.Errorf("%v.Is2PC() = %v", o, o.Is2PC())
		}
	}
}
