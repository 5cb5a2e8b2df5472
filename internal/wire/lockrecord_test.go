package wire

import (
	"encoding/hex"
	"testing"

	"nstore/internal/core"
)

// DecodeOp is the last line of defense between a torn lock record and a
// phantom committed write: every truncation of a valid encoding, every
// trailing byte, and every non-write opcode must fail to decode — never
// round-trip to a shorter or different op.

func lockOpSamples(t *testing.T) [][]byte {
	t.Helper()
	subs := []Request{
		{Op: OpPut, Table: "t", Key: 7,
			Row: []core.Value{core.IntVal(7), core.IntVal(49), core.StrVal("seven")}},
		{Op: OpDelete, Table: "orders", Key: 1 << 33},
		{Op: OpRmw, Table: "t", Key: 9,
			Cols: []RmwCol{{Col: 1, Add: true, Val: core.IntVal(-4)}, {Col: 2, Val: core.StrVal("x")}}},
	}
	out := make([][]byte, len(subs))
	for i := range subs {
		b, err := EncodeOp(&subs[i])
		if err != nil {
			t.Fatalf("encode %v: %v", subs[i].Op, err)
		}
		out[i] = b
	}
	return out
}

// TestLockRecordBytes pins lockOpSamples' records byte for byte. Lock
// records are stored as engine rows, so a codec change that moves one of
// their bytes moves every engine's device counters under a 2PC workload.
func TestLockRecordBytes(t *testing.T) {
	want := []string{
		"02017407030007000000000000000031000000000000000105736576656e",
		"03066f72646572738080808020",
		"0501740902010100fcffffffffffffff0200010178",
	}
	for i, b := range lockOpSamples(t) {
		if got := hex.EncodeToString(b); got != want[i] {
			t.Errorf("lock record %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

func TestDecodeOpRoundTrip(t *testing.T) {
	for _, b := range lockOpSamples(t) {
		op, err := DecodeOp(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		b2, err := EncodeOp(op)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatalf("round trip changed the record: %x -> %x", b, b2)
		}
	}
}

// TestDecodeOpRejectsEveryTruncation cuts each sample at every length short
// of the full record. Each prefix must error — a prefix that decodes would
// mean a torn prewrite can surface as a different (shorter) committed write.
func TestDecodeOpRejectsEveryTruncation(t *testing.T) {
	for si, b := range lockOpSamples(t) {
		for cut := 0; cut < len(b); cut++ {
			if op, err := DecodeOp(b[:cut]); err == nil {
				t.Fatalf("sample %d: truncation at %d/%d decoded as %v", si, cut, len(b), op.Op)
			}
		}
	}
}

func TestDecodeOpRejectsTrailingBytes(t *testing.T) {
	for si, b := range lockOpSamples(t) {
		ext := append(append([]byte(nil), b...), 0x00)
		if op, err := DecodeOp(ext); err == nil {
			t.Fatalf("sample %d: trailing byte accepted, decoded as %v", si, op.Op)
		}
	}
}

// TestDecodeOpRejectsNonWriteOps: flipping the op byte to anything outside
// the buffered-write subset is corruption, even if a body happens to parse.
func TestDecodeOpRejectsNonWriteOps(t *testing.T) {
	b := lockOpSamples(t)[0]
	for op := 0; op < 32; op++ {
		if Op(op) == OpPut || Op(op) == OpDelete || Op(op) == OpRmw {
			continue
		}
		mut := append([]byte(nil), b...)
		mut[0] = byte(op)
		if got, err := DecodeOp(mut); err == nil {
			t.Fatalf("op byte %d accepted in a lock record, decoded as %v", op, got.Op)
		}
	}
	// EncodeOp refuses non-writes symmetrically.
	if _, err := EncodeOp(&Request{Op: OpGet, Table: "t", Key: 1}); err == nil {
		t.Fatal("EncodeOp buffered a read")
	}
}
