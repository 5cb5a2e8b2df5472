package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return &Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TString, Size: 64},
			{Name: "qty", Type: TInt},
			{Name: "data", Type: TString, Size: 256},
		},
	}
}

func sampleRow() []Value {
	return []Value{IntVal(42), StrVal("alice"), IntVal(-7), BytesVal([]byte{1, 2, 3, 0, 255})}
}

func TestEncodeDecodeRow(t *testing.T) {
	s := testSchema()
	row := sampleRow()
	got, err := DecodeRow(s, EncodeRow(s, row))
	if err != nil {
		t.Fatal(err)
	}
	if !RowsEqual(s, got, row) {
		t.Fatalf("round trip mismatch: %v vs %v", got, row)
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	s := testSchema()
	enc := EncodeRow(s, sampleRow())
	for _, n := range []int{0, 3, 8, 11, len(enc) - 1} {
		if _, err := DecodeRow(s, enc[:n]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestEmptyStringColumn(t *testing.T) {
	s := testSchema()
	row := []Value{IntVal(1), StrVal(""), IntVal(2), BytesVal(nil)}
	got, err := DecodeRow(s, EncodeRow(s, row))
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1].S) != 0 || len(got[3].S) != 0 {
		t.Errorf("empty strings not preserved: %v", got)
	}
}

func TestEncodeDecodeDelta(t *testing.T) {
	s := testSchema()
	upd := Update{Cols: []int{2, 1}, Vals: []Value{IntVal(100), StrVal("bob")}}
	got, err := DecodeDelta(s, EncodeDelta(s, upd))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 || got.Cols[0] != 2 || got.Vals[0].I != 100 || string(got.Vals[1].S) != "bob" {
		t.Fatalf("delta round trip: %+v", got)
	}
}

func TestApplyDelta(t *testing.T) {
	s := testSchema()
	row := sampleRow()
	ApplyDelta(row, Update{Cols: []int{0, 3}, Vals: []Value{IntVal(9), StrVal("new")}})
	if row[0].I != 9 || string(row[3].S) != "new" || string(row[1].S) != "alice" {
		t.Fatalf("ApplyDelta wrong: %v", row)
	}
	_ = s
}

func TestCloneRowIsDeep(t *testing.T) {
	row := sampleRow()
	cp := CloneRow(row)
	cp[1].S[0] = 'X'
	if row[1].S[0] == 'X' {
		t.Error("CloneRow shares string storage")
	}
}

func TestSecCompositeRoundTrip(t *testing.T) {
	c := SecComposite(0xdead, 0xbeef)
	if SecPK(c) != 0xbeef {
		t.Errorf("SecPK = %#x", SecPK(c))
	}
	lo, hi := SecRange(0xdead)
	if c < lo || c >= hi {
		t.Errorf("composite %#x outside range [%#x, %#x)", c, lo, hi)
	}
	if other := SecComposite(0xdeae, 0); other < hi {
		t.Error("ranges overlap across secondary keys")
	}
}

func TestTreeKeyPacking(t *testing.T) {
	pk := TreePrimary(3, 12345)
	if TreePK(pk) != 12345 {
		t.Errorf("TreePK = %d", TreePK(pk))
	}
	sk := TreeSecondary(3, 1, 777, 888)
	if TreeSecPK(sk) != 888 {
		t.Errorf("TreeSecPK = %d", TreeSecPK(sk))
	}
	lo, hi := TreeSecRange(3, 1, 777)
	if sk < lo || sk >= hi {
		t.Errorf("secondary key outside its range")
	}
	// Primary and secondary key spaces of the same table never collide.
	plo, phi := TreePrimaryRange(3, 0, ^uint64(0)>>8)
	if sk >= plo && sk < phi {
		t.Error("secondary key inside primary range")
	}
	// Different tables never collide.
	if TreePrimary(2, 12345) == pk {
		t.Error("table id not in key")
	}
}

func TestQuickRowCodec(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(9))
	fn := func(a int64, b []byte, c int64, d []byte) bool {
		if len(b) > 1000 {
			b = b[:1000]
		}
		if len(d) > 1000 {
			d = d[:1000]
		}
		row := []Value{IntVal(a), BytesVal(b), IntVal(c), BytesVal(d)}
		got, err := DecodeRow(s, EncodeRow(s, row))
		if err != nil {
			return false
		}
		return got[0].I == a && bytes.Equal(got[1].S, b) &&
			got[2].I == c && bytes.Equal(got[3].S, d)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexReads(t *testing.T) {
	declared := &Schema{Secondary: []IndexSpec{{Name: "a", Cols: []int{1, 2}}, {Name: "b", Cols: []int{5}}}}
	undeclared := &Schema{Secondary: []IndexSpec{{Name: "a", Cols: []int{1}}, {Name: "any"}}}
	for _, c := range []struct {
		s    *Schema
		cols []int
		want bool
	}{
		{declared, []int{3, 4}, false},
		{declared, []int{4, 5}, true},
		{declared, []int{2}, true},
		{declared, nil, false},
		{undeclared, []int{3}, true}, // an index that declares nothing reads anything
		{&Schema{}, []int{0, 1}, false},
	} {
		if got := c.s.IndexReads(c.cols); got != c.want {
			t.Errorf("IndexReads(%v) over %d indexes = %v, want %v", c.cols, len(c.s.Secondary), got, c.want)
		}
	}
}
