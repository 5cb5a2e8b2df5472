package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestTwoSlotNewestValidWins: each write goes to the slot not holding the
// newest record, and Load returns the newest valid one. A slot with any word
// its checksum covers corrupt — the sequence, a header word, the length, the
// payload — or cut short is not valid, and the other slot wins.
func TestTwoSlotNewestValidWins(t *testing.T) {
	open := func(env *Env) *TwoSlot {
		return &TwoSlot{FS: env.FS, Names: [2]string{"rec.0", "rec.1"}, Magic: 0x5457534c4f543031, Words: 1}
	}
	for _, c := range []struct {
		name string
		at   int64 // offset in the newer slot flipped (-1: cut the slot short)
	}{{"intact", -2}, {"sequence", 8}, {"header word", 16}, {"length", 24}, {"checksum", 32}, {"payload", 45}, {"torn", -1}} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv(EnvConfig{DeviceSize: 16 << 20})
			r := open(env)
			for i := uint64(1); i <= 2; i++ {
				if err := r.Write([]uint64{100 * i}, bytes.Repeat([]byte{byte(i)}, int(10*i))); err != nil {
					t.Fatal(err)
				}
			}
			if r.Seq != 2 {
				t.Fatalf("two writes leave sequence %d", r.Seq)
			}
			f, err := env.FS.OpenFile("rec.0") // sequence 2
			if err != nil {
				t.Fatal(err)
			}
			if size := f.Size(); size != r.Bytes(20) {
				t.Fatalf("slot of a 20-byte payload is %d bytes, want %d", size, r.Bytes(20))
			}
			switch {
			case c.at == -1:
				err = f.Truncate(f.Size() - 1)
			case c.at >= 0:
				b := []byte{0}
				if _, err = f.ReadAt(b, c.at); err == nil {
					b[0] ^= 0x10
					_, err = f.WriteAt(b, c.at)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			r = open(env)
			words, payload, ok := r.Load()
			want := uint64(1)
			if c.at == -2 {
				want = 2
			}
			if !ok || r.Seq != want || fmt.Sprint(words) != fmt.Sprint([]uint64{100 * want}) || !bytes.Equal(payload, bytes.Repeat([]byte{byte(want)}, int(10*want))) {
				t.Fatalf("Load = %v, %d bytes, %v at sequence %d; want record %d", words, len(payload), ok, r.Seq, want)
			}
			// The next write replaces the invalid (or older) slot, never the one loaded.
			if err := r.Write([]uint64{7}, nil); err != nil {
				t.Fatal(err)
			}
			if words, _, ok := open(env).Load(); !ok || words[0] != 7 {
				t.Fatalf("after a third write Load = %v, %v", words, ok)
			}
		})
	}
}
