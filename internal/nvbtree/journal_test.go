package nvbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// journalTree builds a tree of n ascending keys (k -> 3k) on a fresh device.
func journalTree(t *testing.T, n int) (*nvm.Device, *Tree) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig(1 << 20))
	arena := pmalloc.Format(dev, 0, 1<<20)
	// Wide nodes: a parent takes several leaf splits before its own rewrite.
	tr, err := Create(arena, 512)
	if err != nil {
		t.Fatal(err)
	}
	arena.SetRoot(0, tr.Header())
	for k := uint64(1); k <= uint64(n); k++ {
		put(t, tr, k, 3*k)
	}
	return dev, tr
}

func (t *Tree) journalWords() (j [hdrBytes - hJOld]byte) {
	t.dev.Read(int64(t.hdr)+hJOld, j[:])
	return j
}

// TestTornJournalIsDiscarded: the rewrite journal is seven words that can span
// two cache lines, and a finished rewrite clears only the first, so a crash
// inside the next rewrite's journal write can pair its hJOld with the previous
// rewrite's parent, probe and new nodes. Recovery used to trust them — the
// stale probe is routed by the same parent, so the swap read as committed and
// the live old node was freed. The test finds a Put that rewrites a leaf under
// the parent the previous rewrite journaled, crashes it at the journal's fence,
// and recovers the medium with every subset of the journal's lines kept and
// every 8-byte tear of each: the checksum must turn each mixed journal into no
// journal, leaving every key readable, no reachable node free and the tree
// usable.
func TestTornJournalIsDiscarded(t *testing.T) {
	// Find the Put: the second in a row of rewrites that journal the same
	// non-root parent.
	target := 0
	_, tr := journalTree(t, 0)
	last := tr.journalWords()
	for k := uint64(1); k < 400 && target == 0; k++ {
		put(t, tr, k, 3*k)
		now := tr.journalWords()
		if now != last {
			parent := func(j [hdrBytes - hJOld]byte) uint64 { return binary.LittleEndian.Uint64(j[hJParent-hJOld:]) }
			if parent(now) != 0 && parent(now) == parent(last) {
				target = int(k)
			}
			last = now
		}
	}
	if target == 0 {
		t.Fatal("no two rewrites in a row under one parent")
	}

	walked := 0
	for fence := 0; walked == 0; fence++ {
		dev, tr := journalTree(t, target-1)
		hdr := int64(tr.hdr)
		dev.InjectFaults(nvm.FaultPlan{Mode: nvm.FaultLoseAll, CrashAfterFences: fence})
		crashed, err := nvm.Crashed(func() error { return tr.Put(uint64(target), 3*uint64(target)) })
		if err != nil {
			t.Fatal(err)
		}
		if !crashed {
			t.Fatalf("Put %d ended before its fence %d without a journal write in flight", target, fence)
		}
		// The journal write is in flight when the cache holds a journal and
		// the medium none — under the parent the medium's stale words name.
		var parent [8]byte
		dev.Read(hdr+hJParent, parent[:])
		if dev.ReadU64(hdr+hJOld) == 0 || !dev.DurableEqual(hdr+hJOld, make([]byte, 8)) || !dev.DurableEqual(hdr+hJParent, parent[:]) {
			continue
		}
		var journal, others []tornLine
		dev.Unfenced(func(line int64, buf []byte) {
			tl := tornLine{line: line, words: nvm.LineSize / 8}
			copy(tl.data[:], buf)
			if line+nvm.LineSize > hdr+hJOld && line < hdr+hdrBytes {
				journal = append(journal, tl)
			} else {
				others = append(others, tl)
			}
		})
		if len(journal) != 2 {
			t.Fatalf("the journal write dirtied %d lines, want the 2 it spans here", len(journal))
		}
		var medium bytes.Buffer
		if err := dev.WriteSnapshot(&medium); err != nil {
			t.Fatal(err)
		}
		// Every subset of the two lines, each kept line torn after 1..8 words.
		for w0 := 0; w0 <= 8; w0++ {
			for w1 := 0; w1 <= 8; w1++ {
				for _, rest := range [][]tornLine{nil, others} {
					kept := append([]tornLine(nil), rest...)
					for i, w := range []int{w0, w1} {
						if w > 0 {
							tl := journal[i]
							tl.words = w
							kept = append(kept, tl)
						}
					}
					if err := recoverTorn(medium.Bytes(), kept, target-1); err != nil {
						t.Fatalf("crash at fence %d of Put %d keeping %d and %d words of the journal's lines and %d of the %d other lines: %v",
							fence, target, w0, w1, len(rest), len(others), err)
					}
					walked++
				}
			}
		}
	}
}

type tornLine struct {
	line  int64
	words int // 8-byte words of the line that reached the medium
	data  [nvm.LineSize]byte
}

// recoverTorn opens the tree on a copy of the medium with the kept lines
// applied and checks keys 1..n, the reachable nodes and further Puts.
func recoverTorn(medium []byte, kept []tornLine, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panicked: %v", r)
		}
	}()
	dev, err := nvm.ReadSnapshot(bytes.NewReader(medium))
	if err != nil {
		return err
	}
	for _, tl := range kept {
		dev.Write(tl.line, tl.data[:8*tl.words])
		dev.Sync(tl.line, 8*tl.words)
	}
	arena, err := pmalloc.Open(dev, 0)
	if err != nil {
		return err
	}
	tr, err := Open(arena, arena.Root(0))
	if err != nil {
		return err
	}
	check := func(upto uint64) error {
		var free error
		tr.Nodes(func(p pmalloc.Ptr) {
			if arena.StateOf(p) == pmalloc.StateFree && free == nil {
				free = fmt.Errorf("the tree reaches node %d, a free chunk", p)
			}
		})
		if free != nil {
			return free
		}
		for k := uint64(1); k <= upto; k++ {
			if v, ok := tr.Get(k); !ok || v != 3*k {
				return fmt.Errorf("key %d = (%d, %v)", k, v, ok)
			}
		}
		return nil
	}
	if err := check(uint64(n)); err != nil {
		return err
	}
	for k := uint64(n) + 1; k <= uint64(n)+40; k++ {
		if err := tr.Put(k, 3*k); err != nil {
			return err
		}
	}
	return check(uint64(n) + 40)
}
