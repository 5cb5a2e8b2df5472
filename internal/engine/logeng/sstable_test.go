package logeng

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/lsm"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
)

// runEntry is one entry of a run a test writes.
type runEntry struct {
	key uint64
	ent lsm.Entry
}

// writeRun writes ents, sorted by key, as the run name and opens it. It
// returns the run and its file image.
func writeRun(t testing.TB, env *core.Env, name string, ents []runEntry) (*sstable, []byte) {
	t.Helper()
	w, err := newSSTWriter(env.FS, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range ents {
		w.add(re.key, re.ent)
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	run, err := openSSTable(env.FS, env.Arena, name)
	if err != nil {
		t.Fatal(err)
	}
	return run, w.buf
}

// evenEntries returns n full entries with keys 2, 4, ..., 2n of the table
// simpleSchema defines, each with a payload of size bytes.
func evenEntries(n, size int) []runEntry {
	ents := make([]runEntry, n)
	for i := range ents {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j)
		}
		ents[i] = runEntry{core.TreePrimary(0, uint64(2*i+2)), lsm.Entry{Kind: lsm.KindFull, Payload: p}}
	}
	return ents
}

// entryOffsets returns each entry's offset in a run image of ents.
func entryOffsets(ents []runEntry) []int64 {
	offs := make([]int64, len(ents))
	var off int64
	for i, re := range ents {
		offs[i] = off
		off += entryHdr + int64(len(re.ent.Payload))
	}
	return offs
}

// TestBlockMissStreamsItsCopy: a cold block-cache miss loads exactly the
// block's lines of the file, streams the arena copy's lines — no load and no
// CLWB on the copy — and serves the caller from the bytes it read, not by
// reading the copy back.
func TestBlockMissStreamsItsCopy(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 16 << 20, Profile: nvm.ProfileLowNVM})
	run, img := writeRun(t, env, "sst-000001", evenEntries(300, 100))
	blocks := (len(img) + blockSize - 1) / blockSize
	blockLen := func(i int) int { return min(len(img)-i*blockSize, blockSize) }
	// Free chunks of each block's size, so a fill takes one whole and its
	// allocation costs nothing on the device.
	var held []pmalloc.Ptr
	for i := 0; i < blocks; i++ {
		p, err := env.Arena.Alloc(blockLen(i), pmalloc.TagOther)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	for _, p := range held {
		env.Arena.Free(p)
	}
	c := newBlockCache(env.Arena, 0)
	env.Dev.EvictAll()
	// The run's inode lines and its footer's last line: warm, as on any
	// read path (openSSTable has just read them).
	var last [1]byte
	if _, err := run.f.ReadAt(last[:], int64(len(img)-1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		n := blockLen(i)
		lines := uint64((n + nvm.LineSize - 1) / nvm.LineSize)
		if i == blocks-1 {
			lines-- // the warm last line
		}
		copyLines := uint64(pmalloc.ChunkSize(n) / nvm.LineSize)
		got := make([]byte, n)
		st0 := env.Dev.Stats()
		if err := c.read(run.f, run.name, int64(i)*blockSize, got); err != nil {
			t.Fatal(err)
		}
		d := env.Dev.Stats().Sub(st0)
		if d.Loads != lines || d.Stores != copyLines || d.Flushes != 0 || d.Fences != 0 {
			t.Errorf("block %d (%d bytes): a cold miss cost %d loads, %d stores, %d CLWBs, %d fences; want %d, %d, 0, 0",
				i, n, d.Loads, d.Stores, d.Flushes, d.Fences, lines, copyLines)
		}
		want := img[i*blockSize : i*blockSize+n]
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: the miss served other bytes than the file's", i)
		}
		kept := make([]byte, n)
		env.Dev.Read(int64(c.m[blockKey{run.name, int64(i)}].ptr), kept)
		if !bytes.Equal(kept, want) {
			t.Fatalf("block %d: the cached copy differs from the file", i)
		}
	}
}

// TestProbeLoadsOnlyOffsetsAndKeys: with every block cached and the CPU
// cache cold, a run lookup loads exactly the lines of the offsets and keys
// its binary search probes — no payload line — and, for a key it holds, the
// lines of that entry's header and payload.
func TestProbeLoadsOnlyOffsetsAndKeys(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 16 << 20, Profile: nvm.ProfileLowNVM})
	ents := evenEntries(200, 200)
	offs := entryOffsets(ents)
	run, img := writeRun(t, env, "sst-000001", ents)
	c := newBlockCache(env.Arena, 0)
	if err := c.read(run.f, run.name, 0, make([]byte, len(img))); err != nil {
		t.Fatal(err)
	}
	// mark adds the arena lines of the cached copy of file bytes [off, off+n).
	mark := func(lines map[int64]bool, off int64, n int) {
		for b := off; b < off+int64(n); b++ {
			lines[(int64(c.m[blockKey{run.name, b / blockSize}].ptr)+b%blockSize)/nvm.LineSize] = true
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		key := core.TreePrimary(0, uint64(rng.Intn(2*len(ents)+3)))
		want := map[int64]bool{}
		found := -1
		for lo, hi := 0, len(ents); lo < hi; {
			mid := (lo + hi) / 2
			mark(want, run.offsetsPos+int64(mid)*8, 8)
			mark(want, offs[mid], 8)
			if k := ents[mid].key; k == key {
				found = mid
				mark(want, offs[mid]+8, entryHdr-8+len(ents[mid].ent.Payload))
				break
			} else if k < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		env.Dev.EvictAll()
		run.f.Size() // the run's inode: warm, as on any lookup path
		before := env.Dev.Stats().Loads
		e, ok, err := run.find(c, key)
		loads := env.Dev.Stats().Loads - before
		if err != nil || ok != (found >= 0) || ok && !bytes.Equal(e.Payload, ents[found].ent.Payload) {
			t.Fatalf("find(%d) = %v, %v; want found %v", core.TreePK(key), ok, err, found >= 0)
		}
		if loads != uint64(len(want)) {
			t.Errorf("find(%d) (held %v) loaded %d lines, want the %d of the offsets and keys it probes and the entry it returns",
				core.TreePK(key), ok, loads, len(want))
		}
	}
}

// TestRangeScanLoadsOnlyItsEntries: with every block cached and the CPU
// cache cold, a short range scan of a run (lowerBound, then a bounded
// scanner) loads exactly the lines of the offsets and keys lowerBound probes,
// of the entries in the range, and of the header of the entry that ends it —
// nothing past it in the block.
func TestRangeScanLoadsOnlyItsEntries(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 16 << 20, Profile: nvm.ProfileLowNVM})
	ents := evenEntries(200, 100)
	offs := entryOffsets(ents)
	run, img := writeRun(t, env, "sst-000001", ents)
	c := newBlockCache(env.Arena, 0)
	if err := c.read(run.f, run.name, 0, make([]byte, len(img))); err != nil {
		t.Fatal(err)
	}
	mark := func(lines map[int64]bool, off int64, n int) {
		for b := off; b < off+int64(n); b++ {
			lines[(int64(c.m[blockKey{run.name, b / blockSize}].ptr)+b%blockSize)/nvm.LineSize] = true
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		from := core.TreePrimary(0, uint64(rng.Intn(2*len(ents)+3)))
		to := from + uint64(rng.Intn(12))
		want := map[int64]bool{}
		lo, hi := 0, len(ents)
		for lo < hi {
			mid := (lo + hi) / 2
			mark(want, run.offsetsPos+int64(mid)*8, 8)
			mark(want, offs[mid], 8)
			if ents[mid].key < from {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		var inRange []uint64
		i := lo
		for ; i < len(ents) && ents[i].key < to; i++ {
			mark(want, offs[i], entryHdr+len(ents[i].ent.Payload))
			inRange = append(inRange, ents[i].key)
		}
		if i < len(ents) {
			mark(want, offs[i], entryHdr)
		}
		env.Dev.EvictAll()
		run.f.Size() // the run's inode: warm, as on any scan path
		before := env.Dev.Stats().Loads
		off, err := run.lowerBound(c, from)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for s := run.scanRange(c, off, to); s.next(); {
			got = append(got, s.key)
		}
		loads := env.Dev.Stats().Loads - before
		if !slices.Equal(got, inRange) {
			t.Fatalf("scan [%d, %d) = %v, want %v", core.TreePK(from), core.TreePK(to), got, inRange)
		}
		if loads != uint64(len(want)) {
			t.Errorf("scan [%d, %d) of %d entries loaded %d lines, want the %d of its probes, its entries and the header that ends it",
				core.TreePK(from), core.TreePK(to), len(got), loads, len(want))
		}
	}
}

// TestCompactionLoadsInputsOnce: a merge of two cold runs loads each line of
// their entry regions once — the file's, by the block-cache miss that reads
// it — and no line of the offsets arrays or of the cached copies; beyond
// them it loads only the output's filter and footer lines, which opening the
// output reads back. Entries are 64 bytes and runs whole blocks of them, so
// a miss reads entries alone; a first merge of twin runs warms the metadata,
// the output's extent and the arena's free chunks.
func TestCompactionLoadsInputsOnce(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 32 << 20, Profile: nvm.ProfileLowNVM})
	e, err := New(env, simpleSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := func(n, step int, tag byte) []runEntry {
		ents := make([]runEntry, n)
		for i := range ents {
			p := bytes.Repeat([]byte{tag, byte(i)}, 26)[:64-entryHdr]
			ents[i] = runEntry{core.TreePrimary(0, uint64(step*i)), lsm.Entry{Kind: lsm.KindFull, Payload: p}}
		}
		return ents
	}
	const perBlock = blockSize / 64
	newer, older := entries(2*perBlock, 2, 'a'), entries(3*perBlock, 3, 'b')
	a, _ := writeRun(t, env, "sst-900001", newer)
	b, _ := writeRun(t, env, "sst-900002", older)
	a2, _ := writeRun(t, env, "sst-900003", newer)
	b2, _ := writeRun(t, env, "sst-900004", older)

	warm, err := e.mergeRuns(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []*sstable{warm, a, b} {
		run.release(env.Arena, e.cache)
	}
	if err := env.FS.Remove(warm.name); err != nil {
		t.Fatal(err)
	}

	st0 := env.Dev.Stats()
	out, err := e.mergeRuns(a2, b2, false)
	if err != nil {
		t.Fatal(err)
	}
	loads := env.Dev.Stats().Sub(st0).Loads

	// The merge's result: newer wins on a shared key.
	byKey := map[uint64]lsm.Entry{}
	for _, re := range older {
		byKey[re.key] = re.ent
	}
	for _, re := range newer {
		byKey[re.key] = re.ent
	}
	var keys []uint64
	for k := range byKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s := out.scan(e.cache)
	for _, k := range keys {
		if !s.next() || s.key != k || !bytes.Equal(s.ent.Payload, byKey[k].Payload) {
			t.Fatalf("merged run lost or changed key %d (scan at %d: %v)", core.TreePK(k), core.TreePK(s.key), s.err)
		}
	}
	if s.next() || s.err != nil {
		t.Fatalf("merged run holds more than %d entries (%v)", len(keys), s.err)
	}

	inputs := uint64((a2.offsetsPos + b2.offsetsPos) / nvm.LineSize)
	bloomPos := out.offsetsPos + 8*out.count
	tail := (out.size - 1) / nvm.LineSize
	outLines := uint64(tail - bloomPos/nvm.LineSize + 1)
	if out.size%nvm.LineSize != 0 {
		outLines-- // the partial last line, written through the cache
	}
	if want := inputs + outLines; loads != want {
		t.Errorf("merging %d + %d input lines loaded %d lines, want %d: each input line once and the output's %d filter and footer lines",
			a2.offsetsPos/nvm.LineSize, b2.offsetsPos/nvm.LineSize, loads, want, outLines)
	}
}

// checkRun reads run back through get, lowerBound and the scanner and
// compares it with ents, the entries it was written from.
func checkRun(t *testing.T, env *core.Env, run *sstable, ents []runEntry) {
	t.Helper()
	c := newBlockCache(env.Arena, 4)
	defer run.release(env.Arena, c)
	offs := entryOffsets(ents)
	for i, re := range ents {
		e, ok, err := run.get(c, env.Dev, re.key)
		if err != nil || !ok || e.Kind != re.ent.Kind || !bytes.Equal(e.Payload, re.ent.Payload) {
			t.Fatalf("get(%d) = %v %v %v; want entry %d", re.key, e, ok, err, i)
		}
		if _, ok, err := run.find(c, re.key+1); err != nil || ok != (i+1 < len(ents) && ents[i+1].key == re.key+1) {
			t.Fatalf("find(%d) = %v, %v", re.key+1, ok, err)
		}
		off, err := run.lowerBound(c, re.key)
		if err != nil || off != offs[i] {
			t.Fatalf("lowerBound(%d) = %d, %v; want %d", re.key, off, err, offs[i])
		}
		s := run.scanRange(c, off, re.key+1)
		if !s.next() || s.key != re.key || !bytes.Equal(s.ent.Payload, re.ent.Payload) {
			t.Fatalf("a scan from entry %d starts at key %d (%v)", i, s.key, s.err)
		}
		if s.next() || s.err != nil {
			t.Fatalf("a scan of entry %d alone ran on to key %d (%v)", i, s.key, s.err)
		}
	}
	if off, err := run.lowerBound(c, ^uint64(0)); err != nil || off != run.offsetsPos {
		t.Fatalf("lowerBound past the last key = %d, %v; want the region's end %d", off, err, run.offsetsPos)
	}
	s := run.scan(c)
	for i, re := range ents {
		if !s.next() || s.key != re.key || s.ent.Kind != re.ent.Kind || !bytes.Equal(s.ent.Payload, re.ent.Payload) {
			t.Fatalf("scan entry %d: key %d (%v), want %d", i, s.key, s.err, re.key)
		}
	}
	if s.next() || s.err != nil {
		t.Fatalf("scan ran past %d entries (%v)", len(ents), s.err)
	}
}

// readAll reads run back every way a caller can and reports the first
// error: a corrupt image must end in one, not a panic.
func readAll(env *core.Env, run *sstable, keys []uint64) error {
	c := newBlockCache(env.Arena, 4)
	defer run.release(env.Arena, c)
	var errs []error
	for _, k := range keys {
		_, _, err := run.get(c, env.Dev, k)
		_, _, err2 := run.find(c, k)
		off, err3 := run.lowerBound(c, k)
		errs = append(errs, err, err2, err3)
		if err3 == nil {
			s := run.scanRange(c, off, k+8)
			for s.next() {
			}
			errs = append(errs, s.err)
		}
	}
	s := run.scan(c)
	for s.next() {
	}
	return errors.Join(append(errs, s.err)...)
}

// genRun draws a valid run from rng: up to 150 entries of every kind, with
// payloads up to 300 bytes.
func genRun(rng *rand.Rand) []runEntry {
	ents := make([]runEntry, rng.Intn(150))
	key := uint64(rng.Intn(5))
	for i := range ents {
		key += 1 + uint64(rng.Intn(4))
		p := make([]byte, rng.Intn(300))
		rng.Read(p)
		ents[i] = runEntry{key, lsm.Entry{Kind: lsm.KindFull + uint8(rng.Intn(4)), Payload: p}}
	}
	return ents
}

// openImage writes img as a run file and opens it.
func openImage(t testing.TB, env *core.Env, name string, img []byte) (*sstable, error) {
	t.Helper()
	f, err := env.FS.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	return openSSTable(env.FS, env.Arena, name)
}

// allocatedMB returns the bytes the Go heap has handed out so far, in MB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// FuzzSSTableImage: a valid run round-trips through get, find, lowerBound and
// the scanner; the same run with any bytes overwritten anywhere is refused
// at open with core.ErrCorrupt or read back — every key looked up, every
// scan run — with no panic and no allocation beyond a few times the file.
// The footer once sized an allocation by its unchecked filter length (2^40:
// the process died out of memory), an entry header claiming 2 GB was
// allocated before it failed, and a count of 2^62 opened.
func FuzzSSTableImage(f *testing.F) {
	// fromEnd places a patch n bytes before the image's end: the footer's
	// words start 40, 32, 24, 16 and 8 bytes before it.
	fromEnd := func(n uint32) uint32 { return 1<<31 | (n - 1) }
	f.Add(int64(1), uint32(0), []byte{})
	f.Add(int64(2), fromEnd(16), binary.LittleEndian.AppendUint64(nil, 1<<40)) // filter length
	f.Add(int64(3), fromEnd(32), binary.LittleEndian.AppendUint64(nil, 1<<62)) // count
	f.Add(int64(4), uint32(9), binary.LittleEndian.AppendUint32(nil, 1<<31))   // first entry's length
	f.Add(int64(5), fromEnd(40), binary.LittleEndian.AppendUint64(nil, 1<<20)) // offsets position
	f.Add(int64(6), fromEnd(8), []byte("notmagic"))                            // magic
	f.Add(int64(7), fromEnd(24), binary.LittleEndian.AppendUint64(nil, 1))     // filter position
	f.Add(int64(8), uint32(100), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, seed int64, at uint32, patch []byte) {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 4 << 20, FSExtent: 16 << 10})
		ents := genRun(rand.New(rand.NewSource(seed)))
		run, img := writeRun(t, env, "sst-000001", ents)
		checkRun(t, env, run, ents)
		if len(patch) == 0 {
			return
		}
		// at's low bits place the patch; its top bit counts them back from
		// the image's last byte, where the footer is.
		bad := bytes.Clone(img)
		pos := int(at&(1<<31-1)) % len(bad)
		if at&(1<<31) != 0 {
			pos = len(bad) - 1 - pos
		}
		copy(bad[pos:], patch)
		start := allocatedMB()
		run2, err := openImage(t, env, "sst-000002", bad)
		if err == nil {
			keys := []uint64{0, ^uint64(0)}
			for _, re := range ents {
				keys = append(keys, re.key, re.key+1)
			}
			err = readAll(env, run2, keys)
		}
		if err != nil && !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("a corrupt image failed with %v, not core.ErrCorrupt", err)
		}
		if mb := allocatedMB() - start; mb > 1+float64(8*len(bad)*(len(ents)+2))/(1<<20) {
			t.Fatalf("reading a %d-byte image allocated %.1f MB", len(bad), mb)
		}
	})
}

// TestCorruptFooterRefused names the footers FuzzSSTableImage's seeds reach:
// each is refused at open with core.ErrCorrupt before it sizes anything.
func TestCorruptFooterRefused(t *testing.T) {
	env := core.NewEnv(core.EnvConfig{DeviceSize: 4 << 20, FSExtent: 16 << 10})
	ents := evenEntries(20, 30)
	_, img := writeRun(t, env, "sst-000001", ents)
	foot := len(img) - footerSize
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(img[foot+8*i:]) }
	for i, c := range []struct {
		name string
		at   int
		v    uint64
	}{
		{"filter length 2^40", foot + 24, 1 << 40},
		{"count 2^62", foot + 8, 1 << 62},
		{"count one short", foot + 8, word(1) - 1},
		{"offsets past the filter", foot, word(0) + 8},
		{"filter position one word early", foot + 16, word(2) - 8},
		{"filter length one word short", foot + 24, word(3) - 8},
		{"filter length not whole words", foot + 24, word(3) - 4},
		{"filter of no words", foot + 24, 8},
		{"filter of 2^40 probes", int(word(2)), 1 << 40},
		{"filter of no probes", int(word(2)), 0},
	} {
		bad := bytes.Clone(img)
		binary.LittleEndian.PutUint64(bad[c.at:], c.v)
		start := allocatedMB()
		_, err := openImage(t, env, fmt.Sprintf("sst-1%05d", i), bad)
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: open returned %v, want core.ErrCorrupt", c.name, err)
		}
		if mb := allocatedMB() - start; mb > 1 {
			t.Errorf("%s: refusing the image allocated %.1f MB", c.name, mb)
		}
	}

	// An entry header claiming 2 GB: every reader refuses it before
	// allocating for it.
	bad := bytes.Clone(img)
	binary.LittleEndian.PutUint32(bad[9:], 1<<31)
	run, err := openImage(t, env, "sst-200000", bad)
	if err != nil {
		t.Fatal(err)
	}
	start := allocatedMB()
	c := newBlockCache(env.Arena, 4)
	if _, _, err := run.find(c, ents[0].key); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("find of the overlong entry returned %v, want core.ErrCorrupt", err)
	}
	if s := run.scan(c); s.next() || !errors.Is(s.err, core.ErrCorrupt) {
		t.Errorf("a scan over the overlong entry returned %v, want core.ErrCorrupt", s.err)
	}
	if mb := allocatedMB() - start; mb > 1 {
		t.Errorf("reading the overlong entry allocated %.1f MB", mb)
	}
}
