package nvm

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// ctrlOp is one step of a seeded schedule over whole cache lines. Every write
// fills its lines with a fresh version byte, so a line's durable content says
// which write it came from.
type ctrlOp struct {
	kind  int // 0 Write, 1 WriteBack, 2 WriteStream, 3 Fence, 4 Read
	line  int
	count int
}

func ctrlSchedule(seed int64, lines, steps int) []ctrlOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]ctrlOp, steps)
	for i := range ops {
		op := ctrlOp{kind: rng.Intn(5), line: rng.Intn(lines)}
		switch {
		case op.kind == 3 && rng.Intn(4) != 0:
			op.kind = 2 // fences are rare, so that the buffer fills between them
			fallthrough
		case op.kind == 2:
			op.count = 1 + rng.Intn(3*ctrlLines/2) // some bursts exceed the buffer alone
		default:
			op.count = 1 + rng.Intn(8)
		}
		if op.line+op.count > lines {
			op.count = lines - op.line
		}
		ops[i] = op
	}
	// End on an un-fenced burst larger than the buffer: whatever the seed,
	// the crash finds lines that drained early and lines still buffered.
	ops[steps-1] = ctrlOp{kind: 2, line: 0, count: 3 * ctrlLines / 2}
	return ops
}

// lineModel is what a crash may leave of one line: any version it has held
// since the last one a fence made durable.
type lineModel struct {
	cur     byte   // current content
	wb      byte   // content at the last write-back or stream
	wbSince bool   // written back or streamed since the last fence
	legal   []byte // versions a crash may leave
}

// ctrlRun plays the schedule on d, checking the buffer bound and
// read-your-writes after every step, and returns the model and the most lines
// the buffer held.
func ctrlRun(t *testing.T, d *Device, ops []ctrlOp, lines int) (model []lineModel, peak int) {
	t.Helper()
	model = make([]lineModel, lines)
	for i := range model {
		model[i].legal = []byte{0}
	}
	version := make([]byte, lines)
	write := func(op ctrlOp, stream bool) {
		p := make([]byte, op.count*LineSize)
		for l := 0; l < op.count; l++ {
			m := &model[op.line+l]
			version[op.line+l]++
			m.cur = version[op.line+l]
			m.legal = append(m.legal, m.cur)
			if stream {
				m.wb, m.wbSince = m.cur, true
			}
			copy(p[l*LineSize:(l+1)*LineSize], bytes.Repeat([]byte{m.cur}, LineSize))
		}
		if stream {
			d.WriteStream(int64(op.line)*LineSize, p)
		} else {
			d.Write(int64(op.line)*LineSize, p)
		}
	}
	for i, op := range ops {
		switch op.kind {
		case 0:
			write(op, false)
		case 1:
			d.WriteBack(int64(op.line)*LineSize, op.count*LineSize)
			for l := op.line; l < op.line+op.count; l++ {
				model[l].wb, model[l].wbSince = model[l].cur, true
			}
		case 2:
			write(op, true)
		case 3:
			d.Fence()
			for l := range model {
				m := &model[l]
				if !m.wbSince {
					continue
				}
				// Versions older than the fenced one are gone for good.
				at := bytes.LastIndexByte(m.legal, m.wb)
				m.legal = append(m.legal[:0], m.legal[at:]...)
				m.wbSince = false
			}
		case 4:
			got := make([]byte, op.count*LineSize)
			d.Read(int64(op.line)*LineSize, got)
			for l := 0; l < op.count; l++ {
				if want := bytes.Repeat([]byte{model[op.line+l].cur}, LineSize); !bytes.Equal(got[l*LineSize:(l+1)*LineSize], want) {
					t.Fatalf("step %d: line %d reads %#x.., want %#x", i, op.line+l, got[l*LineSize], want[0])
				}
			}
		}
		if n := len(d.pending.keys); n > d.pending.limit {
			t.Fatalf("step %d: controller buffers %d lines, limit %d", i, n, d.pending.limit)
		} else if n > peak {
			peak = n
		}
	}
	return model, peak
}

// The controller buffer never holds more than ctrlLines lines; bounding it
// changes no counter and no byte a program can read; and whatever it drains
// early is a line the crash model could have made durable anyway.
func TestControllerBufferBound(t *testing.T) {
	const lines = 4 * ctrlLines
	newDev := func() *Device {
		cfg := DefaultConfig(lines * LineSize)
		cfg.CacheSize = 32 << 10 // evictions happen too
		return NewDevice(cfg)
	}
	seed := *streamSeed
	ops := ctrlSchedule(seed, lines, 600)

	t.Run("stats equal an unbounded buffer's", func(t *testing.T) {
		bounded, unbounded := newDev(), newDev()
		unbounded.pending.limit = 1 << 30
		ctrlRun(t, bounded, ops, lines)
		_, peak := ctrlRun(t, unbounded, ops, lines)
		if b, u := bounded.Stats(), unbounded.Stats(); b != u {
			t.Fatalf("seed %d: bounded %+v, unbounded %+v", seed, b, u)
		}
		if peak <= ctrlLines {
			t.Fatalf("seed %d: the schedule never overfilled the buffer (%d lines): the test tests nothing", seed, peak)
		}
		bounded.Fence()
		unbounded.Fence()
		if !bytes.Equal(bounded.data, unbounded.data) {
			t.Fatalf("seed %d: media differ after a final fence", seed)
		}
	})

	for _, mode := range []FaultMode{FaultLoseAll, FaultReorder, FaultTear} {
		mode := mode
		t.Run("early drain is legal under "+mode.String(), func(t *testing.T) {
			d := newDev()
			model, _ := ctrlRun(t, d, ops, lines)
			d.InjectFaults(FaultPlan{Seed: seed, Mode: mode, KeepProb: 0.5, TearProb: 0.5})
			d.Crash()
			drained := 0
			for l, m := range model {
				line := d.data[l*LineSize : (l+1)*LineSize]
				for w := 0; w < LineSize; w += 8 {
					word := line[w : w+8]
					if !bytes.Equal(word, bytes.Repeat(word[:1], 8)) || bytes.IndexByte(m.legal, word[0]) < 0 {
						t.Fatalf("seed %d: line %d word %d holds % x, legal versions % x", seed, l, w/8, word, m.legal)
					}
					if mode != FaultTear && word[0] != line[0] {
						t.Fatalf("seed %d: line %d torn under %v: % x", seed, l, mode, line)
					}
				}
				if mode == FaultLoseAll && m.wbSince && line[0] == m.wb {
					drained++
				}
			}
			if mode == FaultLoseAll && drained == 0 {
				t.Fatalf("seed %d: no un-fenced line reached the medium: the schedule never drained early", seed)
			}
		})
	}

	t.Run("heap returns to baseline after a burst", func(t *testing.T) {
		d := NewDevice(DefaultConfig(8 << 20))
		burst := make([]byte, 4<<20)
		heap := func() uint64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		d.WriteStream(0, burst[:LineSize]) // the buffer's first allocation is not the burst's
		d.Fence()
		before := heap()
		d.WriteStream(0, burst)
		d.Fence()
		after := heap()
		// The buffer itself tops out near 100 KB (64 KB of lines, keys, map).
		if after > before+256<<10 {
			t.Fatalf("a 4 MB burst left %d KB on the heap", (after-before)>>10)
		}
		runtime.KeepAlive(burst)
		runtime.KeepAlive(d)
	})
}
