package bench

import (
	"math/rand"

	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/pmfs"
)

// Fig1Result holds the interface-comparison microbenchmark (Fig. 1):
// durable write bandwidth by chunk size, for the allocator and filesystem
// interfaces, sequential and random. Bandwidth is MB per second of device
// time — the simulated stall the writes, write-backs, fences and VFS
// crossings were charged — so it is exact for a given chunk size.
type Fig1Result struct {
	ChunkSizes []int
	// Bandwidth[interface][pattern][chunkIdx] in MB/s;
	// interface: 0 allocator, 1 filesystem; pattern: 0 seq, 1 random.
	Bandwidth [2][2][]float64
}

// Fig1 reproduces the durable-write-bandwidth comparison of the allocator
// and filesystem interfaces (§2.2).
func (r *Runner) Fig1() (*Fig1Result, error) {
	res := &Fig1Result{ChunkSizes: []int{1, 2, 4, 8, 16, 32, 64, 128, 256}}
	const region = 16 << 20
	const totalWrite = 2 << 20

	for pat := 0; pat < 2; pat++ {
		for _, chunk := range res.ChunkSizes {
			// Allocator interface: durable writes with the sync primitive.
			devA := nvm.NewDevice(nvm.DefaultConfig(64 << 20))
			arena := pmalloc.Format(devA, 0, 64<<20)
			buf := make([]byte, chunk)
			base, err := arena.Alloc(region, pmalloc.TagOther)
			if err != nil {
				return nil, err
			}
			bw := measureBandwidth(devA, totalWrite, chunk, pat == 1, func(off int64) {
				devA.Write(int64(base)+off, buf)
				devA.Sync(int64(base)+off, chunk)
			})
			res.Bandwidth[0][pat] = append(res.Bandwidth[0][pat], bw)

			// Filesystem interface: write + fsync through the VFS.
			devF := nvm.NewDevice(nvm.DefaultConfig(64 << 20))
			fs := pmfs.Format(devF, 0, 64<<20, pmfs.Config{ExtentSize: 1 << 20})
			f, err := fs.Create("bench")
			if err != nil {
				return nil, err
			}
			if _, err := f.WriteAt(make([]byte, region), 0); err != nil {
				return nil, err
			}
			if err := f.Sync(); err != nil {
				return nil, err
			}
			bw = measureBandwidth(devF, totalWrite, chunk, pat == 1, func(off int64) {
				f.WriteAt(buf, off)
				f.Sync()
			})
			res.Bandwidth[1][pat] = append(res.Bandwidth[1][pat], bw)
		}
	}

	r.section("Fig. 1 — durable write bandwidth: allocator vs filesystem interface (MB/s)")
	for pat, name := range []string{"sequential", "random"} {
		r.printf("\n%s writes:\n", name)
		w := r.tab()
		fprintf(w, "chunk(B)\tallocator\tfilesystem\tratio\n")
		for i, c := range res.ChunkSizes {
			a, f := res.Bandwidth[0][pat][i], res.Bandwidth[1][pat][i]
			fprintf(w, "%d\t%.1f\t%.1f\t%.1fx\n", c, a, f, a/f)
		}
		w.Flush()
	}
	return res, nil
}

// measureBandwidth issues durable writes of `total` bytes in `chunk`-sized
// pieces over a region, returning MB per second of simulated device time.
func measureBandwidth(dev *nvm.Device, total, chunk int, random bool, write func(off int64)) float64 {
	const region = 16 << 20
	rng := rand.New(rand.NewSource(7))
	n := total / chunk
	// Cap the op count: small chunks converge long before 2 MB is written.
	if n > 20000 {
		n = 20000
	}
	if n < 1 {
		n = 1
	}
	stall0 := dev.Stats().Stall
	off := int64(0)
	for i := 0; i < n; i++ {
		if random {
			off = int64(rng.Intn(region - chunk))
		} else {
			off += int64(chunk)
			if off+int64(chunk) >= region {
				off = 0
			}
		}
		write(off)
	}
	stall := dev.Stats().Stall - stall0
	mb := float64(n*chunk) / (1 << 20)
	return mb / stall.Seconds()
}
