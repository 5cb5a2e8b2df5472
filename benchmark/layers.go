package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nstore/internal/bloom"
	"nstore/internal/btree"
	"nstore/internal/core"
	"nstore/internal/cowbtree"
	"nstore/internal/mvcc"
	"nstore/internal/nvbtree"
	"nstore/internal/nvm"
	"nstore/internal/pmalloc"
	"nstore/internal/testbed"
	"nstore/internal/vlog"
	"nstore/internal/wire"
	"nstore/internal/workload/ycsb"
)

// Layer micro-benchmarks: direct calls on a private device, allocator,
// filesystem or tree, timed from outside. Each is repeated microReps times on
// a fresh fixture and reported as the lower quartile of ns (or us) per
// operation; the spread of the repetitions feeds bench.rep_spread. Their
// inputs come from a constant seed, not the run's: they characterise the
// code, not the workload.
const (
	microReps = 5
	microSeed = 1
)

type micro struct {
	m      metricSet
	spread float64 // max relative spread seen over all micro metrics
	scale  float64
}

func (mc *micro) n(base int) int {
	v := int(float64(base) * mc.scale)
	if v < 64 {
		v = 64
	}
	return v
}

// timed runs fn microReps times; fn returns (elapsed, ops). div turns ns into
// the metric's unit.
func (mc *micro) timed(name string, div float64, fn func() (time.Duration, int, error)) error {
	var per []float64
	for i := 0; i < microReps; i++ {
		runtime.GC()
		d, ops, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(d)/float64(ops)/div)
	}
	mc.m.set(name, lowQ(per))
	if s := relSpread(per); s > mc.spread {
		mc.spread = s
	}
	return nil
}

func microDevice(size int64) *nvm.Device {
	cfg := nvm.DefaultConfig(size)
	nvm.ProfileLowNVM.Apply(&cfg)
	cfg.CacheSize = 128 << 10
	return nvm.NewDevice(cfg)
}

func microEnv() *core.Env {
	return core.NewEnv(core.EnvConfig{DeviceSize: 128 << 20, Profile: nvm.ProfileLowNVM, FSExtent: 512 << 10, CacheSize: 128 << 10})
}

// runMicro fills the nvm/pmalloc/pmfs/core/tree/bloom/vlog/mvcc/wire metrics.
func runMicro(scale float64) (metricSet, float64, error) {
	mc := &micro{m: metricSet{}, scale: scale}
	steps := []func() error{mc.nvm, mc.alloc, mc.files, mc.codec, mc.trees, mc.bloomVlog, mc.mvcc, mc.wire}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, 0, err
		}
	}
	return mc.m, mc.spread, nil
}

func (mc *micro) nvm() error {
	const span = 32 << 20
	var buf [8]byte
	var line [nvm.LineSize]byte
	if err := mc.timed("nvm.read_hit_ns", 1, func() (time.Duration, int, error) {
		dev := microDevice(64 << 20)
		n := mc.n(500000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			dev.Read(int64(i*8)&(32<<10-1), buf[:]) // 32 KB window: always resident
		}
		return time.Since(t0), n, nil
	}); err != nil {
		return err
	}
	if err := mc.timed("nvm.read_miss_ns", 1, func() (time.Duration, int, error) {
		dev := microDevice(64 << 20)
		n := mc.n(250000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			dev.Read(int64(i)*4160%span, buf[:]) // 65-line stride over 32 MB: never resident
		}
		return time.Since(t0), n, nil
	}); err != nil {
		return err
	}
	if err := mc.timed("nvm.write_flush_fence_ns", 1, func() (time.Duration, int, error) {
		dev := microDevice(64 << 20)
		n := mc.n(150000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			off := int64(i) * 4160 % span
			dev.Write(off, line[:])
			dev.Sync(off, nvm.LineSize)
		}
		return time.Since(t0), n, nil
	}); err != nil {
		return err
	}
	// Hit rate of the simulated cache on a fixed 90/10 hot/cold pattern: hot
	// set 64 KB (half the cache), cold set 32 MB.
	dev := microDevice(64 << 20)
	rng := rand.New(rand.NewSource(microSeed))
	n := mc.n(250000)
	for i := 0; i < n; i++ {
		off := int64(rng.Intn(64<<10)) &^ 7
		if rng.Intn(10) == 0 {
			off = int64(rng.Intn(span)) &^ 7
		}
		dev.Read(off, buf[:])
	}
	mc.m.set("nvm.cache_hit_rate", 1-float64(dev.Stats().Loads)/float64(n))
	return nil
}

func (mc *micro) alloc() error {
	return mc.timed("pmalloc.alloc_free_ns", 1, func() (time.Duration, int, error) {
		dev := microDevice(64 << 20)
		a := pmalloc.Format(dev, 0, dev.Size())
		n := mc.n(200000)
		ring := make([]pmalloc.Ptr, 64)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if p := ring[i%len(ring)]; p != 0 {
				a.Free(p)
			}
			p, err := a.Alloc(64+(i%8)*32, 1)
			if err != nil {
				return 0, 0, err
			}
			ring[i%len(ring)] = p
		}
		return time.Since(t0), n, nil
	})
}

func (mc *micro) files() error {
	page := make([]byte, 4096)
	if err := mc.timed("pmfs.write_fsync_us", 1e3, func() (time.Duration, int, error) {
		env := microEnv()
		f, err := env.FS.Create("bench.dat")
		if err != nil {
			return 0, 0, err
		}
		n := mc.n(3000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := f.Append(page); err != nil {
				return 0, 0, err
			}
			if err := f.Sync(); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	}); err != nil {
		return err
	}
	img := make([]byte, 100)
	return mc.timed("core.wal_append_flush_us", 1e3, func() (time.Duration, int, error) {
		env := microEnv()
		w, err := core.NewFsWAL(env.FS, "bench.wal", 1)
		if err != nil {
			return 0, 0, err
		}
		n := mc.n(3000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			w.Append(core.WalRecord{Type: core.WalUpdate, TxnID: uint64(i + 1), Table: 1, Key: uint64(i), Before: img, After: img})
			if err := w.TxnCommitted(uint64(i + 1)); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	})
}

func ycsbRow(rng *rand.Rand) []core.Value {
	row := []core.Value{core.IntVal(rng.Int63())}
	for i := 0; i < 10; i++ {
		b := make([]byte, 100)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		row = append(row, core.BytesVal(b))
	}
	return row
}

func (mc *micro) codec() error {
	sc := ycsb.Schema(ycsb.Config{})[0]
	row := ycsbRow(rand.New(rand.NewSource(microSeed)))
	return mc.timed("core.row_codec_ns", 1, func() (time.Duration, int, error) {
		n := mc.n(50000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := core.DecodeRow(sc, core.EncodeRow(sc, row)); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	})
}

// keys returns n distinct pseudo-random keys (a fixed permutation).
func microKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(microSeed))
	ks := make([]uint64, n)
	for i, p := range rng.Perm(n) {
		ks[i] = uint64(p)*2654435761%(1<<40) + 1
	}
	return ks
}

func (mc *micro) trees() error {
	ks := microKeys(mc.n(30000))
	// Each tree: one timed pass of Puts on a fresh tree, then one of Gets.
	type kv interface {
		put(k uint64) error
		get(k uint64) bool
	}
	pair := func(prefix string, mk func() (kv, error)) error {
		var tr kv
		if err := mc.timed(prefix+".put_ns", 1, func() (time.Duration, int, error) {
			var err error
			if tr, err = mk(); err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			for _, k := range ks {
				if err := tr.put(k); err != nil {
					return 0, 0, err
				}
			}
			return time.Since(t0), len(ks), nil
		}); err != nil {
			return err
		}
		return mc.timed(prefix+".get_ns", 1, func() (time.Duration, int, error) {
			t0 := time.Now()
			for _, k := range ks {
				if !tr.get(k) {
					return 0, 0, fmt.Errorf("key %d missing", k)
				}
			}
			return time.Since(t0), len(ks), nil
		})
	}
	if err := pair("btree", func() (kv, error) {
		return volTree{btree.New(microEnv().Arena, 512)}, nil
	}); err != nil {
		return err
	}
	if err := pair("nvbtree", func() (kv, error) {
		t, err := nvbtree.Create(microEnv().Arena, 512)
		return nvTree{t}, err
	}); err != nil {
		return err
	}
	// CoW tree over the NVM pager: a put is a whole Begin/Put/Commit/Persist
	// cycle, the unit the CoW engines pay per commit group.
	val := make([]byte, 8)
	nc := mc.n(3000)
	var ct *cowbtree.Tree
	if err := mc.timed("cowbtree.put_commit_us", 1e3, func() (time.Duration, int, error) {
		pg, err := cowbtree.CreateArenaPager(microEnv().Arena, 1, 4096)
		if err != nil {
			return 0, 0, err
		}
		if ct, err = cowbtree.Create(pg); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for _, k := range ks[:nc] {
			ct.Begin()
			if err := ct.Put(k, val); err != nil {
				return 0, 0, err
			}
			ct.Commit()
			if err := ct.Persist(); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), nc, nil
	}); err != nil {
		return err
	}
	return mc.timed("cowbtree.get_ns", 1, func() (time.Duration, int, error) {
		t0 := time.Now()
		for r := 0; r < 4; r++ {
			for _, k := range ks[:nc] {
				if _, ok := ct.Get(k); !ok {
					return 0, 0, fmt.Errorf("key %d missing", k)
				}
			}
		}
		return time.Since(t0), 4 * nc, nil
	})
}

type volTree struct{ t *btree.Tree }

func (v volTree) put(k uint64) error { v.t.Put(k, k); return nil }
func (v volTree) get(k uint64) bool  { _, ok := v.t.Get(k); return ok }

type nvTree struct{ t *nvbtree.Tree }

func (v nvTree) put(k uint64) error { return v.t.Put(k, k) }
func (v nvTree) get(k uint64) bool  { _, ok := v.t.Get(k); return ok }

func (mc *micro) bloomVlog() error {
	ks := microKeys(mc.n(100000))
	f := bloom.New(len(ks), 10)
	for _, k := range ks {
		f.Add(k)
	}
	if err := mc.timed("bloom.test_ns", 1, func() (time.Duration, int, error) {
		hits := 0
		t0 := time.Now()
		for _, k := range ks {
			if f.MayContain(k) {
				hits++
			}
			if f.MayContain(k ^ 1<<50) { // absent
				hits++
			}
		}
		d := time.Since(t0)
		if hits < len(ks) {
			return 0, 0, fmt.Errorf("bloom false negative")
		}
		return d, 2 * len(ks), nil
	}); err != nil {
		return err
	}
	val := make([]byte, 1024)
	n := mc.n(2000)
	var vl *vlog.Manager
	ptrs := make([]core.VlogPtr, n)
	if err := mc.timed("vlog.append_sync_us", 1e3, func() (time.Duration, int, error) {
		var err error
		if vl, err = vlog.Open(vlog.NewFSBackend(microEnv().FS, "vl"), vlog.Config{SegSize: 1 << 20}); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if ptrs[i], err = vl.Append(uint64(i), val); err != nil {
				return 0, 0, err
			}
			if err := vl.Sync(); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	}); err != nil {
		return err
	}
	return mc.timed("vlog.read_ns", 1, func() (time.Duration, int, error) {
		t0 := time.Now()
		for r := 0; r < 4; r++ {
			for i := 0; i < n; i++ {
				if _, err := vl.Read(ptrs[i], uint64(i)); err != nil {
					return 0, 0, err
				}
			}
		}
		return time.Since(t0), 4 * n, nil
	})
}

// mvcc measures the snapshot store the way the serving layer uses it: one
// pinned view per point read. mvcc.heap_mb is the heap a full InitSnapshots
// copy of the fixture (the same YCSB table, microTuples rows) holds.
func (mc *micro) mvcc() error {
	cfg := ycsb.Config{Tuples: mc.n(4000), Partitions: 1, Seed: microSeed}
	schemas := ycsb.Schema(cfg)
	db, err := testbed.New(testbed.Config{Engine: testbed.NVMInP, Partitions: 1, Schemas: schemas,
		Env:     core.EnvConfig{DeviceSize: 128 << 20, Profile: nvm.ProfileLowNVM, CacheSize: 128 << 10},
		Options: core.Options{RecoveryParallelism: 1}})
	if err != nil {
		return err
	}
	if err := ycsb.Load(db, cfg); err != nil {
		return err
	}
	sr, ok := db.Engine(0).(core.SnapshotReader)
	if !ok {
		return fmt.Errorf("mvcc: %s serves no snapshots", db.Engine(0).Name())
	}
	if err := mc.timed("mvcc.read_ns", 1, func() (time.Duration, int, error) {
		n := mc.n(200000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			v := sr.SnapshotView()
			_, found, err := v.Get(ycsb.TableName, uint64(i%cfg.Tuples))
			v.Close()
			if err != nil || !found {
				return 0, 0, fmt.Errorf("key %d: found=%v err=%v", i%cfg.Tuples, found, err)
			}
		}
		return time.Since(t0), n, nil
	}); err != nil {
		return err
	}
	runtime.GC()
	h0 := memStats().HeapAlloc
	var snap mvcc.Snapshots
	if err := snap.InitSnapshots(db.Engine(0), schemas, 0); err != nil {
		return err
	}
	runtime.GC()
	mc.m.set("mvcc.heap_mb", (float64(memStats().HeapAlloc)-float64(h0))/1e6)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(db) // or the second GC frees its device and the delta goes negative
	return nil
}

func (mc *micro) wire() error {
	rng := rand.New(rand.NewSource(microSeed))
	req := &wire.Request{ID: 7, Part: -1, Op: wire.OpRmw, Table: ycsb.TableName, Key: 12345,
		Cols: []wire.RmwCol{{Col: 3, Val: ycsbRow(rng)[1]}}}
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		return err
	}
	mc.m.set("wire.req_bytes", float64(len(wire.AppendFrame(nil, payload))))
	if err := mc.timed("wire.encode_req_ns", 1, func() (time.Duration, int, error) {
		n := mc.n(100000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := wire.EncodeRequest(req); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	}); err != nil {
		return err
	}
	return mc.timed("wire.decode_req_ns", 1, func() (time.Duration, int, error) {
		n := mc.n(100000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := wire.DecodeRequest(payload); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	})
}
