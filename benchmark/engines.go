package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// The three legs every workload runs, in execution order. TPC-C is last: its
// transactions are the only part of a repetition whose cache behaviour is
// not bit-reproducible (loads and stores drift by ~0.1 % between identical
// executions), so the YCSB legs before it keep exact device counters.
const (
	legRead = iota
	legWrite
	legTPCC
	nLegs
)

var legNames = [nLegs]string{"read", "write", "tpcc"}

var engineSets = map[string][]testbed.EngineKind{
	"nvm-engines":  {testbed.NVMInP, testbed.NVMCoW, testbed.NVMLog},
	"disk-engines": {testbed.InP, testbed.CoW, testbed.Log},
}

// schedules are the generated inputs of a run: the only way the seed reaches
// the program. They are built once and replayed on every engine and
// repetition (§5.1: "a fixed workload that is the same across all engines").
type schedules struct {
	txns      [nLegs][][]testbed.Txn
	userBytes int64 // bytes the write leg's updates carry
}

func genSchedules(pol policy) schedules {
	var s schedules
	s.txns[legRead] = ycsb.Generate(pol.readCfg())
	wops := ycsb.GenerateOps(pol.writeCfg())
	s.txns[legWrite] = make([][]testbed.Txn, len(wops))
	for p, ops := range wops {
		for _, o := range ops {
			s.txns[legWrite][p] = append(s.txns[legWrite][p], o.Txn())
			if !o.Read {
				s.userBytes += int64(len(o.Val))
			}
		}
	}
	s.txns[legTPCC] = tpcc.Generate(pol.TPCC)
	return s
}

// legSample is one execution of one leg.
type legSample struct {
	Txns    int
	Aborted int
	// EffNs is the paper's effective time: sum over partitions of wall time
	// plus the simulated NVM stall accrued meanwhile. Network legs are wall
	// only.
	EffNs  int64
	WallNs int64
	// Lat is the per-transaction latency in ns (wall + stall delta of that
	// transaction), partition after partition.
	Lat     []int64
	Dev     nvm.Stats
	BD      core.Breakdown
	Flush   core.FlushStats
	Mallocs uint64
	Bytes   uint64
	GCPause uint64
	// SpanLo..SpanHi is the leg's slice of the tracer's spans (traced runs).
	SpanLo, SpanHi int
}

func (l *legSample) txnS() float64 { return float64(l.Txns) / (float64(l.EffNs) / 1e9) }

// slowNs sums the latencies above 1 ms: on an LSM engine, the time its
// flush/compaction cycles added to the foreground.
func (l *legSample) slowNs() (sum int64) {
	for _, v := range l.Lat {
		if v > int64(time.Millisecond) {
			sum += v
		}
	}
	return sum
}

// repSample is one repetition: fresh build and load (of one engine, or of a
// server stack on netEngine), the three legs, flush, crash, recovery.
type repSample struct {
	Kind      testbed.EngineKind
	SetupS    float64
	Legs      [nLegs]legSample
	RecoverMs float64
	Footprint int64
	LiveBytes int64
	HeapMB    float64
	VlogAmp   float64
	Digest    [32]byte // state after recovery
	// DigestMoved is set when the state after recovery differs from the state
	// before the crash: a durability failure.
	DigestMoved bool
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func flushStats(db *testbed.DB) (fs core.FlushStats) {
	for p := 0; p < db.Partitions(); p++ {
		if f, ok := db.Engine(p).(core.FlushStatser); ok {
			s := f.FlushStats()
			fs.Flushes += s.Flushes
			fs.Compactions += s.Compactions
			fs.VlogBytes += s.VlogBytes
			fs.VlogDiscard += s.VlogDiscard
		}
	}
	return fs
}

// runLeg executes one leg in-process: partition after partition on the
// calling goroutine, each transaction Begin/body/Commit straight on the
// partition's core.Engine. With tr set, the engine is wrapped in the span
// decorator and each transaction gets a parent span.
func runLeg(db *testbed.DB, name string, perPart [][]testbed.Txn, tr *Tracer) (legSample, error) {
	var ls legSample
	for _, txns := range perPart {
		ls.Txns += len(txns)
	}
	ls.Lat = make([]int64, 0, ls.Txns)
	bd0 := db.Breakdown()
	fs0 := flushStats(db)
	runtime.GC()
	ms0 := memStats()
	if tr != nil {
		ls.SpanLo = len(tr.spans)
	}
	for p, txns := range perPart {
		eng := db.Engine(p)
		dev := db.Env(p).Dev
		var ln *lane
		var te *tracedEngine
		if tr != nil {
			ln = tr.lane(dev)
			te = &tracedEngine{e: eng, l: ln}
			eng = te
			ln.begin("leg."+name, int64(p))
		}
		st0 := dev.Stats()
		start := time.Now()
		prevT, prevStall := start, st0.Stall
		for i, txn := range txns {
			if ln != nil {
				te.req = int64(i)*int64(len(perPart)) + int64(p)
				ln.begin("txn", te.req)
			}
			if err := eng.Begin(); err != nil {
				return ls, fmt.Errorf("%s leg: partition %d begin: %w", name, p, err)
			}
			err := txn(eng)
			switch {
			case err == nil:
				err = eng.Commit()
			case errors.Is(err, testbed.ErrAbort):
				// TPC-C's 1 % NewOrder rollbacks: completed work, not failures.
				ls.Aborted++
				err = eng.Abort()
			default:
				err = errors.Join(err, eng.Abort())
			}
			if err != nil {
				return ls, fmt.Errorf("%s leg: partition %d txn %d: %w", name, p, i, err)
			}
			if ln != nil {
				ln.end()
			}
			now, stall := time.Now(), dev.Stats().Stall
			ls.Lat = append(ls.Lat, int64(now.Sub(prevT))+int64(stall-prevStall))
			prevT, prevStall = now, stall
		}
		if ln != nil {
			ln.end()
		}
		d := dev.Stats().Sub(st0)
		ls.Dev = ls.Dev.Add(d)
		ls.WallNs += int64(prevT.Sub(start))
		ls.EffNs += int64(prevT.Sub(start)) + int64(d.Stall)
	}
	if tr != nil {
		ls.SpanHi = len(tr.spans)
	}
	ms1 := memStats()
	ls.Mallocs, ls.Bytes, ls.GCPause = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.PauseTotalNs-ms0.PauseTotalNs
	bd1 := db.Breakdown()
	ls.BD = core.Breakdown{Storage: bd1.Storage - bd0.Storage, Recovery: bd1.Recovery - bd0.Recovery,
		Index: bd1.Index - bd0.Index, Other: bd1.Other - bd0.Other}
	fs1 := flushStats(db)
	ls.Flush = core.FlushStats{Flushes: fs1.Flushes - fs0.Flushes, Compactions: fs1.Compactions - fs0.Compactions}
	return ls, nil
}

// rowBytes sums the user payload of every visible row of one partition: 8
// bytes per integer column and the length of every string column.
func rowBytes(eng core.Engine, schemas []*core.Schema) (int64, error) {
	var n int64
	for _, sc := range schemas {
		sc := sc
		err := eng.ScanRange(sc.Name, 0, ^uint64(0), func(_ uint64, row []core.Value) bool {
			for ci, col := range sc.Columns {
				if col.Type == core.TInt {
					n += 8
				} else {
					n += int64(len(row[ci].S))
				}
			}
			return true
		})
		if err != nil {
			return 0, fmt.Errorf("live bytes: %s: %w", sc.Name, err)
		}
	}
	return n, nil
}

func liveBytes(db *testbed.DB, schemas []*core.Schema) (int64, error) {
	var total int64
	for p := 0; p < db.Partitions(); p++ {
		n, err := rowBytes(db.Engine(p), schemas)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func deviceBytes(db *testbed.DB) (n int64) {
	for p := 0; p < db.Partitions(); p++ {
		n += db.Env(p).Dev.Size()
	}
	return n
}

// crashRecover power-cycles every partition and recovers them one after
// another, returning the summed effective recovery time in ms. A digest that
// differs across the crash is a durability failure.
func crashRecover(db *testbed.DB) (ms float64, pre, post [32]byte, err error) {
	if pre, err = db.StateDigest(); err != nil {
		return 0, pre, post, fmt.Errorf("pre-crash digest: %w", err)
	}
	db.Crash()
	var total time.Duration
	for p := 0; p < db.Partitions(); p++ {
		dev := db.Env(p).Dev
		st0 := dev.Stats().Stall
		d, rerr := db.RecoverPartition(p)
		if rerr != nil {
			return 0, pre, post, rerr
		}
		total += d + (dev.Stats().Stall - st0)
	}
	if post, err = db.StateDigest(); err != nil {
		return 0, pre, post, fmt.Errorf("post-recovery digest: %w", err)
	}
	return float64(total) / 1e6, pre, post, nil
}

// runEngineRep is one repetition of one engine.
func runEngineRep(pol policy, kind testbed.EngineKind, sched *schedules, tr *Tracer) (*repSample, error) {
	es := &repSample{Kind: kind}
	schemas := pol.schemas()
	runtime.GC()
	heap0 := memStats().HeapAlloc

	t0 := time.Now()
	db, err := testbed.New(pol.dbConfig(kind, schemas))
	if err != nil {
		return nil, err
	}
	if err := pol.load(db); err != nil {
		return nil, fmt.Errorf("%s: load: %w", kind, err)
	}
	es.SetupS = time.Since(t0).Seconds()

	for leg := 0; leg < nLegs; leg++ {
		ls, err := runLeg(db, legNames[leg], sched.txns[leg], tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		es.Legs[leg] = ls
	}
	if err := db.Flush(); err != nil {
		return nil, fmt.Errorf("%s: flush: %w", kind, err)
	}
	runtime.GC()
	es.HeapMB = (float64(memStats().HeapAlloc) - float64(heap0) - float64(deviceBytes(db))) / 1e6
	es.Footprint = db.Footprint().Total()
	es.VlogAmp = flushStats(db).VlogSpaceAmp()
	if es.LiveBytes, err = liveBytes(db, schemas); err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}

	ms, pre, post, err := crashRecover(db)
	if err != nil {
		return nil, fmt.Errorf("%s: recovery: %w", kind, err)
	}
	es.RecoverMs, es.Digest, es.DigestMoved = ms, post, pre != post
	return es, nil
}

// counterDrift compares two executions of the same schedule on the same
// engine. Wall time differs; the work must not. mismatch names the first
// logical outcome that differs (aborts, live bytes, final state): a
// correctness failure. drift is the largest relative difference among the
// device counters and the footprint. nvm-inp, nvm-log and inp repeat their
// YCSB legs exactly; the CoW engines flush dirty pages and TPC-C visits rows
// in Go map order, which moves cache hits by ~1e-3, and log's compaction/GC
// choices move all its counters, by 10 % on some seeds (README "Determinism").
func counterDrift(a, b *repSample) (mismatch string, drift float64) {
	differ := func(what string, same bool) {
		if !same && mismatch == "" {
			mismatch = what
		}
	}
	differ("live bytes", a.LiveBytes == b.LiveBytes)
	differ("final state", a.Digest == b.Digest)
	rel := func(x, y float64) {
		if x != 0 {
			drift = math.Max(drift, math.Abs(y-x)/x)
		}
	}
	rel(float64(a.Footprint), float64(b.Footprint))
	for l := 0; l < nLegs; l++ {
		la, lb := &a.Legs[l], &b.Legs[l]
		differ(legNames[l]+" aborts", la.Aborted == lb.Aborted)
		rel(float64(la.Dev.Flushes), float64(lb.Dev.Flushes))
		rel(float64(la.Dev.Fences), float64(lb.Dev.Fences))
		rel(float64(la.Dev.BytesWritten), float64(lb.Dev.BytesWritten))
		rel(float64(la.Dev.BytesRead), float64(lb.Dev.BytesRead))
		rel(float64(la.Dev.Loads), float64(lb.Dev.Loads))
		rel(float64(la.Dev.Stores), float64(lb.Dev.Stores))
		rel(float64(la.Dev.Stall), float64(lb.Dev.Stall))
	}
	return mismatch, drift
}
