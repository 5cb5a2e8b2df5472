package main

import (
	"fmt"
	"strings"
	"time"

	"nstore/internal/core"
	"nstore/internal/testbed"
	"nstore/internal/wire"
)

// tracedRun is the separate run that yields the per-layer metrics. It never
// feeds an end-to-end metric: those are measured with tracing off. It does,
// in order:
//
//  1. one untraced repetition of each of the six engines, at the schedule
//     lengths of the engine's own workload (engine.*, lsm.*, go.*);
//  2. one traced repetition of the workload's engines (for wire and cluster:
//     nvm-inp, the engine under their serving stack), reconciled against the
//     untraced one: span self times against the leg's wall, span stall deltas
//     against the device's stall clock, counters against counters;
//  3. for wire and cluster, on one fresh stack, the first half of every
//     network leg untraced and the second half traced (client.do / router.do
//     / router.dotxn spans);
//  4. the layer micro-benchmarks and the ladder.
//
// The spans are written to path when the run ends.
func (r *runner) tracedRun(path string, scale float64) (metricSet, error) {
	m := metricSet{}
	tr := newTracer()
	var recon []reconRow
	t0 := time.Now()
	phase := func(name string) {
		r.logf("phase %-28s done at %5.1fs", name, time.Since(t0).Seconds())
	}

	// 1. Six engines, untraced.
	untraced := make(map[testbed.EngineKind]*repSample)
	pols := make(map[testbed.EngineKind]policy)
	scheds := make(map[string]*schedules)
	for _, wl := range []string{"disk-engines", "nvm-engines"} {
		pol := newPolicy(wl, r.pol.Seed, scale)
		sched := genSchedules(pol)
		scheds[wl] = &sched
		for _, kind := range engineSets[wl] {
			es, err := runEngineRep(pol, kind, &sched, nil)
			if err != nil {
				return nil, err
			}
			r.count(es)
			untraced[kind], pols[kind] = es, pol
			engineLayer(m, es)
			r.logRep(0, es)
		}
	}
	crossEngineLayer(m, untraced)
	phase("six engines, untraced")

	// 2. The workload's engines, traced.
	set, home := engineSets[r.workload], r.workload
	if set == nil {
		set, home = []testbed.EngineKind{netEngine}, "nvm-engines"
	}
	var tracedWall, plainWall int64
	// The demoted wall-clock metrics of the workload's own legs (leg.*,
	// lat.*), per engine of the workload, from the untraced repetition.
	var own [nLegs][]legStats
	var ownRecover []float64
	drift := 0.0
	for _, kind := range set {
		for l := range own {
			own[l] = append(own[l], legE2E([]*legSample{&untraced[kind].Legs[l]}))
		}
		ownRecover = append(ownRecover, untraced[kind].RecoverMs)
		es, err := runEngineRep(pols[kind], kind, scheds[home], tr)
		if err != nil {
			return nil, err
		}
		r.count(es)
		mm, d := counterDrift(untraced[kind], es)
		if mm != "" {
			r.fail("%s: traced repetition differs from the untraced one in %s", kind, mm)
		}
		if d > drift {
			drift = d
		}
		for l := range es.Legs {
			tracedWall += es.Legs[l].WallNs
			plainWall += untraced[kind].Legs[l].WallNs
			recon = append(recon, legRecon(tr, kind, l, &es.Legs[l])...)
		}
	}
	m.set("bench.counter_drift", drift)
	phase("workload engines, traced")

	// 3. Network legs.
	var nt *netTrace
	if r.workload == "wire" || r.workload == "cluster" {
		var err error
		if nt, err = r.tracedNet(tr); err != nil {
			return nil, err
		}
		tracedWall, plainWall = nt.tracedWall, nt.plainWall
		for l := range own {
			own[l] = []legStats{legE2E([]*legSample{&nt.plain[l]})}
		}
		ownRecover = []float64{nt.recoverMs}
		phase("network legs")
	}
	pick := func(l int, f func(legStats) float64) float64 {
		var vs []float64
		for _, st := range own[l] {
			vs = append(vs, f(st))
		}
		return geomean(vs)
	}
	m.set("leg.read_txn_s", pick(legRead, func(s legStats) float64 { return s.txnS }))
	m.set("leg.write_txn_s", pick(legWrite, func(s legStats) float64 { return s.txnS }))
	m.set("leg.tpcc_txn_s", pick(legTPCC, func(s legStats) float64 { return s.txnS }))
	m.set("leg.recover_ms", geomean(ownRecover))
	m.set("lat.read_p50_us", pick(legRead, func(s legStats) float64 { return s.p50 }))
	m.set("lat.write_p50_us", pick(legWrite, func(s legStats) float64 { return s.p50 }))
	m.set("lat.write_p95_us", pick(legWrite, func(s legStats) float64 { return s.p95 }))
	m.set("lat.write_p99_us", pick(legWrite, func(s legStats) float64 { return s.p99 }))
	m.set("lat.tpcc_p99_us", pick(legTPCC, func(s legStats) float64 { return s.p99 }))
	m.set("lat.tpcc_tail_us", pick(legTPCC, func(s legStats) float64 { return s.tail10 }))
	m.set("trace.overhead_frac", float64(tracedWall)/float64(plainWall)-1)

	// 4. Layers and ladder.
	mm, spread, err := runMicro(scale)
	if err != nil {
		return nil, err
	}
	for k, v := range mm {
		m.set(k, v)
	}
	m.set("bench.rep_spread", spread)
	phase("layer micro-benchmarks")
	lad, err := r.runLadder()
	if err != nil {
		return nil, err
	}
	for k, v := range lad.m {
		m.set(k, v)
	}
	// A ladder's self times are differences of adjacent rungs, so they sum to
	// its deepest rung; the independent whole is the same request as the
	// workload's own traced leg measured it.
	switch r.workload {
	case "wire":
		recon = append(recon,
			reconRow{What: "ladder.read engine+serve+net vs read leg client.do GET p50", Parts: lad.readNet, Whole: nt.getUs, Tol: 0.10, Unit: "us", Soft: true},
			reconRow{What: "ladder.write engine+serve+net vs write leg client.do RMW p50", Parts: lad.writeNet, Whole: nt.rmwUs, Tol: 0.10, Unit: "us", Soft: true})
	case "cluster":
		recon = append(recon,
			reconRow{What: "ladder.write engine+serve+net+repl vs write leg router.do RMW p50", Parts: lad.writeRepl, Whole: nt.rmwUs, Tol: 0.10, Unit: "us", Soft: true})
	}
	phase("ladder")

	r.logf("reconciliation:")
	for _, row := range recon {
		verdict := "ok"
		switch {
		case row.ok():
		case row.Soft:
			verdict = "off"
		default:
			verdict = "FAIL"
			r.failed++
		}
		if !row.Soft {
			r.attempted++
		}
		r.logf("  %-4s %-66s parts %14.3f whole %14.3f %s (tol %.0f%%)", verdict, row.What, row.Parts, row.Whole, row.Unit, row.Tol*100)
	}
	self := selfTimes(tr.spans)
	byName := make(map[string]int64)
	for i, sp := range tr.spans {
		byName[sp.Name] += self[i]
	}
	r.logf("span self time by name:")
	for _, name := range sortedKeys(byName) {
		r.logf("  %-24s %10.3f ms", name, float64(byName[name])/1e6)
	}
	if err := tr.write(path, map[string]any{"workload": r.workload, "seed": r.pol.Seed}); err != nil {
		return nil, err
	}
	r.logf("wrote %d spans to %s", len(tr.spans), path)
	return m, nil
}

// legRecon checks one traced in-process leg: the spans below the leg's roots
// must account for its wall time, and their stall deltas for its stall.
func legRecon(tr *Tracer, kind testbed.EngineKind, leg int, ls *legSample) []reconRow {
	spans := tr.spans[ls.SpanLo:ls.SpanHi]
	// Re-base parent links onto the slice.
	local := make([]Span, len(spans))
	for i, sp := range spans {
		sp.ID -= int32(ls.SpanLo)
		if sp.Parent >= 0 {
			sp.Parent -= int32(ls.SpanLo)
		}
		local[i] = sp
	}
	self := selfTimes(local)
	var selfSum, txnStall, callStall int64
	for i, sp := range local {
		switch {
		case strings.HasPrefix(sp.Name, "leg."):
			// The root's self time is the loop between transactions; its
			// stall delta would double-count its children's.
		case sp.Name == "txn":
			txnStall += sp.StallNs
		default:
			callStall += sp.StallNs
		}
		selfSum += self[i]
	}
	what := fmt.Sprintf("%s %s: ", kind, legNames[leg])
	return []reconRow{
		{What: what + "span self times vs leg wall", Parts: float64(selfSum) / 1e6, Whole: float64(ls.WallNs) / 1e6, Tol: 0.02, Slack: 0.1, Unit: "ms"},
		{What: what + "txn span stall vs device stall", Parts: float64(txnStall), Whole: float64(ls.Dev.Stall), Unit: "ns"},
		{What: what + "engine-call span stall vs device stall", Parts: float64(callStall), Whole: float64(ls.Dev.Stall), Unit: "ns"},
	}
}

// netTrace is what the traced run keeps of the network legs.
type netTrace struct {
	tracedWall, plainWall int64
	plain                 [nLegs]legSample // the untraced halves
	recoverMs             float64          // crash to first acked GET, after the legs
	getUs, rmwUs          float64          // client.do / router.do latency of the traced read leg's GETs and write leg's RMWs (blockP50)
}

// tracedNet runs, on one fresh stack, the first half of every network leg
// untraced and the second half traced, then the crash and recovery.
func (r *runner) tracedNet(tr *Tracer) (*netTrace, error) {
	replica := r.workload == "cluster"
	sched := genNetSchedule(r.pol, replica, 2) // first half untraced, second half traced
	s, err := startStack(r.pol, replica)
	if err != nil {
		return nil, err
	}
	defer s.close()
	nt := &netTrace{}
	for pass, t := range []*Tracer{nil, tr} {
		for l, leg := range []struct {
			halves [][][]netOp
			check  func(*wire.Response) bool
		}{legRead: {sched.read, okFound}, legWrite: {sched.write, okStatus}, legTPCC: {sched.tpcc, okStatus}} {
			ls, failed := s.drive(legNames[l], leg.halves[pass], t, leg.check)
			r.attempted += int64(ls.Txns)
			r.failed += int64(failed)
			switch {
			case t == nil:
				nt.plainWall += ls.WallNs
				nt.plain[l] = ls
			case l == legRead:
				nt.getUs = blockP50(ls.Lat)
			case l == legWrite:
				// YCSB write-heavy also reads: keep the RMWs. Lat follows the
				// streams, partition after partition.
				var rmw []int64
				i := 0
				for _, ops := range leg.halves[pass] {
					for _, op := range ops {
						if op.req.Op == wire.OpRmw {
							rmw = append(rmw, ls.Lat[i])
						}
						i++
					}
				}
				nt.rmwUs = blockP50(rmw)
			}
			if t != nil {
				nt.tracedWall += ls.WallNs
			}
		}
	}
	for _, db := range s.dbs {
		if err := db.Flush(); err != nil {
			return nil, err
		}
	}
	ms, same, err := s.crashRecover()
	if err != nil {
		return nil, err
	}
	r.attempted++
	if !same {
		r.fail("%s: state digest changed across crash+recovery", netEngine)
	}
	nt.recoverMs = ms
	return nt, nil
}

// engineLayer derives one engine's per-layer metrics from one untraced
// repetition.
func engineLayer(m metricSet, es *repSample) {
	p := "engine." + string(es.Kind) + "."
	w := &es.Legs[legWrite]
	m.set(p+"read_txn_s", es.Legs[legRead].txnS())
	m.set(p+"write_txn_s", w.txnS())
	m.set(p+"tpcc_txn_s", es.Legs[legTPCC].txnS())
	m.set(p+"recover_ms", es.RecoverMs)
	m.set(p+"write_p999_us", percentileNs(w.Lat, 99.9))
	m.set(p+"loads_txn", float64(w.Dev.Loads)/float64(w.Txns))
	m.set(p+"stores_txn", float64(w.Dev.Stores)/float64(w.Txns))
	m.set(p+"fences_txn", float64(w.Dev.Fences)/float64(w.Txns))
	m.set(p+"wall_share", float64(w.WallNs)/float64(w.EffNs))
	total := float64(w.BD.Total())
	share := func(d core.Breakdown, pick func(core.Breakdown) float64) float64 {
		if total == 0 {
			return 0
		}
		return pick(d) / total
	}
	m.set(p+"storage_share", share(w.BD, func(b core.Breakdown) float64 { return float64(b.Storage) }))
	m.set(p+"recovery_share", share(w.BD, func(b core.Breakdown) float64 { return float64(b.Recovery) }))
	m.set(p+"index_share", share(w.BD, func(b core.Breakdown) float64 { return float64(b.Index) }))
}

// crossEngineLayer fills the metrics that span engines: the LSM pair's
// flush/compaction work and the Go runtime's cost per write transaction.
func crossEngineLayer(m metricSet, es map[testbed.EngineKind]*repSample) {
	var flushes, compactions, lsmTxns, slow int64
	var amp []float64
	for _, kind := range []testbed.EngineKind{testbed.Log, testbed.NVMLog} {
		w := &es[kind].Legs[legWrite]
		flushes += w.Flush.Flushes
		compactions += w.Flush.Compactions
		lsmTxns += int64(w.Txns)
		slow += w.slowNs()
		amp = append(amp, es[kind].VlogAmp)
	}
	m.set("lsm.flushes_ktxn", 1000*float64(flushes)/float64(lsmTxns))
	m.set("lsm.compactions_ktxn", 1000*float64(compactions)/float64(lsmTxns))
	m.set("lsm.stall_ms", float64(slow)/1e6)
	m.set("vlog.space_amp", geomean(amp))
	var mallocs, bytes, pause uint64
	var txns int
	for _, s := range es {
		w := &s.Legs[legWrite]
		mallocs, bytes, pause, txns = mallocs+w.Mallocs, bytes+w.Bytes, pause+w.GCPause, txns+w.Txns
	}
	m.set("go.allocs_txn", float64(mallocs)/float64(txns))
	m.set("go.alloc_bytes_txn", float64(bytes)/float64(txns))
	m.set("go.gc_pause_ms", float64(pause)/1e6)
}
