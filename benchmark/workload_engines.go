package main

import (
	"fmt"

	"nstore/internal/testbed"
)

// legStats are one leg's wall-clock estimators: each the lower quartile, over
// the K repetitions, of the value one whole execution of the leg gave.
type legStats struct {
	txnS   float64 // transactions / the leg's time
	p50    float64 // us
	p95    float64 // us
	p99    float64 // us
	tail10 float64 // mean of the slowest tenth, us
}

func legE2E(samples []*legSample) legStats {
	over := func(f func(*legSample) float64) float64 {
		vs := make([]float64, len(samples))
		for i, s := range samples {
			vs[i] = f(s)
		}
		return lowQ(vs)
	}
	pct := func(p float64) float64 {
		return over(func(s *legSample) float64 { return percentileNs(s.Lat, p) })
	}
	return legStats{
		txnS: float64(samples[0].Txns) / over(func(s *legSample) float64 { return float64(s.EffNs) / 1e9 }),
		p50:  pct(50), p95: pct(95), p99: pct(99),
		tail10: over(func(s *legSample) float64 { return tailMeanNs(s.Lat, 0.10) }),
	}
}

// setLegMetrics writes the wall-clock metrics of the three legs.
func setLegMetrics(m metricSet, read, write, tpcc legStats) {
	m.set("read_txn_s", read.txnS)
	m.set("write_txn_s", write.txnS)
	m.set("write_p95_us", write.p95)
	m.set("tpcc_txn_s", tpcc.txnS)
	m.set("tpcc_tail_us", tpcc.tail10)
}

// deviceE2E derives the exact device metrics from one write-leg sample.
func deviceE2E(m metricSet, w *legSample, userBytes, footprint, live int64) {
	m.set("dev_us_txn", float64(w.Dev.Stall)/1e3/float64(w.Txns))
	m.set("write_amp", float64(w.Dev.Stores)*64/float64(userBytes))
	m.set("space_amp", float64(footprint)/float64(live))
}

// repsE2E computes the metrics of one engine, or of one server stack, from its
// K repetitions. Counts come from repetition 1 (the caller has compared the
// others with it).
func repsE2E(reps []*repSample, userBytes int64) metricSet {
	m := metricSet{}
	leg := func(l int) (out []*legSample) {
		for _, r := range reps {
			out = append(out, &r.Legs[l])
		}
		return out
	}
	setLegMetrics(m, legE2E(leg(legRead)), legE2E(leg(legWrite)), legE2E(leg(legTPCC)))
	var rec, heap []float64
	for _, s := range reps {
		rec = append(rec, s.RecoverMs)
		heap = append(heap, s.HeapMB)
	}
	m.set("recover_ms", lowQ(rec))
	m.set("heap_mb", median(heap))
	deviceE2E(m, &reps[0].Legs[legWrite], userBytes, reps[0].Footprint, reps[0].LiveBytes)
	return m
}

// driftWarn is the device-counter drift above which a repetition is noted in
// the log. It never fails a run: the drift comes from map-ordered choices in
// the engines (README "Determinism"), and log reaches 10 % on some seeds.
const driftWarn = 0.01

// engineWorkload runs an in-process engine workload: K repetitions, each a
// fresh build of every engine in turn, so that the samples of one engine are
// spread over the whole run instead of taken back to back.
func (r *runner) engineWorkload(kinds []testbed.EngineKind) (metricSet, error) {
	sched := genSchedules(r.pol)
	byEngine := make(map[testbed.EngineKind][]*repSample)
	var setups []float64
	for rep := 0; rep < r.pol.Reps; rep++ {
		setup := 0.0
		var first *repSample
		for _, kind := range kinds {
			es, err := runEngineRep(r.pol, kind, &sched, nil)
			if err != nil {
				return nil, err
			}
			r.count(es)
			setup += es.SetupS
			if rep > 0 {
				mm, drift := counterDrift(byEngine[kind][0], es)
				if mm != "" {
					r.fail("%s: repetition %d differs from repetition 1 in %s", kind, rep+1, mm)
				}
				if drift > driftWarn {
					r.logf("note %s: repetition %d device counters drifted %.2g from repetition 1", kind, rep+1, drift)
				}
			}
			if first == nil {
				first = es
			} else if es.Digest != first.Digest {
				r.fail("%s and %s ended repetition %d in different states", first.Kind, kind, rep+1)
			}
			byEngine[kind] = append(byEngine[kind], es)
			r.logRep(rep, es)
		}
		setups = append(setups, setup)
	}
	out := metricSet{"setup_s": lowQ(setups)}
	per := make(map[string][]float64)
	for _, kind := range kinds {
		for name, v := range repsE2E(byEngine[kind], sched.userBytes) {
			per[name] = append(per[name], v)
		}
	}
	for name, vs := range per {
		out.set(name, geomean(vs))
	}
	return out, nil
}

func (r *runner) logRep(rep int, es *repSample) {
	r.logf("rep %d %-8s setup %.2fs read %.0f/s write %.0f/s tpcc %.0f/s recover %.0fms", rep+1, es.Kind,
		es.SetupS, es.Legs[legRead].txnS(), es.Legs[legWrite].txnS(), es.Legs[legTPCC].txnS(), es.RecoverMs)
}

// count folds one engine repetition into the run's attempted/failed totals.
func (r *runner) count(es *repSample) {
	for l := range es.Legs {
		r.attempted += int64(es.Legs[l].Txns)
	}
	r.attempted++ // the crash+recovery digest check
	if es.DigestMoved {
		r.fail("%s: state digest changed across crash+recovery", es.Kind)
	}
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.logf("FAIL "+format, args...)
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}
