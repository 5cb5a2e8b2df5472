package bench

import (
	"nstore/internal/nvm"
	"nstore/internal/workload/tpcc"
)

// TPCC runs the TPC-C benchmark for every engine and latency configuration:
// Fig. 8 (throughput per latency config) and Fig. 11 (NVM loads/stores).
func (r *Runner) TPCC() (Points, error) {
	var res Points
	cfg := r.tpccCfg()
	work := tpcc.Generate(cfg)
	for _, kind := range r.S.Engines {
		db, err := r.tpccDB(kind, nvm.ProfileDRAM, r.S.Options, cfg)
		if err != nil {
			return nil, err
		}
		// Warm-up pass (distinct seed so history keys never collide).
		warm := cfg
		warm.Seed = cfg.Seed + 777777
		if _, err := db.ExecuteSequential(tpcc.Generate(warm)); err != nil {
			return nil, err
		}
		for i, prof := range r.S.Latencies {
			db.SetLatency(prof)
			// Later latency runs re-execute a fresh copy of the workload
			// against the evolved database state; regenerate with a
			// distinct seed so history keys do not collide.
			w := work
			if i > 0 {
				c2 := cfg
				c2.Seed = cfg.Seed + int64(i)*1000003
				w = tpcc.Generate(c2)
			}
			m, err := measured(db, kind, "", "", prof.Name, w)
			if err != nil {
				return nil, err
			}
			res = append(res, m)
		}
	}

	r.section("Fig. 8 — TPC-C throughput (txn/sec)")
	w := r.tab()
	fprintf(w, "engine")
	for _, prof := range r.S.Latencies {
		fprintf(w, "\t%s", prof.Name)
	}
	fprintf(w, "\n")
	for _, kind := range r.S.Engines {
		fprintf(w, "%s", kind)
		for _, prof := range r.S.Latencies {
			if p := res.Find(kind, "", "", prof.Name); p != nil {
				fprintf(w, "\t%s", human(p.Throughput))
			} else {
				fprintf(w, "\t-")
			}
		}
		fprintf(w, "\n")
	}
	w.Flush()

	r.section("Fig. 11 — TPC-C NVM loads / stores / MB written (DRAM latency config)")
	w = r.tab()
	fprintf(w, "engine\tloads\tstores\tMB written\n")
	for _, kind := range r.S.Engines {
		if p := res.Find(kind, "", "", nvm.ProfileDRAM.Name); p != nil {
			fprintf(w, "%s\t%s\t%s\t%.1f\n", kind, human(float64(p.Loads)), human(float64(p.Stores)),
				float64(p.BytesWritten)/(1<<20))
		}
	}
	w.Flush()
	return res, nil
}
