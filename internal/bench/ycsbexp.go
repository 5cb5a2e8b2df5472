package bench

import (
	"fmt"

	"nstore/internal/nvm"
	"nstore/internal/workload/ycsb"
)

// YCSB runs the full sweep: engines x mixtures x skews x latency configs.
// The database is loaded once per (engine, mixture, skew) and the latency
// profile is switched between runs on separate copies of the fixed
// workload, matching §5.2's methodology.
//
// The result holds Figs. 5–7 (throughput per mixture, skew, and latency
// configuration) and Figs. 9–10 (NVM loads and stores).
func (r *Runner) YCSB() (Points, error) {
	var res Points
	for _, mix := range ycsb.Mixes {
		for _, skew := range ycsb.Skews {
			cfg := r.ycsbCfg(mix, skew)
			work := ycsb.Generate(cfg)
			for _, kind := range r.S.Engines {
				db, err := r.ycsbDB(kind, nvm.ProfileDRAM, r.S.Options, cfg)
				if err != nil {
					return nil, err
				}
				// Warm the simulated CPU cache and steady-state structures
				// so the first latency configuration is not biased cold.
				if _, err := db.ExecuteSequential(work); err != nil {
					return nil, err
				}
				for _, prof := range r.S.Latencies {
					db.SetLatency(prof)
					m, err := measured(db, kind, mix.Name, skew.Name, prof.Name, work)
					if err != nil {
						return nil, err
					}
					res = append(res, m)
				}
			}
		}
	}
	r.printYCSB(res)
	return res, nil
}

func (r *Runner) printYCSB(res Points) {
	// grid prints one engine x mixture/skew table of the points at lat.
	grid := func(title, lat string, cell func(*Measurement) string) {
		r.section(title)
		w := r.tab()
		fprintf(w, "engine")
		for _, mix := range ycsb.Mixes {
			for _, skew := range ycsb.Skews {
				fprintf(w, "\t%s/%s", mix.Name, skew.Name)
			}
		}
		fprintf(w, "\n")
		for _, kind := range r.S.Engines {
			fprintf(w, "%s", kind)
			for _, mix := range ycsb.Mixes {
				for _, skew := range ycsb.Skews {
					if p := res.Find(kind, mix.Name, skew.Name, lat); p != nil {
						fprintf(w, "\t%s", cell(p))
					} else {
						fprintf(w, "\t-")
					}
				}
			}
			fprintf(w, "\n")
		}
		w.Flush()
	}
	for _, prof := range r.S.Latencies {
		grid("Figs. 5-7 — YCSB throughput (txn/sec), latency config: "+prof.Name, prof.Name,
			func(p *Measurement) string { return human(p.Throughput) })
	}
	// Figs. 9-10: loads and stores under the DRAM-latency configuration.
	// Cells are loads/stores(cache-line write-backs)/MB-written(app bytes).
	grid("Figs. 9-10 — YCSB NVM loads / stores / MB written", nvm.ProfileDRAM.Name,
		func(p *Measurement) string {
			return fmt.Sprintf("%s/%s/%.0f", human(float64(p.Loads)), human(float64(p.Stores)),
				float64(p.BytesWritten)/(1<<20))
		})
}
