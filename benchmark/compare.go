package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload x metric row.
const (
	vOK         = "ok"
	vImproved   = "improved"
	vRegression = "REGRESSION"
	vUnresolved = "unresolved"
	vMissing    = "missing"
	vInfo       = "-" // per-layer or demoted metric: no bound, never gates
)

type sideStats struct {
	n             int
	p25, p50, p75 float64
	spread        float64 // (p75-p25)/p50
}

func summarize(vs []float64) sideStats {
	return sideStats{n: len(vs), p25: quantile(vs, 0.25), p50: median(vs), p75: quantile(vs, 0.75), spread: relSpread(vs)}
}

// judge applies a metric's direction and bound to the two sides' medians.
// worse is the relative worsening of the new median (negative = better). A
// worsening beyond the bound is a regression whatever the spread; otherwise a
// spread wider than the bound on either side means the runs cannot tell, and
// the row is unresolved rather than ok.
func judge(def metricDef, old, new sideStats) (verdict string, worse float64) {
	if old.n == 0 || new.n == 0 {
		return vMissing, 0
	}
	if old.p50 != 0 {
		worse = (new.p50 - old.p50) / math.Abs(old.p50)
	}
	if def.Better == "higher" {
		worse = -worse
	}
	if def.Bound == 0 {
		return vInfo, worse
	}
	spread := math.Max(old.spread, new.spread)
	switch {
	case worse > def.Bound:
		return vRegression, worse
	case spread > def.Bound:
		return vUnresolved, worse
	case worse < -spread && worse < 0:
		return vImproved, worse
	}
	return vOK, worse
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

type sideKey struct {
	workload, metric string
}

func collect(recs []record) (vals map[sideKey][]float64, failed map[string]int64) {
	vals = make(map[sideKey][]float64)
	failed = make(map[string]int64)
	for _, rec := range recs {
		failed[rec.Workload] += rec.Result.Failed
		for _, ms := range []map[string]metricValue{rec.Result.Metrics, rec.Info} {
			for name, mv := range ms {
				k := sideKey{rec.Workload, name}
				vals[k] = append(vals[k], mv.Value)
			}
		}
	}
	return vals, failed
}

// compareFiles prints one row per workload x metric and returns the exit
// code: 1 on a regression or when the new side failed more operations.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRecs, err := readRecords(oldPath)
	if err == nil && len(oldRecs) == 0 {
		err = fmt.Errorf("%s: no runs", oldPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	newRecs, err := readRecords(newPath)
	if err == nil && len(newRecs) == 0 {
		err = fmt.Errorf("%s: no runs", newPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	oldVals, oldFailed := collect(oldRecs)
	newVals, newFailed := collect(newRecs)

	bad := 0
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told p25/p50/p75 (n)\tnew p25/p50/p75 (n)\tworse\tbound\tverdict")
	defs := append(append(append([]metricDef(nil), endToEndDefs...), wallClockDefs...), perLayerDefs()...)
	for _, w := range workloadDefs {
		for _, def := range defs {
			k := sideKey{w.Name, def.Name}
			if len(oldVals[k]) == 0 && len(newVals[k]) == 0 {
				continue
			}
			o, n := summarize(oldVals[k]), summarize(newVals[k])
			verdict, worse := judge(def, o, n)
			if verdict == vRegression || (verdict == vMissing && def.Bound != 0) {
				bad++
			}
			bound := "-"
			if def.Bound != 0 {
				bound = fmt.Sprintf("%.0f%%", def.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g (%d)\t%.4g/%.4g/%.4g (%d)\t%+.1f%%\t%s\t%s\n",
				w.Name, def.Name, def.Unit, o.p25, o.p50, o.p75, o.n, n.p25, n.p50, n.p75, n.n, worse*100, bound, verdict)
		}
		if newFailed[w.Name] > oldFailed[w.Name] {
			bad++
			fmt.Fprintf(tw, "%s\tops_failed\tcount\t%d\t%d\t\t\t%s\n", w.Name, oldFailed[w.Name], newFailed[w.Name], vRegression)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression")
	return 0
}
