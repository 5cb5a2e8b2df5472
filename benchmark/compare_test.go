package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one record per value: runs of workload w whose only
// metrics are the given ones.
func writeRuns(t *testing.T, path, w string, failed int64, metrics map[string][]float64) {
	t.Helper()
	n := 0
	for _, vs := range metrics {
		n = len(vs)
	}
	for i := 0; i < n; i++ {
		res := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
		for name, vs := range metrics {
			res.Metrics[name] = metricValue{Value: vs[i], Unit: "x"}
		}
		if err := appendRecord(path, record{Workload: w, Seed: int64(i), Result: res}); err != nil {
			t.Fatal(err)
		}
	}
}

func runCompare(t *testing.T, oldM, newM map[string][]float64, oldFailed, newFailed int64) (int, string) {
	t.Helper()
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	writeRuns(t, oldP, "wire", oldFailed, oldM)
	writeRuns(t, newP, "wire", newFailed, newM)
	var out, errb bytes.Buffer
	code := compareFiles(oldP, newP, &out, &errb)
	if errb.Len() > 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return code, out.String()
}

func rowOf(out, metric string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " "+metric+" ") {
			return line
		}
	}
	return ""
}

func TestCompareImprovement(t *testing.T) {
	// heap_mb is lower-is-better; -20 % with runs that agree to 1 %.
	code, out := runCompare(t,
		map[string][]float64{"heap_mb": {1000, 1010, 990, 1005, 995}},
		map[string][]float64{"heap_mb": {800, 810, 790, 805, 795}}, 0, 0)
	if code != 0 {
		t.Errorf("exit %d, want 0\n%s", code, out)
	}
	if row := rowOf(out, "heap_mb"); !strings.Contains(row, vImproved) {
		t.Errorf("row %q, want verdict %q", row, vImproved)
	}
}

func TestCompareRegression(t *testing.T) {
	// setup_s is lower-is-better with a 25 % bound; +40 % is over it.
	code, out := runCompare(t,
		map[string][]float64{"setup_s": {100, 101, 99, 100, 100}},
		map[string][]float64{"setup_s": {140, 141, 139, 140, 140}}, 0, 0)
	if code != 1 {
		t.Errorf("exit %d, want 1\n%s", code, out)
	}
	if row := rowOf(out, "setup_s"); !strings.Contains(row, vRegression) {
		t.Errorf("row %q, want verdict %q", row, vRegression)
	}
}

func TestCompareWithinBoundIsOK(t *testing.T) {
	code, out := runCompare(t,
		map[string][]float64{"setup_s": {100, 101, 99, 100, 100}},
		map[string][]float64{"setup_s": {104, 105, 103, 104, 104}}, 0, 0)
	if code != 0 {
		t.Errorf("exit %d, want 0\n%s", code, out)
	}
	if row := rowOf(out, "setup_s"); !strings.Contains(row, vOK) {
		t.Errorf("row %q, want verdict %q", row, vOK)
	}
}

func TestCompareUnresolved(t *testing.T) {
	// Medians within the bound, but the runs spread by 40 %, wider than the
	// 25 % bound: the runs cannot tell.
	code, out := runCompare(t,
		map[string][]float64{"setup_s": {80, 90, 100, 120, 130}},
		map[string][]float64{"setup_s": {82, 92, 103, 121, 133}}, 0, 0)
	if code != 0 {
		t.Errorf("exit %d, want 0: unresolved is not a regression\n%s", code, out)
	}
	if row := rowOf(out, "setup_s"); !strings.Contains(row, vUnresolved) {
		t.Errorf("row %q, want verdict %q", row, vUnresolved)
	}
}

func TestCompareMoreFailedOps(t *testing.T) {
	same := map[string][]float64{"setup_s": {100, 100, 100}}
	code, out := runCompare(t, same, same, 0, 2)
	if code != 1 || !strings.Contains(out, "ops_failed") {
		t.Errorf("exit %d, want 1 with an ops_failed row\n%s", code, out)
	}
}

func TestComparePerLayerAndDemotedNeverGate(t *testing.T) {
	code, out := runCompare(t,
		map[string][]float64{"mvcc.read_ns": {100, 100, 100}, "read_txn_s": {1000, 1000, 1000}},
		map[string][]float64{"mvcc.read_ns": {300, 300, 300}, "read_txn_s": {500, 500, 500}}, 0, 0)
	if code != 0 {
		t.Errorf("exit %d, want 0: metrics without a bound never gate\n%s", code, out)
	}
	if row := rowOf(out, "mvcc.read_ns"); !strings.Contains(row, "+200.0%") {
		t.Errorf("row %q, want the change printed", row)
	}
	// Higher is better: half the throughput is 50 % worse.
	if row := rowOf(out, "read_txn_s"); !strings.Contains(row, "+50.0%") {
		t.Errorf("row %q, want the change printed sign-corrected", row)
	}
}

func TestCompareRejectsMissingAndEmptyFiles(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := compareFiles(filepath.Join(dir, "nope"), filepath.Join(dir, "nope2"), &out, &errb); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
