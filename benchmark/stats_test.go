package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	five := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		q, want float64
	}{{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}} {
		if got := quantile(five, c.q); !near(got, c.want) {
			t.Errorf("quantile(five, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if five[0] != 50 {
		t.Error("quantile sorted its argument in place")
	}
	// Six rounds: rank (n-1)q = 1.25 interpolates between the 2nd and 3rd.
	six := []float64{1, 2, 3, 4, 5, 6}
	if got := lowQ(six); !near(got, 2.25) {
		t.Errorf("lowQ(six) = %v, want 2.25", got)
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestLowQuartileDropsSlowOutliers(t *testing.T) {
	// One-sided noise: two of five repetitions were slowed by a neighbour.
	reps := []float64{100, 101, 99, 140, 180}
	if got := lowQ(reps); got > 100 {
		t.Errorf("lowQ = %v, want the second-fastest repetition (100)", got)
	}
}

func TestLegE2EIsLowerQuartileOfWholeRepetitions(t *testing.T) {
	// Five executions of one 4-transaction leg. The third transaction is slow
	// in every repetition because the work itself is (a compaction): it stays
	// in. Repetitions 4 and 5 were slowed as a whole and are dropped.
	mk := func(effUs int64, slow int64) *legSample {
		return &legSample{Txns: 4, EffNs: effUs * 1000, Lat: []int64{1000, 1000, slow, 1000}}
	}
	reps := []*legSample{mk(100, 50_000), mk(104, 52_000), mk(102, 51_000), mk(150, 90_000), mk(190, 95_000)}
	got := legE2E(reps)
	if want := 4 / 102e-6; !near(got.txnS, want) {
		t.Errorf("txn/s = %v, want %v (the second-fastest whole repetition)", got.txnS, want)
	}
	if !near(got.p99, 51) {
		t.Errorf("p99 = %v us, want 51 (lower quartile of the repetitions' own p99s)", got.p99)
	}
	if !near(got.p50, 1) {
		t.Errorf("p50 = %v us, want 1", got.p50)
	}
}

func TestRelSpread(t *testing.T) {
	if got := relSpread([]float64{90, 100, 110, 95, 105}); !near(got, 0.10) {
		t.Errorf("relSpread = %v, want 0.10", got)
	}
	if got := relSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relSpread of zeros = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	// A 10 % change on any one engine moves the result by the same factor,
	// whatever that engine's absolute scale.
	base := geomean([]float64{100, 10000, 5})
	for i := 0; i < 3; i++ {
		vs := []float64{100, 10000, 5}
		vs[i] *= 1.1
		if got := geomean(vs) / base; !near(got, math.Pow(1.1, 1.0/3)) {
			t.Errorf("engine %d: ratio %v, want %v", i, got, math.Pow(1.1, 1.0/3))
		}
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestTailMeanNs(t *testing.T) {
	lat := make([]int64, 100)
	for i := range lat {
		lat[i] = int64(i+1) * 1000 // 1..100 us
	}
	if got := tailMeanNs(lat, 0.10); !near(got, 95.5) { // mean of 91..100
		t.Errorf("tail mean = %v us, want 95.5", got)
	}
	if got := tailMeanNs([]int64{7000}, 0.10); !near(got, 7) {
		t.Errorf("tail mean of one sample = %v us, want 7", got)
	}
	// Moving one transaction across the 90 % boundary moves the tail mean a
	// little; a p90 would jump from one population to the other.
	a := append(make([]int64, 0, 100), lat...)
	a[89] = 91000 // now 11 samples at or above 91 us
	if got := tailMeanNs(a, 0.10); !near(got, 95.5) {
		t.Errorf("tail mean after the move = %v us, want 95.5", got)
	}
}

func TestPercentileNs(t *testing.T) {
	lat := make([]int64, 1000)
	for i := range lat {
		lat[i] = int64(1000-i) * 1000 // 1..1000 us, descending
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentileNs(lat, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v us, want %v", c.p, got, c.want)
		}
	}
	if lat[0] != 1000000 {
		t.Error("percentileNs sorted its argument in place")
	}
}
