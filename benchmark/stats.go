package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics (rank (n-1)q), without modifying vs. For the K = 5
// repetitions of a run the lower quartile is the second-fastest repetition.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

// lowQ is the estimator for every wall-clock quantity of a run: the lower
// quartile of its K whole repetitions (a fresh build, load and the whole
// schedule each). Noise on this box is one-sided (neighbours slow a sample
// down, nothing speeds it up), so the quartile on the fast side removes most
// of it while still being an order statistic of whole executions: work that
// every repetition pays (a compaction, a checkpoint, scheduling jitter the
// program itself causes) stays in. A rate is the count over lowQ of the time.
func lowQ(vs []float64) float64   { return quantile(vs, 0.25) }
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// relSpread is (p75-p25)/p50: the run-to-run spread the README's tables use.
func relSpread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return math.Abs((quantile(vs, 0.75) - quantile(vs, 0.25)) / m)
}

// geomean is the geometric mean; a workload with several engines reports it
// so that no engine's absolute scale dominates and a relative change on any
// engine moves the result equally.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// tailMeanNs is the mean of the slowest frac of the samples, in microseconds.
// TPC-C latencies are multi-modal (88 % light transactions, 8 % Delivery and
// StockLevel, and on the LSM engines 6 % that trigger a flush), so a single
// high percentile sits on the edge of one of those populations and jumps when
// the seed moves the mix by a percent; the mean beyond a quantile moves
// continuously instead.
func tailMeanNs(lat []int64, frac float64) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	n := max(int(math.Round(frac*float64(len(s)))), 1)
	var sum int64
	for _, v := range s[:n] {
		sum += v
	}
	return float64(sum) / float64(n) / 1e3
}

// percentileNs returns the p-th percentile (nearest rank) of latency samples
// in nanoseconds, as microseconds. It sorts a copy.
func percentileNs(lat []int64, p float64) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1 // the epsilon keeps 99.9 % of 1000 at rank 999
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return float64(s[rank]) / 1e3
}
