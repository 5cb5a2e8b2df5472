package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket edges: an observation at
// exactly an upper bound must land in the next bucket, so quantiles of a
// point mass bracket the true value from the right bucket's range.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d       time.Duration
		lowerNS int64 // inclusive lower edge of the expected bucket
		upperNS int64 // exclusive upper edge
	}{
		{0, 0, 1000},
		{999 * time.Nanosecond, 0, 1000},
		{1 * time.Microsecond, 1000, 2000}, // exact boundary → next bucket
		{1999 * time.Nanosecond, 1000, 2000},
		{2 * time.Microsecond, 2000, 4000},
		{1 * time.Millisecond, 1000 << 9, 1000 << 10},
		{1 * time.Second, 1000 << 19, 1000 << 20},
	}
	for _, c := range cases {
		var h Histogram
		h.Record(c.d)
		got := int64(h.Quantile(0.5))
		if got < c.lowerNS || got >= c.upperNS {
			t.Errorf("Record(%v): p50 = %dns, want within [%d, %d)", c.d, got, c.lowerNS, c.upperNS)
		}
	}
}

// TestHistogramQuantileInterpolation checks the linear interpolation inside
// a bucket: 100 observations spread across two buckets must place p50 near
// the boundary and p95 inside the upper bucket, in order.
func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	// 50 observations in [1µs, 2µs), 50 in [2µs, 4µs).
	for i := 0; i < 50; i++ {
		h.Record(1500 * time.Nanosecond)
		h.Record(3 * time.Microsecond)
	}
	p25, p50, p75 := h.Quantile(0.25), h.Quantile(0.50), h.Quantile(0.75)
	if !(p25 <= p50 && p50 <= p75) {
		t.Fatalf("quantiles not monotone: p25=%v p50=%v p75=%v", p25, p50, p75)
	}
	// p25 is the middle of the first bucket's mass → inside [1µs, 2µs).
	if p25 < time.Microsecond || p25 >= 2*time.Microsecond {
		t.Errorf("p25 = %v, want in [1µs, 2µs)", p25)
	}
	// p75 is the middle of the second bucket's mass → inside [2µs, 4µs).
	if p75 < 2*time.Microsecond || p75 >= 4*time.Microsecond {
		t.Errorf("p75 = %v, want in [2µs, 4µs)", p75)
	}
	// Interpolation, not bucket-edge snapping: p25 at half of bucket one
	// should sit near 1.5µs, strictly inside the bucket.
	if p25 == time.Microsecond {
		t.Errorf("p25 snapped to the bucket edge; interpolation is not happening")
	}
}

// TestHistogramEmpty covers the degenerate state.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
}

// TestConcurrentIncrement hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the scraper-safety proof, and
// the final counts must be exact.
func TestConcurrentIncrement(t *testing.T) {
	reg := New()
	c := reg.Counter("ops")
	g := reg.Gauge("depth")
	h := reg.Histogram("lat")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	// Concurrent scrapes while the writers run.
	for i := 0; i < 100; i++ {
		snap := reg.Snapshot()
		if snap.Counters["ops"] < 0 {
			t.Fatal("negative counter")
		}
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestSnapshotJSONSchema locks the serialized layout: schema version, the
// three sections, sorted keys, and the histogram summary fields.
func TestSnapshotJSONSchema(t *testing.T) {
	reg := New()
	reg.Counter("b_count").Add(2)
	reg.Counter("a_count").Add(1)
	reg.Gauge("depth").Set(1.5)
	reg.Histogram("lat").Record(3 * time.Microsecond)

	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema   int                `json:"schema"`
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Hists    map[string]struct {
			Count int64 `json:"count"`
			SumNS int64 `json:"sum_ns"`
			P50NS int64 `json:"p50_ns"`
			P95NS int64 `json:"p95_ns"`
			P99NS int64 `json:"p99_ns"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("snapshot does not round-trip: %v\n%s", err, raw)
	}
	if decoded.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", decoded.Schema, SchemaVersion)
	}
	if decoded.Counters["a_count"] != 1 || decoded.Counters["b_count"] != 2 {
		t.Errorf("counters wrong: %v", decoded.Counters)
	}
	if decoded.Gauges["depth"] != 1.5 {
		t.Errorf("gauge wrong: %v", decoded.Gauges)
	}
	lat := decoded.Hists["lat"]
	if lat.Count != 1 || lat.SumNS != 3000 || lat.P50NS == 0 {
		t.Errorf("histogram summary wrong: %+v", lat)
	}
	// Marshaling twice yields byte-identical output (stable schema).
	raw2, _ := json.Marshal(reg.Snapshot())
	if string(raw) != string(raw2) {
		t.Errorf("snapshot serialization unstable:\n%s\n%s", raw, raw2)
	}
}

// BenchmarkHistogramRecord measures the hot-path cost the serving layer
// pays per transaction (the ≤5% overhead budget).
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}
