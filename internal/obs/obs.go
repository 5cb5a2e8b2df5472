// Package obs is the testbed's lock-cheap metrics layer: atomic counters
// and gauges, a fixed-bucket latency histogram with interpolated quantiles,
// and a Registry that snapshots every registered metric into a stable JSON
// schema. It exists because the paper's evidence is measurement (NVM
// loads/stores, the Fig. 9 execution-time breakdown, recovery latency) and
// the serving runtime needs the same numbers live, scraped from another
// goroutine while the partition executors keep committing.
//
// Concurrency contract: every mutation (Counter.Add, Gauge.Set,
// Histogram.Record) and every read (Value, Quantile, Registry.Snapshot) is
// safe from any goroutine. Hot-path cost is one or two uncontended atomic
// adds; no mutation ever takes a lock. The registry's own map is guarded by
// a mutex, but it is only touched at registration and snapshot time, never
// on the metric hot path.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion identifies the snapshot JSON layout. Consumers (the bench
// trajectory, scrape tooling) should reject snapshots with a different
// version rather than guessing at field meanings.
const SchemaVersion = 1

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0 to keep it monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of every Histogram. Bucket i covers
// latencies in [upper(i-1), upper(i)) with upper(i) = 1µs << i, so the
// range spans [0, ~550s) in factor-of-two steps; the last bucket is
// unbounded. Fixed buckets keep Record allocation-free and mergeable.
const histBuckets = 40

// histUpperNS returns the exclusive upper bound of bucket i in nanoseconds.
func histUpperNS(i int) int64 { return 1000 << uint(i) }

// Histogram is a fixed-bucket latency histogram. Record is wait-free (two
// atomic adds and one atomic increment); quantiles are computed on demand
// from a bucket walk with linear interpolation inside the landing bucket.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Bucket index: smallest i with ns < 1000<<i, i.e. the bit length of
	// ns/1000 (ns < 1µs lands in bucket 0).
	idx := bits.Len64(uint64(ns) / 1000)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumNS returns the sum of recorded observations in nanoseconds.
func (h *Histogram) SumNS() int64 { return h.sumNS.Load() }

// Quantile returns the q-quantile (0 < q <= 1) of the recorded
// distribution, linearly interpolated within the landing bucket. It returns
// 0 when nothing has been recorded. Under concurrent Record calls the
// result is a consistent-enough approximation: each bucket is read once,
// atomically, in ascending order.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lower := int64(0)
			if i > 0 {
				lower = histUpperNS(i - 1)
			}
			upper := histUpperNS(i)
			if i == histBuckets-1 {
				// Unbounded last bucket: report its lower edge rather than
				// inventing a width.
				return time.Duration(lower)
			}
			frac := (target - cum) / float64(c)
			return time.Duration(lower + int64(frac*float64(upper-lower)))
		}
		cum += float64(c)
	}
	return time.Duration(histUpperNS(histBuckets - 2))
}

// Snapshot is the stable JSON schema every scrape and bench artifact uses.
// Counters are monotonic within one process lifetime unless the metric's
// name documents otherwise (per-engine counters reset when a partition
// heals and its engine is rebuilt); gauges are instantaneous; histogram
// quantiles are nanoseconds.
type Snapshot struct {
	Schema     int                     `json:"schema"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// HistSnapshot is one histogram's summary inside a Snapshot.
type HistSnapshot struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
}

// Registry names metrics and snapshots them together. Metrics register
// either as owned objects (Counter/Gauge/Histogram) or as read callbacks
// (CounterFunc/GaugeFunc) for layers that already keep their own atomic
// counters — the device, the WAL — so no value is ever double-counted.
type Registry struct {
	mu       sync.Mutex
	counters map[string]func() int64
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]func() int64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter registers and returns a new owned counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, c.Value)
	return c
}

// CounterFunc registers a counter read through fn at snapshot time. fn must
// be safe to call from any goroutine.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = fn
}

// Gauge registers and returns a new owned gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, g.Value)
	return g
}

// GaugeFunc registers a gauge read through fn at snapshot time. fn must be
// safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Histogram registers and returns a new histogram (idempotent per name:
// registering the same name again returns the existing histogram).
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Snapshot reads every registered metric. encoding/json marshals map keys
// in sorted order, so the serialized form is stable across scrapes.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Schema:     SchemaVersion,
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, fn := range r.counters {
		s.Counters[name] = fn()
	}
	for name, fn := range r.gauges {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistSnapshot{
			Count: h.Count(),
			SumNS: h.SumNS(),
			P50NS: int64(h.Quantile(0.50)),
			P95NS: int64(h.Quantile(0.95)),
			P99NS: int64(h.Quantile(0.99)),
		}
	}
	return s
}
