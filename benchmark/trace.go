package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Times are nanoseconds since the tracer started. Spans of one
// request share Req. The device counters are the nvm.Stats delta between the
// same two instants as Start and End, so ratios (stall per call, fences per
// commit) are measured where the work happens.
type Span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for a root
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Loads   uint64 `json:"loads,omitempty"`
	Stores  uint64 `json:"stores,omitempty"`
	Flushes uint64 `json:"flushes,omitempty"`
	Fences  uint64 `json:"fences,omitempty"`
	StallNs int64  `json:"stall_ns,omitempty"`
}

// Tracer keeps spans in memory until the run ends. Network legs record from
// one goroutine per partition, hence the mutex; it is uncontended in-process.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// lane is one goroutine's view of the tracer: a stack of open spans (the top
// is the parent of the next span) and, in-process, the device whose counters
// are sampled at span boundaries.
type lane struct {
	tr    *Tracer
	dev   *nvm.Device
	stack []int32
	open  []nvm.Stats // counters at the start of each open span
}

func (t *Tracer) lane(dev *nvm.Device) *lane { return &lane{tr: t, dev: dev} }

func (l *lane) begin(name string, req int64) {
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	var st nvm.Stats
	if l.dev != nil {
		st = l.dev.Stats()
	}
	l.tr.mu.Lock()
	id := int32(len(l.tr.spans))
	l.tr.spans = append(l.tr.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(l.tr.t0))})
	l.tr.mu.Unlock()
	l.stack = append(l.stack, id)
	l.open = append(l.open, st)
}

func (l *lane) end() {
	end := int64(time.Since(l.tr.t0))
	n := len(l.stack) - 1
	id, st0 := l.stack[n], l.open[n]
	l.stack, l.open = l.stack[:n], l.open[:n]
	var d nvm.Stats
	if l.dev != nil {
		d = l.dev.Stats().Sub(st0)
	}
	l.tr.mu.Lock()
	sp := &l.tr.spans[id]
	sp.End = end
	sp.Loads, sp.Stores, sp.Flushes, sp.Fences, sp.StallNs = d.Loads, d.Stores, d.Flushes, d.Fences, int64(d.Stall)
	l.tr.mu.Unlock()
}

// tracedEngine decorates a core.Engine so that every call across the engine
// boundary becomes a span under the lane's current parent. It lives in the
// benchmark: tracing inside the engines is a later issue.
type tracedEngine struct {
	e   core.Engine
	l   *lane
	req int64
}

func (t *tracedEngine) Name() string { return t.e.Name() }
func (t *tracedEngine) Begin() error {
	t.l.begin("engine.begin", t.req)
	defer t.l.end()
	return t.e.Begin()
}
func (t *tracedEngine) Commit() error {
	t.l.begin("engine.commit", t.req)
	defer t.l.end()
	return t.e.Commit()
}
func (t *tracedEngine) Abort() error {
	t.l.begin("engine.abort", t.req)
	defer t.l.end()
	return t.e.Abort()
}
func (t *tracedEngine) Insert(table string, key uint64, row []core.Value) error {
	t.l.begin("engine.insert", t.req)
	defer t.l.end()
	return t.e.Insert(table, key, row)
}
func (t *tracedEngine) Update(table string, key uint64, upd core.Update) error {
	t.l.begin("engine.update", t.req)
	defer t.l.end()
	return t.e.Update(table, key, upd)
}
func (t *tracedEngine) Delete(table string, key uint64) error {
	t.l.begin("engine.delete", t.req)
	defer t.l.end()
	return t.e.Delete(table, key)
}
func (t *tracedEngine) Get(table string, key uint64) ([]core.Value, bool, error) {
	t.l.begin("engine.get", t.req)
	defer t.l.end()
	return t.e.Get(table, key)
}
func (t *tracedEngine) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	t.l.begin("engine.scan_secondary", t.req)
	defer t.l.end()
	return t.e.ScanSecondary(table, index, sec, fn)
}
func (t *tracedEngine) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	t.l.begin("engine.scan_range", t.req)
	defer t.l.end()
	return t.e.ScanRange(table, from, to, fn)
}
func (t *tracedEngine) Flush() error {
	t.l.begin("engine.flush", t.req)
	defer t.l.end()
	return t.e.Flush()
}
func (t *tracedEngine) Breakdown() *core.Breakdown { return t.e.Breakdown() }
func (t *tracedEngine) Footprint() core.Footprint  { return t.e.Footprint() }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent and overlapping children (concurrent calls under one parent) are
// counted once, so self time is never negative and a parent's self time plus
// its children's covered time equals its duration.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		sp := &spans[i]
		dur := sp.End - sp.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range ks {
			s, e := spans[k].Start, spans[k].End
			if s < edge {
				s = edge
			}
			if e > sp.End {
				e = sp.End
			}
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[i] = dur - covered
	}
	return self
}

// write dumps the spans as one JSON document.
func (t *Tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
