// Package nvm emulates a byte-addressable non-volatile memory device with a
// volatile CPU cache in front of it, following the Intel Labs hardware
// emulator used in the paper (Dulloor et al., EuroSys 2014).
//
// The device is a flat arena of bytes (the durable medium). All application
// loads and stores go through a set-associative write-back cache simulation.
// A store is NOT durable until its cache line is written back, either by an
// explicit WriteBack (CLWB) — or a WriteStream that bypasses the cache —
// followed by Fence (SFENCE), or by an eviction (the memory controller may
// evict cache lines, and drain its own buffer, at any time). Crash discards
// the cache and the controller's buffer, so only fenced or evicted bytes
// survive — exactly the durability hazard NVM-aware recovery protocols must
// handle.
//
// The device also keeps the perf counters the paper reads (NVM loads =
// line fills from the medium, NVM stores = line write-backs to the medium)
// and a simulated stall clock that accrues the extra latency NVM adds over
// DRAM. Throughput experiments report txns / (wall time + stall).
//
// Ownership rule: data-path operations (Read, Write, WriteStream, WriteBack,
// Fence, Sync, Crash, EvictAll, fault arming) belong to a single owner goroutine —
// the testbed gives each database partition its own device and executes its
// transactions serially. The observation and tuning surface — Stats,
// ResetStats, Config, SetLatency, SetSyncExtra, AddStall — is safe to call
// from any goroutine (atomic counters, mutex-guarded config), so a metrics
// scraper or latency sweep may run concurrently with the owner.
package nvm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LineSize is the cache line granularity of the simulated CPU cache.
const LineSize = 64

// Config describes the emulated device and its latency profile.
type Config struct {
	// Size is the capacity of the NVM arena in bytes.
	Size int64
	// CacheSize is the total capacity of the volatile CPU cache in bytes.
	CacheSize int
	// CacheAssoc is the cache associativity (ways per set).
	CacheAssoc int

	// ReadMissExtra is the additional latency, relative to DRAM, charged for
	// every cache line filled from NVM.
	ReadMissExtra time.Duration
	// WriteBackExtra is the additional latency charged for every cache line
	// written back to NVM (bandwidth model).
	WriteBackExtra time.Duration
	// FlushLineCost is the cost of a CLFLUSH/CLWB instruction per line.
	FlushLineCost time.Duration
	// FenceCost is the cost of an SFENCE instruction.
	FenceCost time.Duration
	// SyncExtra is additional latency charged per Fence, used to emulate the
	// PCOMMIT-style sync primitive latencies of Appendix C.
	SyncExtra time.Duration
}

// DefaultConfig returns a device configuration with the DRAM latency profile
// and a cache sized proportionally to the paper's 20 MB L3.
func DefaultConfig(size int64) Config {
	c := Config{
		Size:       size,
		CacheSize:  4 << 20,
		CacheAssoc: 8,
	}
	ProfileDRAM.Apply(&c)
	return c
}

// Stats holds the device's perf counters, mirroring what the paper collects
// with the Linux perf framework on the hardware emulator.
type Stats struct {
	// Loads is the number of cache lines filled from the NVM medium.
	Loads uint64
	// Stores is the number of cache lines written back to the NVM medium
	// (explicit flushes plus dirty evictions).
	Stores uint64
	// Flushes is the number of CLFLUSH/CLWB line operations issued.
	Flushes uint64
	// Fences is the number of SFENCE operations issued.
	Fences uint64
	// BytesRead and BytesWritten count application-level access volume
	// (before the cache), used for write-amplification analysis.
	BytesRead    uint64
	BytesWritten uint64
	// Stall is the accumulated simulated extra latency of NVM over DRAM.
	Stall time.Duration
}

// Sub returns the difference s - prev, counter by counter.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Loads:        s.Loads - prev.Loads,
		Stores:       s.Stores - prev.Stores,
		Flushes:      s.Flushes - prev.Flushes,
		Fences:       s.Fences - prev.Fences,
		BytesRead:    s.BytesRead - prev.BytesRead,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
		Stall:        s.Stall - prev.Stall,
	}
}

// Add returns the sum s + o, counter by counter.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Loads:        s.Loads + o.Loads,
		Stores:       s.Stores + o.Stores,
		Flushes:      s.Flushes + o.Flushes,
		Fences:       s.Fences + o.Fences,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
		Stall:        s.Stall + o.Stall,
	}
}

// deviceStats holds the live perf counters in atomic cells so a metrics
// scraper can snapshot or reset them while the owner goroutine keeps
// driving data operations.
type deviceStats struct {
	loads        atomic.Uint64
	stores       atomic.Uint64
	flushes      atomic.Uint64
	fences       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	stallNS      atomic.Int64
}

// latCells mirrors the Config latency fields in atomic nanosecond cells.
// Hot-path operations charge stall from these instead of reading d.cfg, so
// SetLatency/SetSyncExtra can retune a live device without racing them.
type latCells struct {
	readMiss  atomic.Int64
	writeBack atomic.Int64
	flushLine atomic.Int64
	fence     atomic.Int64
	syncExtra atomic.Int64
}

// Device is an emulated NVM device.
type Device struct {
	// cfgMu guards cfg against live mutation (SetLatency, SetSyncExtra)
	// racing Config snapshots. Data paths never take it: the latency costs
	// they charge are mirrored in lat. cfg.Size is immutable after NewDevice
	// and may be read without the lock.
	cfgMu sync.Mutex
	cfg   Config
	lat   latCells
	data  []byte // the durable medium
	cache cache
	stats deviceStats
	// pending buffers written-back lines inside the "memory controller": a
	// CLWB'd or streamed line is not durable until an SFENCE drains it (§2.3:
	// "otherwise this data might still be buffered in the memory controller
	// and lost in case of a power failure").
	pending     ctrlBuffer
	syncCLFLUSH bool // ablation A1: Sync invalidates (CLFLUSH) instead of retaining (CLWB)
	// Fault injection (see fault.go).
	plan      FaultPlan
	planSet   bool // a plan is installed; Crash applies its effects
	planArmed bool // the plan's fence-countdown crash trigger is live
	fenceNoop bool // simulated protocol bug: Fence loses its durability effect
	dropFence int  // simulated protocol bug: the dropFence-th Fence from now drains nothing (0 = none)
}

// ErrInjectedCrash is the panic value raised by fault injection (see
// FailAfterFences). Tests recover it, call Crash, and re-open.
type injectedCrash struct{}

func (injectedCrash) Error() string { return "nvm: injected crash" }

// ErrInjectedCrash is the value panicked by an armed fault injection.
var ErrInjectedCrash error = injectedCrash{}

// FailAfterFences arms fault injection: after n further Fence calls, the
// next Fence panics with ErrInjectedCrash before ordering its flushes,
// simulating a power failure at an arbitrary durability boundary. It is the
// legacy spelling of InjectFaults with the lose-all fault mode.
func (d *Device) FailAfterFences(n int) {
	d.InjectFaults(FaultPlan{Mode: FaultLoseAll, CrashAfterFences: n})
}

// DisarmFail cancels pending fault injection.
func (d *Device) DisarmFail() { d.ClearFaults() }

// NewDevice creates a device with the given configuration.
func NewDevice(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("nvm: device size must be positive")
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4 << 20
	}
	if cfg.CacheAssoc <= 0 {
		cfg.CacheAssoc = 8
	}
	d := &Device{
		cfg:     cfg,
		data:    make([]byte, cfg.Size),
		pending: ctrlBuffer{slot: make(map[int64]int32), limit: ctrlLines},
	}
	d.cache.init(cfg.CacheSize, cfg.CacheAssoc)
	d.refreshLatency()
	return d
}

// refreshLatency republishes cfg's latency fields into the atomic mirrors.
// Callers must hold cfgMu (or be the constructor).
func (d *Device) refreshLatency() {
	d.lat.readMiss.Store(int64(d.cfg.ReadMissExtra))
	d.lat.writeBack.Store(int64(d.cfg.WriteBackExtra))
	d.lat.flushLine.Store(int64(d.cfg.FlushLineCost))
	d.lat.fence.Store(int64(d.cfg.FenceCost))
	d.lat.syncExtra.Store(int64(d.cfg.SyncExtra))
}

// Size returns the capacity of the arena in bytes.
func (d *Device) Size() int64 { return d.cfg.Size }

// Config returns the device configuration. Safe from any goroutine.
func (d *Device) Config() Config {
	d.cfgMu.Lock()
	defer d.cfgMu.Unlock()
	return d.cfg
}

// Stats returns a snapshot of the perf counters. Safe from any goroutine;
// concurrent with the owner's data operations the snapshot is per-counter
// consistent (each cell read atomically), which is what a scraper needs.
func (d *Device) Stats() Stats {
	return Stats{
		Loads:        d.stats.loads.Load(),
		Stores:       d.stats.stores.Load(),
		Flushes:      d.stats.flushes.Load(),
		Fences:       d.stats.fences.Load(),
		BytesRead:    d.stats.bytesRead.Load(),
		BytesWritten: d.stats.bytesWritten.Load(),
		Stall:        time.Duration(d.stats.stallNS.Load()),
	}
}

// ResetStats zeroes the perf counters. Safe from any goroutine.
func (d *Device) ResetStats() {
	d.stats.loads.Store(0)
	d.stats.stores.Store(0)
	d.stats.flushes.Store(0)
	d.stats.fences.Store(0)
	d.stats.bytesRead.Store(0)
	d.stats.bytesWritten.Store(0)
	d.stats.stallNS.Store(0)
}

// SetLatency swaps the latency profile of a live device. Used by experiments
// that sweep NVM latency on the same loaded database. Safe from any
// goroutine: in-flight operations on the owner thread charge either the old
// or the new cost.
func (d *Device) SetLatency(p Profile) {
	d.cfgMu.Lock()
	defer d.cfgMu.Unlock()
	p.Apply(&d.cfg)
	d.refreshLatency()
}

// SetSyncExtra sets the additional per-fence latency (Appendix C sweep).
// Safe from any goroutine.
func (d *Device) SetSyncExtra(lat time.Duration) {
	d.cfgMu.Lock()
	defer d.cfgMu.Unlock()
	d.cfg.SyncExtra = lat
	d.refreshLatency()
}

// SetSyncCLWB selects the sync primitive's flush instruction. The default
// (on) is CLWB — write back, retain the line clean in the cache — which
// Appendix C recommends because the next access to a just-synced line hits.
// Off is the CLFLUSH (write back and invalidate) side of ablation A1.
func (d *Device) SetSyncCLWB(on bool) { d.syncCLFLUSH = !on }

func (d *Device) checkRange(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.Size {
		panic(fmt.Sprintf("nvm: access [%d,%d) out of range (size %d)", off, off+int64(n), d.cfg.Size))
	}
}

// lineSpan returns the line-aligned bounds [first, last) of the cache lines
// overlapping [off, off+n), after checking the range.
func (d *Device) lineSpan(off int64, n int) (first, last int64) {
	d.checkRange(off, n)
	return off &^ (LineSize - 1), (off + int64(n) + LineSize - 1) &^ (LineSize - 1)
}

// Read copies len(p) bytes at offset off into p, through the cache.
func (d *Device) Read(off int64, p []byte) {
	d.checkRange(off, len(p))
	d.stats.bytesRead.Add(uint64(len(p)))
	for len(p) > 0 {
		line := off &^ (LineSize - 1)
		lo := int(off - line)
		n := LineSize - lo
		if n > len(p) {
			n = len(p)
		}
		buf := d.lineFor(line, false)
		copy(p[:n], buf[lo:lo+n])
		p = p[n:]
		off += int64(n)
	}
}

// Write copies p to offset off, through the cache. The write is volatile
// until the covered lines are flushed (or evicted).
func (d *Device) Write(off int64, p []byte) {
	d.checkRange(off, len(p))
	d.stats.bytesWritten.Add(uint64(len(p)))
	for len(p) > 0 {
		line := off &^ (LineSize - 1)
		lo := int(off - line)
		n := LineSize - lo
		if n > len(p) {
			n = len(p)
		}
		buf := d.lineFor(line, true)
		copy(buf[lo:lo+n], p[:n])
		p = p[n:]
		off += int64(n)
	}
}

// WriteStream copies p to offset off with non-temporal stores, for a bulk
// write whose old contents nobody wants. Every cache line p covers whole
// bypasses the cache: it is not filled, a cached copy (dirty or clean) is
// dropped, and the 64 bytes go straight to the memory controller's buffer —
// the state of a line after WriteBack, at a write-back's cost (one Stores,
// WriteBackExtra) and without a CLWB. The partial lines at either end are an
// ordinary Write + WriteBack. Either way the whole range has one contract: it
// is durable after the next Fence.
func (d *Device) WriteStream(off int64, p []byte) {
	d.checkRange(off, len(p))
	if head := int(-off & (LineSize - 1)); head > 0 {
		if head > len(p) {
			head = len(p)
		}
		d.Write(off, p[:head])
		d.WriteBack(off, head)
		off, p = off+int64(head), p[head:]
	}
	whole := len(p) &^ (LineSize - 1)
	d.stats.bytesWritten.Add(uint64(whole))
	for end := off + int64(whole); off < end; off, p = off+LineSize, p[LineSize:] {
		d.cache.invalidate(off)
		d.toController(off, p)
	}
	if len(p) > 0 {
		d.Write(off, p)
		d.WriteBack(off, len(p))
	}
}

// lineFor returns the cache-resident buffer for the line at the given
// (line-aligned) offset, filling it from the medium on a miss. If markDirty
// is set the line is marked dirty.
func (d *Device) lineFor(line int64, markDirty bool) []byte {
	buf, hit, victim, victimLine := d.cache.lookup(line)
	if !hit {
		if victim {
			// Dirty eviction: the memory controller writes the line back to
			// NVM. This can make un-flushed stores durable at any time. The
			// evicted contents supersede any older pending flush of the line.
			copy(d.data[victimLine:victimLine+LineSize], buf)
			d.pending.remove(victimLine)
			d.stats.stores.Add(1)
			d.stats.stallNS.Add(d.lat.writeBack.Load())
		}
		if pl := d.pending.get(line); pl != nil {
			copy(buf, pl)
		} else {
			copy(buf, d.data[line:line+LineSize])
		}
		d.stats.loads.Add(1)
		d.stats.stallNS.Add(d.lat.readMiss.Load())
	}
	if markDirty {
		d.cache.markDirty(line)
	}
	return buf
}

// flushRange writes back every cache line overlapping [off, off+n) and then
// invalidates it (CLFLUSH) or keeps it valid and clean (CLWB). The data is
// not guaranteed durable until a following Fence.
func (d *Device) flushRange(off int64, n int, invalidate bool) {
	first, last := d.lineSpan(off, n)
	for line := first; line < last; line += LineSize {
		d.stats.flushes.Add(1)
		d.stats.stallNS.Add(d.lat.flushLine.Load())
		buf, present, dirty := d.cache.peek(line)
		if present && dirty {
			d.toController(line, buf)
		}
		if present {
			if invalidate {
				d.cache.invalidate(line)
			} else {
				d.cache.clean(line)
			}
		}
	}
}

// toController hands the line's 64 bytes at the head of buf to the memory
// controller's buffer, superseding an older buffered copy: one NVM store,
// durable at the next Fence — or earlier: a full buffer drains to the medium
// to make room, at no charge, just as a dirty eviction may make any un-fenced
// line durable at any time.
func (d *Device) toController(line int64, buf []byte) {
	d.pending.put(line, buf, d.data)
	d.stats.stores.Add(1)
	d.stats.stallNS.Add(d.lat.writeBack.Load())
}

// AddStall charges additional simulated latency to the stall clock. Higher
// layers use it to model costs outside the cache/medium path, e.g. the
// kernel VFS overhead of the filesystem interface (§2.2). Safe from any
// goroutine.
func (d *Device) AddStall(t time.Duration) {
	d.stats.stallNS.Add(int64(t))
}

// Fence orders preceding write-backs, like SFENCE: it drains the memory
// controller's buffer, so after WriteBack+Fence (or WriteStream+Fence) the
// bytes are durable.
func (d *Device) Fence() {
	if d.planArmed {
		if d.plan.CrashAfterFences <= 0 {
			// The plan stays installed: Crash still applies its durability
			// effects to the un-fenced lines.
			d.planArmed = false
			panic(ErrInjectedCrash)
		}
		d.plan.CrashAfterFences--
	}
	d.stats.fences.Add(1)
	d.stats.stallNS.Add(d.lat.fence.Load() + d.lat.syncExtra.Load())
	if d.dropFence > 0 {
		if d.dropFence--; d.dropFence == 0 {
			return
		}
	}
	if d.fenceNoop {
		return
	}
	d.pending.drain(d.data)
}

// WriteBack is the sync primitive's flush half: it writes back every cache
// line overlapping [off, off+n) and keeps the lines valid and clean, like
// CLWB (Appendix C) — or invalidates them, like Flush, after
// SetSyncCLWB(false). A caller that persists several ranges at one
// durability point writes each back and fences once.
func (d *Device) WriteBack(off int64, n int) {
	d.flushRange(off, n, d.syncCLFLUSH)
}

// Sync is the paper's sync primitive: WriteBack over the range, then SFENCE.
func (d *Device) Sync(off int64, n int) {
	d.WriteBack(off, n)
	d.Fence()
}

// Crash simulates a power failure: every cache line that has not been
// written back is lost and the durable medium keeps its contents — except
// that an installed FaultPlan may first persist a seeded subset of the
// un-fenced lines (possibly torn), modelling reordered write-backs. The
// plan is consumed: recovery after the crash runs fault-free.
func (d *Device) Crash() {
	d.applyFaults()
	d.cache.dropAll()
	d.pending.reset()
	d.planSet = false
	d.planArmed = false
}

// EvictAll forcibly writes back and drops every dirty cache line, simulating
// the memory controller draining the cache. It makes *all* pending stores
// durable — including those of uncommitted transactions — which is the
// adversarial case undo-based recovery must handle.
func (d *Device) EvictAll() {
	for set := 0; set < d.cache.sets; set++ {
		for way := 0; way < d.cache.assoc; way++ {
			i := set*d.cache.assoc + way
			if d.cache.tags[i] != 0 && d.cache.dirty[i] {
				line := int64(d.cache.tags[i]-1) * LineSize
				buf := d.cache.data[i*LineSize : i*LineSize+LineSize]
				copy(d.data[line:line+LineSize], buf)
				d.pending.remove(line)
				d.stats.stores.Add(1)
				d.stats.stallNS.Add(d.lat.writeBack.Load())
			}
			d.cache.tags[i] = 0
			d.cache.dirty[i] = false
		}
	}
}

// DurableEqual reports whether the durable medium matches p at offset off.
// It bypasses the cache; tests use it to assert durability.
func (d *Device) DurableEqual(off int64, p []byte) bool {
	d.checkRange(off, len(p))
	got := d.data[off : off+int64(len(p))]
	for i := range p {
		if got[i] != p[i] {
			return false
		}
	}
	return true
}
