package nvm

import "math/rand"

// FaultMode selects what happens to not-yet-durable state when an injected
// crash strikes. Anything made durable by a completed Flush+Fence (or Sync)
// is never affected — faults only act on the un-fenced window: lines sitting
// in the memory controller's buffer (flushed but not fenced) and dirty lines
// still in the CPU cache.
type FaultMode int

const (
	// FaultLoseAll is the classic power-failure model: every un-fenced line
	// is lost and the durable medium keeps its pre-crash contents.
	FaultLoseAll FaultMode = iota
	// FaultReorder models write-back reordering: at crash, a seeded random
	// subset of the un-fenced dirty lines has already reached the medium
	// (the memory controller and cache may write lines back in any order at
	// any time), while the rest are lost.
	FaultReorder
	// FaultTear is FaultReorder plus torn line write-backs: a surviving line
	// may persist only a prefix of its bytes (in 8-byte units, matching the
	// 64-bit store atomicity real hardware guarantees), leaving the rest of
	// the line at its old medium contents.
	FaultTear
)

// String names the fault mode for logs and failure reports.
func (m FaultMode) String() string {
	switch m {
	case FaultLoseAll:
		return "lose-all"
	case FaultReorder:
		return "reorder"
	case FaultTear:
		return "tear"
	}
	return "unknown"
}

// FaultPlan is a seeded, replayable description of one injected failure.
// Install it with Device.InjectFaults: after CrashAfterFences further Fence
// calls the device panics with ErrInjectedCrash, and the next Crash applies
// Mode's effects to the un-fenced lines using randomness derived only from
// Seed — so any observed failure replays exactly from its seed.
type FaultPlan struct {
	Seed int64
	Mode FaultMode
	// CrashAfterFences is the number of future Fence calls to let through
	// before panicking with ErrInjectedCrash.
	CrashAfterFences int
	// KeepProb is the probability that an un-fenced dirty line reaches the
	// medium anyway (FaultReorder / FaultTear).
	KeepProb float64
	// TearProb is the probability that a surviving line is torn mid-line
	// (FaultTear only).
	TearProb float64
}

// InjectFaults installs a fault plan. The plan's crash trigger arms
// immediately; its durability effects are applied by the next Crash call
// whether or not the trigger fired (so a schedule that ends without hitting
// the trigger still crashes under the same model). Crash clears the plan.
func (d *Device) InjectFaults(p FaultPlan) {
	d.plan = p
	d.planSet = true
	d.planArmed = true
}

// ClearFaults removes any installed fault plan without applying it.
func (d *Device) ClearFaults() {
	d.planSet = false
	d.planArmed = false
}

// SetFenceNoop disables (or re-enables) the durability effect of Fence while
// keeping its accounting and crash triggers: flushed lines stay buffered in
// the memory controller instead of draining to the medium (a full buffer
// still drains itself, so what a crash loses is the newest lines, at most
// ctrlLines of them). This simulates a protocol bug — a commit path whose
// SFENCE was removed — and exists so the recovery-conformance suite can prove
// it catches such bugs.
func (d *Device) SetFenceNoop(on bool) { d.fenceNoop = on }

// DropFence makes the n-th Fence from now (0 = the next) lose its durability
// effect, once, like SetFenceNoop for a single fence: it is counted, charged and
// may trigger an armed crash, but drains nothing, so the lines before it share
// an interval with the lines after. It simulates a protocol whose ordering
// fence between two dependent writes was deleted, and exists so that the
// fence-window walk can prove it notices.
func (d *Device) DropFence(n int) { d.dropFence = n + 1 }

// Discard forgets the un-fenced copies of every cache line overlapping
// [off, off+n): the line leaves the memory controller's buffer and the cache,
// so it reads as the medium has it. It is not an instruction a program could
// issue; it exists for fault injection only — pmfs tears an fsync by
// discarding the suffix of the file's un-fenced writes before the fence. A
// line the controller already drained stays durable.
func (d *Device) Discard(off int64, n int) {
	first, last := d.lineSpan(off, n)
	for line := first; line < last; line += LineSize {
		d.pending.remove(line)
		d.cache.invalidate(line)
	}
}

// applyFaults applies the installed plan's durability effects to the
// un-fenced lines. Called by Crash before the cache and controller buffer
// are discarded.
func (d *Device) applyFaults() {
	if !d.planSet || d.plan.Mode == FaultLoseAll {
		return
	}
	p := d.plan
	rng := rand.New(rand.NewSource(p.Seed))
	d.Unfenced(func(line int64, buf []byte) { d.maybePersistLine(rng, p, line, buf) })
}

// Unfenced calls fn for every line write-back a crash at this moment may keep
// or lose, in a deterministic order: controller-buffered lines in flush order
// first, then dirty cache lines in slot order. A line flushed and then
// re-dirtied appears twice (old flushed copy, then newer cache copy); each
// copy survives independently, with the cache copy overwriting when both do —
// exactly the set of outcomes an arbitrary write-back schedule allows. buf is
// the device's own and only valid during the call. A test that walks crash
// outcomes instead of sampling them (one kept line at a time, say) reads the
// candidates here and applies its choice to a copy of the medium
// (WriteSnapshot / ReadSnapshot, then Write + Sync of the kept bytes).
func (d *Device) Unfenced(fn func(line int64, buf []byte)) {
	d.pending.each(fn)
	c := &d.cache
	for i := range c.tags {
		if c.tags[i] != 0 && c.dirty[i] {
			fn(int64(c.tags[i]-1)*LineSize, c.data[i*LineSize:i*LineSize+LineSize])
		}
	}
}

// maybePersistLine rolls the plan's dice for one candidate line write-back.
func (d *Device) maybePersistLine(rng *rand.Rand, p FaultPlan, line int64, buf []byte) {
	if rng.Float64() >= p.KeepProb {
		return
	}
	n := LineSize
	if p.Mode == FaultTear && rng.Float64() < p.TearProb {
		// Torn write-back: an 8-byte-aligned prefix of the line persists.
		n = 8 * (1 + rng.Intn(LineSize/8-1))
	}
	copy(d.data[line:line+int64(n)], buf[:n])
	d.stats.stores.Add(1)
}
