// Package mvcc provides a host-memory multi-version store that gives the
// six single-owner storage engines lock-free snapshot reads. The engine's
// executor remains the only writer: it stages after-images during a
// transaction, hands them to the store at commit, and the store publishes
// them to readers only once the commit is durable (immediately for
// durable-at-commit engines, at the group-commit barrier otherwise). Reader
// goroutines acquire immutable views that never touch the engine, the
// device mutex, or the WAL — they traverse atomically published version
// chains.
//
// Version lifecycle (all writer-side methods are called only from the
// engine's owner goroutine):
//
//	StageUpsert/StageUpdate/StageDelete   during Insert/Update/Delete
//	DropStaged                on Abort / rollback
//	CommitStaged(ts, durable) at Commit; publishes now iff durable
//	PublishDurable()          at Flush, when the durability barrier passes
//
// Published versions become visible when the oracle's read timestamp
// advances past their commit timestamp, which happens only after the whole
// transaction is published — so a view can never observe a torn or unacked
// transaction. GC truncates version chains strictly below the oracle's
// watermark (the minimum timestamp an active view is pinned at).
package mvcc

import (
	"sort"
	"sync"
	"sync/atomic"

	"nstore/internal/core"
)

// version is one immutable entry in a key's chain, newest first. row == nil
// marks a tombstone. next is atomic so GC can truncate a chain while
// readers traverse it.
type version struct {
	ts   uint64
	row  []core.Value
	next atomic.Pointer[version]
}

// chain is the per-key version list. head is atomic so the single writer
// can prepend while readers traverse lock-free.
type chain struct {
	head atomic.Pointer[version]
}

// visible returns the newest version with ts <= at, or nil.
func (c *chain) visible(at uint64) *version {
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		if v.ts <= at {
			return v
		}
	}
	return nil
}

// directory is a sorted key index for range scans. Readers hold mu.RLock
// only long enough to copy the in-range window; chains themselves are read
// without any lock.
type directory struct {
	mu   sync.RWMutex
	keys []uint64
}

func (d *directory) insert(key uint64) {
	d.mu.Lock()
	i := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= key })
	if i == len(d.keys) || d.keys[i] != key {
		d.keys = append(d.keys, 0)
		copy(d.keys[i+1:], d.keys[i:])
		d.keys[i] = key
	}
	d.mu.Unlock()
}

func (d *directory) remove(key uint64) {
	d.mu.Lock()
	i := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= key })
	if i < len(d.keys) && d.keys[i] == key {
		d.keys = append(d.keys[:i], d.keys[i+1:]...)
	}
	d.mu.Unlock()
}

// window copies the keys in [from, to). The copy lets readers run the scan
// callback without holding the latch.
func (d *directory) window(from, to uint64) []uint64 {
	d.mu.RLock()
	i := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= from })
	j := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= to })
	out := append([]uint64(nil), d.keys[i:j]...)
	d.mu.RUnlock()
	return out
}

// secKey identifies one secondary-index membership: index position j is
// implied by the table's secDir slot; entries are ordered (sec, pk) to
// match the engines' composite-key scan order.
type secKey struct {
	sec uint32
	pk  uint64
}

type secDirectory struct {
	mu   sync.RWMutex
	keys []secKey
}

func secLess(a, b secKey) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	return a.pk < b.pk
}

func (d *secDirectory) insert(k secKey) {
	d.mu.Lock()
	i := sort.Search(len(d.keys), func(i int) bool { return !secLess(d.keys[i], k) })
	if i == len(d.keys) || d.keys[i] != k {
		d.keys = append(d.keys, secKey{})
		copy(d.keys[i+1:], d.keys[i:])
		d.keys[i] = k
	}
	d.mu.Unlock()
}

func (d *secDirectory) remove(k secKey) {
	d.mu.Lock()
	i := sort.Search(len(d.keys), func(i int) bool { return !secLess(d.keys[i], k) })
	if i < len(d.keys) && d.keys[i] == k {
		d.keys = append(d.keys[:i], d.keys[i+1:]...)
	}
	d.mu.Unlock()
}

func (d *secDirectory) window(sec uint32) []secKey {
	lo, hi := secKey{sec: sec}, secKey{sec: sec, pk: ^uint64(0)}
	d.mu.RLock()
	i := sort.Search(len(d.keys), func(i int) bool { return !secLess(d.keys[i], lo) })
	j := sort.Search(len(d.keys), func(i int) bool { return secLess(hi, d.keys[i]) })
	out := append([]secKey(nil), d.keys[i:j]...)
	d.mu.RUnlock()
	return out
}

// present is the non-nil row sentinel for secondary membership chains.
var present = []core.Value{}

// tableStore holds one table's version chains.
type tableStore struct {
	schema *core.Schema
	chains sync.Map // uint64 -> *chain
	dir    directory
	// one membership map + directory per secondary index, in schema order.
	secs    []sync.Map // secKey -> *chain
	secDirs []secDirectory

	// OCC conflict tracking (writer-side: same single-owner rule as the
	// chains' writer methods; the serving runtime serializes CommitStaged
	// and Latest*Ts queries under the partition's engine mutex). lastKey
	// maps key -> newest commit timestamp that wrote it — including
	// committed-but-unpublished group-commit transactions, which a snapshot
	// cannot see yet but which must conflict with any transaction that read
	// the key at an older timestamp. GC prunes entries at or below the
	// watermark: a validating transaction keeps its snapshot pinned, so its
	// snapshot timestamp is never below the watermark and a pruned entry can
	// never hide a conflict. lastTs is the table-level aggregate for scan
	// validation and is never pruned.
	lastKey map[uint64]uint64
	lastTs  uint64
}

// stagedOp is one uncommitted change: a full after-image, a delete, or the
// column delta of an update, which apply turns into an after-image.
type stagedOp struct {
	table int
	key   uint64
	row   []core.Value // nil and no delta = delete
	delta *core.Update // non-nil = update of these columns over the chain head
}

// pendingGroup is a committed-but-not-yet-durable transaction.
type pendingGroup struct {
	ts  uint64
	ops []stagedOp
}

// Store is the per-partition multi-version store. Writer-side methods
// (Stage*, DropStaged, CommitStaged, PublishDurable, GC) must be called
// from the single owner goroutine; NewView and the views it returns are
// safe from any goroutine.
type Store struct {
	tables  []*tableStore
	byName  map[string]int
	oracle  core.TsOracle
	staged  []stagedOp
	pending []pendingGroup

	versions atomic.Int64 // live version nodes, for GC accounting
	gcTick   int

	// GCEvery is the number of publishes between automatic GC passes.
	GCEvery int
}

// NewStore builds an empty store for the given schemas with the oracle
// floored at floorTs (the engine's recovered TxnID — the durable frontier).
func NewStore(schemas []*core.Schema, floorTs uint64) *Store {
	s := &Store{byName: make(map[string]int, len(schemas)), GCEvery: 64}
	for i, sc := range schemas {
		ts := &tableStore{schema: sc, lastKey: make(map[uint64]uint64)}
		ts.secs = make([]sync.Map, len(sc.Secondary))
		ts.secDirs = make([]secDirectory, len(sc.Secondary))
		s.tables = append(s.tables, ts)
		s.byName[sc.Name] = i
	}
	s.oracle.Advance(floorTs)
	return s
}

// Oracle returns the store's timestamp oracle.
func (s *Store) Oracle() *core.TsOracle { return &s.oracle }

// Seed installs one recovered row at the oracle floor. Called by the engine
// while rebuilding the store from its own recovered state, before the store
// is shared with readers.
func (s *Store) Seed(table string, key uint64, row []core.Value) {
	ti, ok := s.byName[table]
	if !ok {
		return
	}
	s.apply(s.oracle.ReadTs(), stagedOp{table: ti, key: key, row: core.CloneRow(row)})
}

// StageUpsert records the full after-image of an insert or update.
func (s *Store) StageUpsert(table string, key uint64, row []core.Value) {
	if ti, ok := s.byName[table]; ok {
		s.staged = append(s.staged, stagedOp{table: ti, key: key, row: core.CloneRow(row)})
	}
}

// StageUpdate records an update as its column delta, so an engine that
// modifies a tuple in place need not read the columns it does not write.
// The after-image is built when the version is published (see apply). The
// key must exist at that point — the engines check before they stage — and
// a delta over a missing key is dropped.
func (s *Store) StageUpdate(table string, key uint64, upd core.Update) {
	if ti, ok := s.byName[table]; ok {
		d := core.Update{Cols: append([]int(nil), upd.Cols...), Vals: core.CloneRow(upd.Vals)}
		s.staged = append(s.staged, stagedOp{table: ti, key: key, delta: &d})
	}
}

// StageDelete records a delete.
func (s *Store) StageDelete(table string, key uint64) {
	if ti, ok := s.byName[table]; ok {
		s.staged = append(s.staged, stagedOp{table: ti, key: key})
	}
}

// DropStaged discards the current transaction's staged ops (abort path).
func (s *Store) DropStaged() { s.staged = s.staged[:0] }

// CommitStaged seals the staged ops at commit timestamp ts. If the commit
// is already durable (the WAL group flushed, the COW batch persisted, or
// the engine is durable-at-commit) the versions publish immediately;
// otherwise they wait in the pending queue for PublishDurable.
func (s *Store) CommitStaged(ts uint64, durable bool) {
	if len(s.staged) > 0 {
		ops := make([]stagedOp, len(s.staged))
		copy(ops, s.staged)
		s.pending = append(s.pending, pendingGroup{ts: ts, ops: ops})
		// Record conflict timestamps at the commit point, before the group
		// publishes: a concurrent OCC transaction that read any of these
		// keys at an older snapshot must fail validation even though the
		// versions are not yet visible.
		for _, op := range ops {
			t := s.tables[op.table]
			t.lastKey[op.key] = ts
			t.lastTs = ts
		}
	}
	s.staged = s.staged[:0]
	if durable {
		// A durable commit implies every earlier commit in the same group
		// reached the barrier with it (a WAL group flush or a COW batch
		// persist covers the whole batch).
		s.PublishDurable()
		s.oracle.Advance(ts)
	} else if len(s.pending) == 0 {
		// Read-only txn with nothing pending: trivially durable. With
		// pending groups the timestamp must NOT advance — a view pinned
		// past an unpublished commit would observe it appearing later.
		s.oracle.Advance(ts)
	}
}

// PublishDurable publishes every pending transaction — the durability
// barrier passed (Flush succeeded, or the commit itself was durable).
func (s *Store) PublishDurable() {
	for _, g := range s.pending {
		for _, op := range g.ops {
			s.apply(g.ts, op)
		}
		// Advance only after the whole txn is visible in the chains, so a
		// view acquired at g.ts observes all of it or none of it.
		s.oracle.Advance(g.ts)
	}
	s.pending = s.pending[:0]
	s.gcTick++
	if s.GCEvery > 0 && s.gcTick >= s.GCEvery {
		s.gcTick = 0
		s.GC()
	}
}

// apply prepends one published version (and its secondary-membership
// versions) at ts. A staged delta is materialised here, over the chain head:
// the ops of a transaction and the pending groups are applied in commit
// order, so the head is the row the engine updated. The new version shares
// the unchanged columns' bytes with the head; versions are immutable.
func (s *Store) apply(ts uint64, op stagedOp) {
	t := s.tables[op.table]
	var c *chain
	// Secondary membership diffs against the latest committed row.
	var prev []core.Value
	if ci, ok := t.chains.Load(op.key); ok {
		c = ci.(*chain)
		if h := c.head.Load(); h != nil {
			prev = h.row
		}
	}
	secs := t.schema.Secondary
	if op.delta != nil {
		if prev == nil {
			return
		}
		op.row = append([]core.Value(nil), prev...)
		core.ApplyDelta(op.row, *op.delta)
		if !t.schema.IndexReads(op.delta.Cols) {
			secs = nil // no secondary key can have moved
		}
	}
	if c == nil {
		c = &chain{}
		t.chains.Store(op.key, c)
		t.dir.insert(op.key)
	}
	for j, ix := range secs {
		var oldK, newK uint32
		oldOK, newOK := prev != nil, op.row != nil
		if oldOK {
			oldK = ix.SecKey(prev)
		}
		if newOK {
			newK = ix.SecKey(op.row)
		}
		if oldOK && newOK && oldK == newK {
			continue
		}
		if oldOK {
			s.applySec(t, j, secKey{sec: oldK, pk: op.key}, ts, nil)
		}
		if newOK {
			s.applySec(t, j, secKey{sec: newK, pk: op.key}, ts, present)
		}
	}
	v := &version{ts: ts, row: op.row}
	v.next.Store(c.head.Load())
	c.head.Store(v)
	s.versions.Add(1)
}

func (s *Store) applySec(t *tableStore, j int, k secKey, ts uint64, row []core.Value) {
	ci, ok := t.secs[j].Load(k)
	var c *chain
	if !ok {
		c = &chain{}
		t.secs[j].Store(k, c)
		t.secDirs[j].insert(k)
	} else {
		c = ci.(*chain)
	}
	v := &version{ts: ts, row: row}
	v.next.Store(c.head.Load())
	c.head.Store(v)
	s.versions.Add(1)
}

// GC reclaims versions strictly below the oracle's watermark: for every
// chain the newest version with ts <= watermark stays (it is what a view
// pinned at the watermark observes); everything older is truncated. Chains
// whose surviving head is a tombstone at or below the watermark are
// removed entirely. Returns the number of versions reclaimed. Writer-side.
func (s *Store) GC() int {
	wm := s.oracle.Watermark()
	reclaimed := 0
	for _, t := range s.tables {
		// Prune conflict entries no active or future snapshot can lose to:
		// a validating transaction pins its snapshot, so its timestamp is
		// >= wm and an entry with ts <= wm could never exceed it.
		for k, ts := range t.lastKey {
			if ts <= wm {
				delete(t.lastKey, k)
			}
		}
		var dead []uint64
		t.chains.Range(func(k, ci any) bool {
			c := ci.(*chain)
			n, fullyDead := s.truncate(c, wm)
			reclaimed += n
			if fullyDead {
				dead = append(dead, k.(uint64))
			}
			return true
		})
		for _, k := range dead {
			t.chains.Delete(k)
			t.dir.remove(k)
			s.versions.Add(-1)
			reclaimed++
		}
		for j := range t.secs {
			var deadSec []secKey
			t.secs[j].Range(func(k, ci any) bool {
				c := ci.(*chain)
				n, fullyDead := s.truncate(c, wm)
				reclaimed += n
				if fullyDead {
					deadSec = append(deadSec, k.(secKey))
				}
				return true
			})
			for _, k := range deadSec {
				t.secs[j].Delete(k)
				t.secDirs[j].remove(k)
				s.versions.Add(-1)
				reclaimed++
			}
		}
	}
	return reclaimed
}

// truncate cuts chain c below the watermark. fullyDead reports that the
// chain is a lone tombstone visible to every present and future view.
func (s *Store) truncate(c *chain, wm uint64) (reclaimed int, fullyDead bool) {
	v := c.head.Load()
	if v == nil {
		return 0, true
	}
	// Find the pivot: newest version with ts <= wm.
	for v != nil && v.ts > wm {
		v = v.next.Load()
	}
	if v == nil {
		return 0, false // every version above the watermark stays
	}
	for n := v.next.Load(); n != nil; n = n.next.Load() {
		reclaimed++
		s.versions.Add(-1)
	}
	v.next.Store(nil)
	head := c.head.Load()
	return reclaimed, head == v && head.row == nil
}

// LatestKeyTs returns the newest commit timestamp that wrote the key, or 0
// when the key was never written or its entry was pruned below the GC
// watermark. Writer-side (see tableStore.lastKey); implements
// core.OccValidator.
func (s *Store) LatestKeyTs(table string, key uint64) uint64 {
	ti, ok := s.byName[table]
	if !ok {
		return 0
	}
	return s.tables[ti].lastKey[key]
}

// LatestTableTs returns the newest commit timestamp that wrote any key of
// the table. Writer-side; implements core.OccValidator.
func (s *Store) LatestTableTs(table string) uint64 {
	ti, ok := s.byName[table]
	if !ok {
		return 0
	}
	return s.tables[ti].lastTs
}

var _ core.OccValidator = (*Store)(nil)

// Versions returns the number of live version nodes (including secondary
// membership nodes).
func (s *Store) Versions() int64 { return s.versions.Load() }

// Pending returns the number of committed-but-unpublished transactions.
func (s *Store) Pending() int { return len(s.pending) }

// View is a pinned snapshot; it implements core.ReadView.
type View struct {
	s      *Store
	ts     uint64
	closed atomic.Bool
}

// NewView pins a view at the current read timestamp.
func (s *Store) NewView() core.ReadView {
	return &View{s: s, ts: s.oracle.Acquire()}
}

// Ts returns the snapshot timestamp.
func (v *View) Ts() uint64 { return v.ts }

// Close releases the view's watermark pin. Idempotent.
func (v *View) Close() {
	if v.closed.CompareAndSwap(false, true) {
		v.s.oracle.Release(v.ts)
	}
}

func (v *View) table(name string) (*tableStore, error) {
	ti, ok := v.s.byName[name]
	if !ok {
		return nil, core.ErrKeyNotFound
	}
	return v.s.tables[ti], nil
}

// Get returns the tuple visible at the snapshot. The returned row is an
// immutable shared version — callers must not mutate it.
func (v *View) Get(table string, key uint64) ([]core.Value, bool, error) {
	t, err := v.table(table)
	if err != nil {
		return nil, false, err
	}
	ci, ok := t.chains.Load(key)
	if !ok {
		return nil, false, nil
	}
	ver := ci.(*chain).visible(v.ts)
	if ver == nil || ver.row == nil {
		return nil, false, nil
	}
	return ver.row, true, nil
}

// ScanRange iterates visible (pk, row) pairs in [from, to), ascending.
func (v *View) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	t, err := v.table(table)
	if err != nil {
		return err
	}
	for _, key := range t.dir.window(from, to) {
		ci, ok := t.chains.Load(key)
		if !ok {
			continue // reclaimed: the chain was dead below every live view
		}
		ver := ci.(*chain).visible(v.ts)
		if ver == nil || ver.row == nil {
			continue
		}
		if !fn(key, ver.row) {
			return nil
		}
	}
	return nil
}

// ScanSecondary iterates primary keys whose secondary key equals sec at the
// snapshot, in ascending pk order.
func (v *View) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	t, err := v.table(table)
	if err != nil {
		return err
	}
	j, ok := -1, false
	for jj, ix := range t.schema.Secondary {
		if ix.Name == index {
			j, ok = jj, true
			break
		}
	}
	if !ok {
		return core.ErrKeyNotFound
	}
	for _, k := range t.secDirs[j].window(sec) {
		ci, loaded := t.secs[j].Load(k)
		if !loaded {
			continue
		}
		ver := ci.(*chain).visible(v.ts)
		if ver == nil || ver.row == nil {
			continue
		}
		if !fn(k.pk) {
			return nil
		}
	}
	return nil
}

var _ core.ReadView = (*View)(nil)
