// Package mvcc gives the six single-owner storage engines snapshot reads as
// an undo overlay. The engine's own state is the newest version of every
// row; the store holds only what a pinned view cannot read there: the
// pre-images of the writes committed after the oldest pinned view, or not
// yet published. A view reads the engine under its exclusion (core.Base) and
// rolls the result back past every write newer than its timestamp. There is
// no copy of the database in the Go heap, and nothing to rebuild at Open.
//
// Writer-side lifecycle (the engine's owner, inside its transaction or a
// call that holds the exclusion):
//
//	StageInsert/StageUpdate/StageDelete  during Insert/Update/Delete
//	StageLazy                  for a pre-image the engine can find later
//	DropStaged                 on Abort / rollback
//	CommitStaged(ts, durable)  at Commit; publishes now iff durable
//	PublishDurable()           at Flush, when the durability barrier passes
//
// A pre-image is the old values of the updated columns, the whole row for a
// delete, or "absent" for an insert. Engines that read the old row anyway
// (inp's before-image, log / cow / nvm-cow's old tuple) stage it always;
// nvm-inp and nvm-log publish at commit, so a pre-image is needed only when a
// view is pinned at the time of the write, and they read one only then
// (Capture). Views pin only between transactions, so that answer holds for
// the whole transaction.
//
// log publishes at its group-commit fsync, so a view pinned between a commit
// and that fsync must roll the commit back: every write needs a pre-image,
// pinned view or not. It stages a lazy record instead (StageLazy): the
// table, the key and a reference only the engine can resolve. The first view
// that pins while such a record is pending has the engine materialize it
// (PreImager), under the exclusion and on the reader's device clock; the
// records a publish finds unmaterialized are dropped, since no view pinned
// from then on is older than them.
//
// The oracle's read timestamp advances past a commit only once the whole
// transaction is published, so a view never observes a torn or unacked
// transaction: a commit parked at a group-commit barrier has a timestamp
// above every view's and is rolled back. GC drops pre-images at or below the
// watermark (the oldest pinned view, or the read timestamp when none is).
package mvcc

import (
	"sort"
	"sync/atomic"

	"nstore/internal/core"
	"nstore/internal/nvm"
)

// undo is one pre-image: what the row held before the write committed at
// ts. With cols nil, pre is the whole row (nil: the key did not exist);
// otherwise pre[j] is column cols[j]'s old value.
type undo struct {
	ts   uint64
	cols []int
	pre  []core.Value
}

// tableStore holds one table's pre-images.
type tableStore struct {
	schema *core.Schema
	// undo maps a key to its pre-images, oldest first.
	undo map[uint64][]undo

	// peak is the most keys undo has held since the map was made. Go never
	// shrinks a map, so GC replaces it once it has emptied it after it grew
	// past shrinkPast.
	peak int
}

// shrinkPast is the size past which an emptied map is replaced, not kept.
const shrinkPast = 1024

// rollback turns the engine's current row for key (nil when absent) into
// the row a view at ts sees, by applying the pre-images of the writes
// committed after ts, newest first. The result may share a pre-image.
func (t *tableStore) rollback(key uint64, row []core.Value, ts uint64) []core.Value {
	list := t.undo[key]
	owned := false
	for i := len(list) - 1; i >= 0 && list[i].ts > ts; i-- {
		u := &list[i]
		if u.cols == nil {
			row, owned = u.pre, false
			continue
		}
		if row == nil {
			continue // an update's pre-image always lands on a row
		}
		if !owned {
			row, owned = append([]core.Value(nil), row...), true
		}
		for j, c := range u.cols {
			row[c] = u.pre[j]
		}
	}
	return row
}

// moved returns, ascending, the keys in [from, to) that a view at ts must
// roll back.
func (t *tableStore) moved(ts, from, to uint64) []uint64 {
	var keys []uint64
	for k, list := range t.undo {
		if k >= from && k < to && list[len(list)-1].ts > ts {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// staged is one write of the running transaction, and one record of the
// lazy list.
type staged struct {
	table    int
	key      uint64
	u        undo
	captured bool
	// lazy: the pre-image is not in u, the engine materializes it from ref
	// (PreImager.PreImage).
	lazy bool
	ref  uint64
}

// PreImager is an engine that stages lazy records (StageLazy): it rebuilds
// the pre-image such a record stands for. It is called with the exclusion
// held, before anything has changed below the record's reference since the
// write that staged it.
type PreImager interface {
	// PreImage returns the whole row key of table held before the write
	// whose reference is ref (nil: the key did not exist).
	PreImage(table string, key, ref uint64) ([]core.Value, error)
}

// tkey names one written key.
type tkey struct {
	table int
	key   uint64
}

// group is one committed transaction's writes in commit order: what GC walks
// to drop pre-images once no view can need them.
type group struct {
	ts   uint64
	keys []tkey
}

// Store is the per-partition undo overlay. Writer-side methods (Stage*,
// DropStaged, CommitStaged, PublishDurable, GC) run on the engine's owner
// with the engine's exclusion held; NewView, ReadSnapshot and the views are
// safe from any goroutine.
type Store struct {
	eng    core.Engine
	x      *core.Exclusion
	dev    *nvm.Device // the engine's device, whose reader clock views charge
	tables []*tableStore
	byName map[string]int
	oracle core.TsOracle
	staged []staged
	// groups are the committed transactions above the last GC watermark,
	// oldest first; the last `pending` of them are not yet published.
	groups  []group
	pending int
	// lazy holds, in commit order, the committed records of the pending
	// groups from the first lazy one on: a pre-image a later write captured
	// waits behind an earlier lazy one, so each key's list stays in write
	// order when they join the overlay. Empty whenever a view is pinned.
	lazy []staged
	pre  PreImager // the engine, if it stages lazy records

	records      atomic.Int64
	captures     atomic.Int64
	materialized atomic.Int64
	gcTick       int

	// GCEvery is the number of publishes between automatic GC passes (0:
	// only explicit GC calls). A pass costs what it drops.
	GCEvery int
}

// NewStore builds an empty store over eng, with the oracle floored at
// floorTs (the engine's recovered TxnID — the durable frontier). Views read
// under eng's exclusion when it has one (every engine does, through
// core.Base).
func NewStore(eng core.Engine, schemas []*core.Schema, floorTs uint64) *Store {
	s := &Store{eng: eng, byName: make(map[string]int, len(schemas)), GCEvery: 1}
	if ex, ok := eng.(core.Excluder); ok {
		s.x = ex.Exclusion()
	} else {
		s.x = new(core.Exclusion)
	}
	if e, ok := eng.(interface{ Environment() *core.Env }); ok && e.Environment() != nil {
		s.dev = e.Environment().Dev
	}
	s.pre, _ = eng.(PreImager)
	for i, sc := range schemas {
		s.tables = append(s.tables, &tableStore{schema: sc,
			undo: make(map[uint64][]undo)})
		s.byName[sc.Name] = i
	}
	s.oracle.Advance(floorTs)
	return s
}

// Oracle returns the store's timestamp oracle.
func (s *Store) Oracle() *core.TsOracle { return &s.oracle }

// Capture reports whether the write the engine is about to make needs its
// pre-image: some view is pinned, and one pinned later cannot see the write's
// predecessor anyway. Only an engine that publishes at commit and would read
// the pre-image for nothing else asks; each true answer is counted as one
// capture (UndoStats.Captures).
func (s *Store) Capture() bool {
	if s.oracle.ActiveViews() == 0 {
		return false
	}
	s.captures.Add(1)
	return true
}

func (s *Store) stage(table string, key uint64, u undo, captured bool) {
	if ti, ok := s.byName[table]; ok {
		s.staged = append(s.staged, staged{table: ti, key: key, u: u, captured: captured})
	}
}

// StageInsert records an insert; its pre-image is "absent".
func (s *Store) StageInsert(table string, key uint64) { s.stage(table, key, undo{}, true) }

// StageUpdate records an update of cols. pre holds the columns' old values,
// parallel to cols — or, with cols nil, the whole old row — and must not be
// mutated by the caller afterwards. A nil pre stages no pre-image: legal only
// for an engine that publishes at commit, when Capture said no; one that
// publishes later stages a lazy record instead (StageLazy).
func (s *Store) StageUpdate(table string, key uint64, cols []int, pre []core.Value) {
	u := undo{pre: pre}
	if cols != nil {
		u.cols = append([]int(nil), cols...)
	}
	s.stage(table, key, u, pre != nil)
}

// StageDelete records a delete of row, the whole old tuple (nil: no
// pre-image, as for StageUpdate).
func (s *Store) StageDelete(table string, key uint64, row []core.Value) {
	s.stage(table, key, undo{pre: row}, row != nil)
}

// StageLazy records an update or delete of key whose whole old row the
// engine can rebuild from ref until the write's group is published
// (PreImager). Only a PreImager stages one, and only when Capture said no.
func (s *Store) StageLazy(table string, key, ref uint64) {
	if ti, ok := s.byName[table]; ok {
		s.staged = append(s.staged, staged{table: ti, key: key, lazy: true, ref: ref})
	}
}

// DropStaged discards the current transaction's staged writes (abort path).
func (s *Store) DropStaged() { s.staged = s.staged[:0] }

// CommitStaged seals the staged writes at commit timestamp ts: their
// pre-images join the overlay now, because the engine already holds the
// writes. If the commit is durable (the WAL group flushed, the CoW batch
// persisted, or the engine is durable-at-commit) it publishes immediately;
// otherwise it waits for PublishDurable.
func (s *Store) CommitStaged(ts uint64, durable bool) {
	if len(s.staged) > 0 {
		g := group{ts: ts, keys: make([]tkey, 0, len(s.staged))}
		for _, op := range s.staged {
			g.keys = append(g.keys, tkey{op.table, op.key})
			op.u.ts = ts
			switch {
			case op.lazy || op.captured && len(s.lazy) > 0:
				s.lazy = append(s.lazy, op)
			case op.captured:
				s.join(op)
			}
		}
		s.groups = append(s.groups, g)
		s.pending++
	}
	s.staged = s.staged[:0]
	if durable {
		// A durable commit implies every earlier commit in the same group
		// reached the barrier with it (a WAL group flush or a COW batch
		// persist covers the whole batch).
		s.PublishDurable()
		s.oracle.Advance(ts)
	} else if s.pending == 0 {
		// Read-only txn with nothing pending: trivially durable. With
		// pending groups the timestamp must NOT advance — a view pinned past
		// an unpublished commit would observe it appearing later.
		s.oracle.Advance(ts)
	}
}

// join adds a committed pre-image to its key's list.
func (s *Store) join(op staged) {
	t := s.tables[op.table]
	t.undo[op.key] = append(t.undo[op.key], op.u)
	t.peak = max(t.peak, len(t.undo))
	s.records.Add(1)
}

// PublishDurable publishes every pending transaction — the durability
// barrier passed (Flush succeeded, or the commit itself was durable). The
// lazy records no view materialized go: every view pinned from now on reads
// at or past them.
func (s *Store) PublishDurable() {
	if s.pending > 0 {
		s.oracle.Advance(s.groups[len(s.groups)-1].ts)
		s.pending = 0
	}
	s.lazy = nil
	s.gcTick++
	if s.GCEvery > 0 && s.gcTick >= s.GCEvery {
		s.gcTick = 0
		s.GC()
	}
}

// GC drops every pre-image at or below the oracle's watermark: no view
// present or future is older. Returns the number of pre-images dropped.
// Writer-side.
func (s *Store) GC() int {
	if len(s.groups) == 0 {
		return 0
	}
	wm := s.oracle.Watermark()
	dropped, i := 0, 0
	for ; i < len(s.groups) && s.groups[i].ts <= wm; i++ {
		g := s.groups[i]
		for _, k := range g.keys {
			t := s.tables[k.table]
			list := t.undo[k.key]
			n := 0
			for n < len(list) && list[n].ts <= wm {
				n++
			}
			switch {
			case n == 0:
			case n == len(list):
				delete(t.undo, k.key)
			default:
				clear(list[:n])
				t.undo[k.key] = list[n:]
			}
			dropped += n
		}
		s.groups[i] = group{}
	}
	s.groups = s.groups[i:]
	s.records.Add(-int64(dropped))
	for _, t := range s.tables {
		if len(t.undo) == 0 && t.peak > shrinkPast {
			t.undo, t.peak = make(map[uint64][]undo), 0
		}
	}
	return dropped
}

// UndoStats reports the pre-images held and the captures made. Safe from any
// goroutine.
func (s *Store) UndoStats() core.UndoStats {
	return core.UndoStats{Records: s.records.Load(), Captures: s.captures.Load(),
		Materialized: s.materialized.Load()}
}

// pin pins a view at the read timestamp; the caller holds the exclusion. A
// view pinned while lazy records are pending is older than their writes, so
// the engine materializes them first, in commit order, on the reader's
// device clock.
func (s *Store) pin() (uint64, error) {
	if len(s.lazy) > 0 {
		err := s.snapshotRead(func() error {
			for i, op := range s.lazy {
				if op.lazy {
					row, err := s.pre.PreImage(s.tables[op.table].schema.Name, op.key, op.ref)
					if err != nil {
						s.lazy = s.lazy[i:]
						return err
					}
					op.u = undo{ts: op.u.ts, pre: row}
					s.materialized.Add(1)
				}
				s.join(op)
			}
			s.lazy = nil
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return s.oracle.Acquire(), nil
}

// snapshotRead runs fn with the device time it spends charged to the
// reader's clock (nvm.Device.SnapshotRead).
func (s *Store) snapshotRead(fn func() error) error {
	if s.dev == nil {
		return fn()
	}
	return s.dev.SnapshotRead(fn)
}

// View is a pinned snapshot; it implements core.ReadView.
type View struct {
	s      *Store
	ts     uint64
	held   bool  // ReadSnapshot holds the exclusion for the view's whole life
	err    error // the engine was retired before the view could pin
	closed atomic.Bool
}

// NewView pins a view at the current read timestamp. It takes the exclusion
// to pin, so it waits for a transaction in flight: a write made while no
// view is pinned may have no pre-image.
func (s *Store) NewView() core.ReadView {
	err := s.x.Enter()
	if err != nil {
		return failedView(s, err)
	}
	ts, err := s.pin()
	s.x.Unlock()
	if err != nil {
		return failedView(s, err)
	}
	return &View{s: s, ts: ts}
}

// failedView is a closed view whose every read returns err.
func failedView(s *Store, err error) *View {
	v := &View{s: s, err: err}
	v.closed.Store(true)
	return v
}

// ReadSnapshot pins a view and runs fn against it under one acquisition of
// the exclusion, then closes it.
func (s *Store) ReadSnapshot(fn func(core.ReadView) error) error {
	if err := s.x.Enter(); err != nil {
		return err
	}
	defer s.x.Unlock()
	ts, err := s.pin()
	if err != nil {
		return err
	}
	v := &View{s: s, ts: ts, held: true}
	defer v.Close()
	return fn(v)
}

// Ts returns the snapshot timestamp.
func (v *View) Ts() uint64 { return v.ts }

// Close releases the view's watermark pin. Idempotent.
func (v *View) Close() {
	if v.closed.CompareAndSwap(false, true) {
		v.s.oracle.Release(v.ts)
	}
}

// read runs fn with the engine's exclusion held, charging the device time it
// spends to the reader's clock (nvm.Device.SnapshotRead).
func (v *View) read(fn func() error) error {
	if v.err != nil {
		return v.err
	}
	if !v.held {
		if err := v.s.x.Enter(); err != nil {
			return err
		}
		defer v.s.x.Unlock()
	}
	return v.s.snapshotRead(fn)
}

func (v *View) table(name string) (*tableStore, error) {
	ti, ok := v.s.byName[name]
	if !ok {
		return nil, core.ErrKeyNotFound
	}
	return v.s.tables[ti], nil
}

// Get returns the tuple visible at the snapshot.
func (v *View) Get(table string, key uint64) (row []core.Value, found bool, err error) {
	t, err := v.table(table)
	if err != nil {
		return nil, false, err
	}
	err = v.read(func() error {
		cur, ok, err := v.s.eng.Get(table, key)
		if err != nil {
			return err
		}
		if !ok {
			cur = nil
		}
		row = t.rollback(key, cur, v.ts)
		return nil
	})
	return row, row != nil && err == nil, err
}

// ScanRange iterates visible (pk, row) pairs in [from, to), ascending: the
// engine's scan with the keys written since the view rolled back, including
// ones the engine no longer holds.
func (v *View) ScanRange(table string, from, to uint64, fn func(pk uint64, row []core.Value) bool) error {
	t, err := v.table(table)
	if err != nil {
		return err
	}
	return v.read(func() error {
		moved := t.moved(v.ts, from, to)
		stopped := false
		emit := func(pk uint64, row []core.Value) bool {
			if row != nil && !fn(pk, row) {
				stopped = true
			}
			return !stopped
		}
		err := v.s.eng.ScanRange(table, from, to, func(pk uint64, row []core.Value) bool {
			for ; len(moved) > 0 && moved[0] < pk; moved = moved[1:] {
				if !emit(moved[0], t.rollback(moved[0], nil, v.ts)) { // deleted since
					return false
				}
			}
			if len(moved) > 0 && moved[0] == pk {
				row, moved = t.rollback(pk, row, v.ts), moved[1:]
			}
			return emit(pk, row)
		})
		for ; err == nil && !stopped && len(moved) > 0; moved = moved[1:] {
			emit(moved[0], t.rollback(moved[0], nil, v.ts))
		}
		return err
	})
}

// ScanSecondary iterates primary keys whose secondary key equals sec at the
// snapshot, in ascending pk order: the engine's index members, with every key
// written since the view judged by its rolled-back row instead.
func (v *View) ScanSecondary(table, index string, sec uint32, fn func(pk uint64) bool) error {
	t, err := v.table(table)
	if err != nil {
		return err
	}
	var ix *core.IndexSpec
	for j := range t.schema.Secondary {
		if t.schema.Secondary[j].Name == index {
			ix = &t.schema.Secondary[j]
		}
	}
	if ix == nil {
		return core.ErrKeyNotFound
	}
	var pks []uint64
	if err := v.read(func() error {
		moved := make(map[uint64]bool)
		for k, list := range t.undo {
			if list[len(list)-1].ts > v.ts {
				moved[k] = true
			}
		}
		if err := v.s.eng.ScanSecondary(table, index, sec, func(pk uint64) bool {
			if !moved[pk] {
				pks = append(pks, pk)
			}
			return true
		}); err != nil {
			return err
		}
		for k := range moved {
			cur, ok, err := v.s.eng.Get(table, k)
			if err != nil {
				return err
			}
			if !ok {
				cur = nil
			}
			if row := t.rollback(k, cur, v.ts); row != nil && ix.SecKey(row) == sec {
				pks = append(pks, k)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(pks, func(i, j int) bool { return pks[i] < pks[j] })
	for _, pk := range pks {
		if !fn(pk) {
			return nil
		}
	}
	return nil
}

var _ core.ReadView = (*View)(nil)
