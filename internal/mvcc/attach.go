package mvcc

import "nstore/internal/core"

// Snapshots is embedded by each engine to expose the core.SnapshotReader
// contract. The engine owns the store's writer side (Stage*/CommitStaged/
// PublishDurable from its single owner goroutine); the promoted methods
// below are the reader side and are safe from any goroutine once
// InitSnapshots has run.
type Snapshots struct {
	MV *Store
}

// SnapshotView pins a read view at the newest durable timestamp.
func (s *Snapshots) SnapshotView() core.ReadView { return s.MV.NewView() }

// ReadSnapshot runs fn against a view pinned and read under one acquisition
// of the engine's exclusion.
func (s *Snapshots) ReadSnapshot(fn func(core.ReadView) error) error { return s.MV.ReadSnapshot(fn) }

// Oracle returns the partition's timestamp oracle.
func (s *Snapshots) Oracle() *core.TsOracle { return s.MV.Oracle() }

// UndoStats reports what the partition's snapshot readers cost its writers
// (core.UndoStatser).
func (s *Snapshots) UndoStats() core.UndoStats { return s.MV.UndoStats() }

// InitSnapshots builds the version store over eng with the oracle floored at
// floorTs (the engine's recovered TxnID). It reads nothing: the engine's
// recovered state is every view's starting point, and the store holds only
// what is written from here on. Called at the end of New/Open, before the
// engine is shared with readers.
func (s *Snapshots) InitSnapshots(eng core.Engine, schemas []*core.Schema, floorTs uint64) error {
	s.MV = NewStore(eng, schemas, floorTs)
	return nil
}
