package core

// Options tunes engine behaviour. The zero value selects the paper's
// defaults (§5: 512 B STX B+tree nodes, 4 KB CoW B+tree nodes).
type Options struct {
	// GroupCommitSize is the number of transactions batched per WAL fsync
	// or per CoW directory swap (§3.1, §3.2).
	GroupCommitSize int
	// CheckpointEvery is the number of committed transactions between InP
	// checkpoints (0 = only on Flush).
	CheckpointEvery int
	// BTreeNodeSize is the node size of the STX-style and non-volatile
	// B+trees (default 512, Fig. 15).
	BTreeNodeSize int
	// CowPageSize is the CoW B+tree page size (default 4096, Fig. 15).
	CowPageSize int
	// MemTableCap is the number of MemTable entries that triggers a flush
	// (Log) or an immutable rotation (NVM-Log).
	MemTableCap int
	// LSMGrowth is the LSM tree growth factor k (default 4). Its one reader
	// is NVM-Log's merge rule (lsm.MergeSet): after a rotation the newest
	// immutable MemTables are merged while each next older one holds at most
	// k times the keys gathered so far. The Log engine's binary cascade does
	// not read it.
	LSMGrowth int
	// RecoveryParallelism bounds the fan-out of the recovery pipeline's
	// CPU stages (WAL collapse, bloom rebuilds, reachability decode, slot
	// sweeps). 0 picks a bounded number of CPUs (see RecoveryWorkers); 1
	// forces fully sequential recovery, matching the paper's measurement
	// methodology.
	RecoveryParallelism int
	// VlogThreshold is the value size (encoded row bytes) at or above which
	// the Log engine separates the value into the append-only value log,
	// leaving a (segment, offset, len) pointer in the LSM tree. 0 selects
	// the default (512 B); negative disables separation entirely. Only the
	// Log engine reads it: NVM-Log has no value log.
	VlogThreshold int
	// VlogSegSize is the Log engine's value-log segment rotation threshold
	// in bytes (default 1 MiB). A single record larger than this gets a
	// segment of its own.
	VlogSegSize int
	// FlushWorkers selects how the Log engines run their staged
	// flush/compaction pipeline: 0 executes stages inline at the trigger
	// point (deterministic, the conformance default), 1 runs them on a
	// background worker drained by Flush/Close.
	FlushWorkers int
}

// WithDefaults fills unset fields with the paper's defaults.
func (o Options) WithDefaults() Options {
	if o.GroupCommitSize == 0 {
		o.GroupCommitSize = 16
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 50000
	}
	if o.BTreeNodeSize == 0 {
		o.BTreeNodeSize = 512
	}
	if o.CowPageSize == 0 {
		o.CowPageSize = 4096
	}
	if o.MemTableCap == 0 {
		o.MemTableCap = 4096
	}
	if o.LSMGrowth == 0 {
		o.LSMGrowth = 4
	}
	if o.VlogThreshold == 0 {
		o.VlogThreshold = 512
	}
	if o.VlogSegSize == 0 {
		o.VlogSegSize = 1 << 20
	}
	return o
}
