package core

import "fmt"

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
	// RecoveryParallelism is vestigial and must be 0 or 1: every engine
	// recovers on the goroutine that opens it, one step after another, as
	// the paper measures recovery (Fig. 12). New and Open refuse any other
	// value; the field remains only for callers that still pin it to 1.
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
	// FlushWorkers is vestigial and must be 0: the Log engines run their
	// staged flush/compaction pipeline inline, at the trigger point, and
	// their New and Open refuse any other value. The field remains only
	// for callers that still pin it to 0.
	FlushWorkers int
}

// CheckVestigial refuses a vestigial field set to a value no engine honors:
// FlushWorkers other than 0, RecoveryParallelism other than 0 or 1. Every
// engine's New and Open call it, so such an option fails loudly instead of
// being silently ignored.
func (o Options) CheckVestigial() error {
	if o.FlushWorkers != 0 {
		return fmt.Errorf("core: Options.FlushWorkers = %d, want 0: the flush pipeline runs inline only", o.FlushWorkers)
	}
	if o.RecoveryParallelism != 0 && o.RecoveryParallelism != 1 {
		return fmt.Errorf("core: Options.RecoveryParallelism = %d, want 0 or 1: recovery runs on the opening goroutine", o.RecoveryParallelism)
	}
	return nil
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
