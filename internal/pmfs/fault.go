// Fault injection for the filesystem interface: seeded, replayable fsync
// failures. These model what a real PMFS-like filesystem can do to a
// database at power failure — drop writes that were never fsync'd, tear an
// fsync so only a prefix of the appended bytes reaches the medium, or cut
// power just after the fsync retires. The storage engines' WAL, checkpoint,
// and SSTable protocols must recover from all three.
package pmfs

import (
	"errors"
	"math/rand"

	"nstore/internal/nvm"
)

// ErrSyncFailed is returned by File.Sync when a transient sync failure is
// injected (FailSyncs). It models an fsync returning EIO before its fence:
// nothing the fsync covered is promised durable, the file's unsynced ranges
// stay recorded, and the process keeps running. Callers that keep their
// write buffers intact may retry.
var ErrSyncFailed = errors.New("pmfs: fsync failed")

// FailSyncs arranges for the next `count` File.Sync calls (on any file)
// after `after` further successful ones to fail with ErrSyncFailed without
// fencing anything. Unlike SyncFault this is transient — no panic, no
// crash — and is how the serving-layer tests exercise the retry path of the
// error taxonomy. Passing count <= 0 clears any pending failure window.
func (fs *FS) FailSyncs(after, count int) {
	fs.failAfter = after
	fs.failCount = count
}

// SyncFaultMode selects where inside an fsync the injected crash strikes.
type SyncFaultMode int

const (
	// SyncCrashLost crashes at fsync entry, before its fence: the crash drops
	// every line still in the controller's buffer, the file's unsynced writes
	// and its inode update among them.
	SyncCrashLost SyncFaultMode = iota
	// SyncCrashTorn crashes mid-fsync: a seeded byte prefix of the file's
	// unsynced ranges, in write order and with the line holding the cut kept
	// whole, reaches the medium (and the inode metadata with probability
	// 1/2); the rest is dropped from the un-fenced window, then power fails.
	// This is the torn-append case — the durable file may keep a garbage
	// tail or lose its tail entirely.
	SyncCrashTorn
	// SyncCrashAfter completes the fsync and then crashes: everything the
	// fsync covered must be durable.
	SyncCrashAfter
)

// String names the sync fault mode for logs and failure reports.
func (m SyncFaultMode) String() string {
	switch m {
	case SyncCrashLost:
		return "fsync-lost"
	case SyncCrashTorn:
		return "fsync-torn"
	case SyncCrashAfter:
		return "fsync-after"
	}
	return "unknown"
}

// SyncFault is a seeded, replayable fsync failure: after AfterSyncs further
// File.Sync calls (on any file), the next Sync applies Mode and panics with
// nvm.ErrInjectedCrash. Tests recover the panic, call Device.Crash, and
// reopen the filesystem.
type SyncFault struct {
	Seed       int64
	AfterSyncs int
	Mode       SyncFaultMode
}

// InjectSyncFault installs a sync fault. Any previously installed fault is
// replaced. Only the writes made while a fault is installed are recorded, so
// a torn fsync tears those: install the fault before the writes it is to
// tear. A write made before it is never dropped by the tear.
func (fs *FS) InjectSyncFault(f SyncFault) {
	fs.syncFault = f
	fs.syncFaultSet = true
}

// crashSync fires the installed sync fault during an fsync of inode ino.
// It never returns.
func (fs *FS) crashSync(ino int) {
	fault := fs.syncFault
	fs.syncFaultSet = false
	switch fault.Mode {
	case SyncCrashTorn:
		rng := rand.New(rand.NewSource(fault.Seed))
		spans := fs.dirty[ino]
		var total int64
		for _, s := range spans {
			total += s.end - s.off
		}
		if total > 0 {
			// Keep a seeded byte prefix of the unsynced ranges, in write order,
			// and drop the rest before the fence (line granularity: the line
			// containing the cut is kept whole). A line the controller drained
			// early, or another file's fence covered, is durable regardless.
			cut := rng.Int63n(total + 1)
			for _, s := range spans {
				keep := s.end - s.off
				if keep > cut {
					keep = cut
				}
				cut -= keep
				from := s.off
				if keep > 0 {
					from = (s.off + keep + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
				}
				if from < s.end {
					fs.dev.Discard(from, int(s.end-from))
				}
			}
		}
		if fs.metaDirty[ino] && rng.Intn(2) == 0 {
			fs.dev.WriteBack(fs.inodeOff(ino), inodeSize)
		}
		fs.dev.Fence()
	case SyncCrashAfter:
		fs.syncInode(ino)
	}
	panic(nvm.ErrInjectedCrash)
}
