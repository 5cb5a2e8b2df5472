package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"strings"
	"time"

	"nstore/internal/core"
)

// RecoveryStat records one partition's last recovery pass.
type RecoveryStat struct {
	Partition int
	// Wall is the partition's recovery latency (engine recovery protocol
	// plus environment reopen), including the simulated NVM stall.
	Wall time.Duration
	// Records is the engine's unit count of recovery work (WAL records
	// replayed, pages warmed, chunks classified).
	Records int64
}

func (db *DB) recordRecoveryStat(s RecoveryStat) {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if len(db.lastRecovery) != len(db.parts) {
		db.lastRecovery = make([]RecoveryStat, len(db.parts))
		for i := range db.lastRecovery {
			db.lastRecovery[i].Partition = i
		}
	}
	db.lastRecovery[s.Partition] = s
}

// RecoveryStats returns a copy of the last recorded per-partition recovery
// statistics (zero-valued entries for partitions that never recovered). Safe
// to call concurrently with partition heals.
func (db *DB) RecoveryStats() []RecoveryStat {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	out := make([]RecoveryStat, len(db.lastRecovery))
	copy(out, db.lastRecovery)
	return out
}

// Recover reopens every partition after a crash, running the engine's
// recovery protocol through EachPartition (each engine recovers on its
// worker's goroutine, one step after another). It returns the
// wall-clock recovery latency modeled on parallel hardware: the slowest
// single partition, since each partition owns its device and there is no
// cross-partition happens-before during recovery.
func (db *DB) Recover() (time.Duration, error) {
	durs := make([]time.Duration, len(db.parts))
	err := db.EachPartition(func(i int) error {
		d, err := db.RecoverPartition(i)
		durs[i] = d
		return err
	})
	if err != nil {
		return 0, err
	}
	var max time.Duration
	for _, d := range durs {
		if d > max {
			max = d
		}
	}
	return max, nil
}

// StateDigest canonically serializes the database's visible state — primary
// scans of every configured table, partition by partition — and hashes it.
// Two recoveries of the same device images must produce the same digest,
// however many partitions recover at once.
func (db *DB) StateDigest() ([32]byte, error) {
	h := sha256.New()
	for p := 0; p < db.Partitions(); p++ {
		if err := db.digestPartition(h, p); err != nil {
			return [32]byte{}, err
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// PartitionDigest hashes one partition's visible state with the same
// canonical serialization StateDigest uses. The cluster layer compares a
// shard (one partition on each replica) across nodes, where whole-database
// digests would mix in shards the nodes do not share.
func (db *DB) PartitionDigest(p int) ([32]byte, error) {
	h := sha256.New()
	if err := db.digestPartition(h, p); err != nil {
		return [32]byte{}, err
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

func (db *DB) digestPartition(h hash.Hash, p int) error {
	var le [8]byte
	writeU64 := func(v uint64) { binary.LittleEndian.PutUint64(le[:], v); h.Write(le[:]) }
	e := db.Engine(p)
	defer exclude(e)()
	for _, sch := range db.cfg.Schemas {
		// Hidden bookkeeping tables ("__" prefix: 2PC locks and txn status
		// records) are transient protocol state, not visible data — a shard
		// mid-roll-forward must digest equal to one already settled.
		if strings.HasPrefix(sch.Name, "__") {
			continue
		}
		if err := e.ScanRange(sch.Name, 0, ^uint64(0), func(pk uint64, row []core.Value) bool {
			writeU64(pk)
			for ci, col := range sch.Columns {
				if col.Type == core.TInt {
					writeU64(uint64(row[ci].I))
				} else {
					writeU64(uint64(len(row[ci].S)))
					h.Write(row[ci].S)
				}
			}
			return true
		}); err != nil {
			return err
		}
	}
	return nil
}
