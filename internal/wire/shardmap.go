package wire

// ShardRoute is one shard's placement: the primary that accepts writes, an
// optional backup receiving shipped log batches, and the fencing epoch. The
// epoch increments on every primary change; a REPL frame carrying an older
// epoch is rejected with StatusStaleEpoch, which is how a deposed primary
// discovers it has been fenced.
type ShardRoute struct {
	Epoch   uint64
	Primary string // node address; empty means the shard is down
	Backup  string // empty while unreplicated (backup dead or being re-seeded)
	// Reseeding marks an in-flight backup enrollment: the coordinator has
	// dispatched a re-seed whose SnapDone will enroll a node this map does
	// not list yet. While set, nodes must not derive replication-state
	// changes for the shard from this map — a map built during the window
	// is authoritative about placement but stale about enrollment, and
	// acting on it would demote the freshly seeded backup (or detach the
	// primary from it) the moment the snapshot completes.
	Reseeding bool
}

// ShardMap is the cluster's routing table: Version orders successive maps
// (clients keep the highest they have seen), Shards is indexed by shard id.
// A shard id doubles as the partition index on every node that hosts it, so
// a request pinned to shard s executes against partition s wherever it lands.
type ShardMap struct {
	Version uint64
	Shards  []ShardRoute
}

// ShardOf maps a primary key to its shard with a fixed multiplicative hash
// (splitmix64's finalizer constant). Deliberately NOT key%n: cluster
// placement must not be confused with the testbed's intra-node key%parts
// routing, and the mixer spreads sequential key ranges across shards.
func ShardOf(key uint64, shards int) int {
	if shards <= 0 {
		return 0
	}
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(shards))
}

// ShardOf maps a key onto this map's shards.
func (m *ShardMap) ShardOf(key uint64) int { return ShardOf(key, len(m.Shards)) }

// Clone deep-copies the map so a holder can mutate its copy freely.
func (m *ShardMap) Clone() *ShardMap {
	out := &ShardMap{Version: m.Version, Shards: make([]ShardRoute, len(m.Shards))}
	copy(out.Shards, m.Shards)
	return out
}

// maxShards bounds a map's routes (a hostile count must not balloon memory).
const maxShards = 1 << 16

// shardMap moves a map that must be present: version nshards
// { epoch primary backup flags }*; flags bit 0 is Reseeding.
func (c *codec) shardMap(mp **ShardMap) {
	if c.enc && *mp == nil {
		c.failf("wire: shard map missing")
	}
	if !c.enc {
		*mp = &ShardMap{}
	}
	if c.err != nil {
		return
	}
	m := *mp
	c.u64(&m.Version)
	n := c.count(len(m.Shards), 3)
	if n > maxShards {
		c.failf("wire: shard map with %d shards", n)
	}
	if !c.enc && c.err == nil {
		m.Shards = make([]ShardRoute, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		s := &m.Shards[i]
		c.u64(&s.Epoch)
		c.str(&s.Primary)
		c.str(&s.Backup)
		var flags uint64
		if s.Reseeding {
			flags = 1
		}
		uv(c, &flags, 1, "shard route flags")
		if !c.enc {
			s.Reseeding = flags == 1
		}
	}
}
