package cluster

import (
	"math/bits"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// Sharded ticking (DESIGN.md §5.7). The server slice is partitioned into
// contiguous, near-equal shards; an active bitset over the slice records
// which servers still need per-tick visits. Servers whose last processed
// tick proved quiescent leave the active set entirely — the tick loop
// never touches them — and the cluster tick counter plus the PR 2 replay
// machinery (Disk.AdvanceIdle via catchUp) settles the elided ticks in
// O(1) bookkeeping when a dirtying event wakes them. A shard none of
// whose servers are active is skipped wholesale, so Tick costs
// O(active servers + shards), not O(total servers).
//
// Determinism: per-server RNG streams are derived from (master seed,
// server id) alone, so the partition cannot perturb any random sequence;
// the grant fan-out remains an unordered iteration over goroutine-private
// server state; and the advance/deactivation sweep walks the bitset in
// ascending server index — creation order, with the provably-no-op
// servers removed. Any partition is bit-for-bit identical to a run that
// marks every server dirty before every tick, which visits every server
// with nothing parked (TestShardedMatchesFlat, TestShardTracingByteIdentical).

// autoShardSize is the target servers-per-shard for the automatic
// partition: small clusters collapse to one shard, planet-scale ones get
// total/64 shards so a fully quiescent shard is skipped with one
// comparison.
const autoShardSize = 64

// shard is one contiguous server range plus its active-set bookkeeping.
type shard struct {
	start, end int // server index range [start, end)

	active   int // servers in range currently in the active set
	inactive int // == (end-start) - active, maintained for stats

	// sumSkipFrom accumulates the deactivation ticks of the range's
	// inactive servers, so the shard's pending elided-tick total is
	// inactive*cluster.ticks - sumSkipFrom without visiting any of them.
	sumSkipFrom uint64

	// agg is the sum of the range's servers' pulled fast-path counters;
	// invariant: agg == Σ server.pulled over the range.
	agg obs.FastPathSnapshot

	scratch []int // per-tick gather of active server indices
}

// pull folds a server's fresh counter deltas into the shard aggregate.
// Called between ticks (stats reads) and at deactivation, never from the
// parallel grant fan-out.
func (sh *shard) pull(s *Server) {
	cur := s.fastPathRaw()
	d := cur
	d.Sub(s.pulled)
	sh.agg.Add(d)
	s.pulled = cur
}

// ShardCount returns the number of shards the current partition holds
// (building it if needed), or 0 for an empty cluster.
func (c *Cluster) ShardCount() int {
	if len(c.servers) == 0 {
		return 0
	}
	c.ensureShards()
	return len(c.shards)
}

// partitionCurrent reports whether the shard partition matches the
// current server count.
func (c *Cluster) partitionCurrent() bool {
	return c.shards != nil && c.partServers == len(c.servers)
}

// ensureShards (re)builds the partition after topology changes: shard
// ranges, the active bitset (from the per-server active flags, the single
// source of truth), and the per-shard bookkeeping. O(total servers), paid
// once per change, not per tick.
func (c *Cluster) ensureShards() {
	if c.partitionCurrent() {
		return
	}
	n := len(c.servers)
	ns := c.shardCount
	if ns == 0 {
		ns = (n + autoShardSize - 1) / autoShardSize
	}
	if ns > n {
		ns = n
	}
	if ns < 1 && n > 0 {
		ns = 1
	}
	c.shards = make([]shard, ns)
	c.shardBase, c.shardRem = 0, 0
	if ns > 0 {
		c.shardBase, c.shardRem = n/ns, n%ns
	}
	start := 0
	for i := range c.shards {
		size := c.shardBase
		if i < c.shardRem {
			size++
		}
		c.shards[i] = shard{start: start, end: start + size}
		start += size
	}
	words := (n + 63) / 64
	if cap(c.activeBits) < words {
		c.activeBits = make([]uint64, words)
	}
	c.activeBits = c.activeBits[:words]
	for i := range c.activeBits {
		c.activeBits[i] = 0
	}
	swords := (ns + 63) / 64
	if cap(c.shardBits) < swords {
		c.shardBits = make([]uint64, swords)
	}
	c.shardBits = c.shardBits[:swords]
	for i := range c.shardBits {
		c.shardBits[i] = 0
	}
	c.inactive = 0
	for i, s := range c.servers {
		si := c.shardIndex(i)
		sh := &c.shards[si]
		sh.agg.Add(s.pulled)
		if s.active {
			c.activeBits[i>>6] |= 1 << uint(i&63)
			sh.active++
			c.shardBits[si>>6] |= 1 << uint(si&63)
		} else {
			sh.inactive++
			sh.sumSkipFrom += s.skipFrom
			c.inactive++
		}
	}
	c.partServers = n
}

// ShardStats is one shard's telemetry key and occupancy — the
// granularity at which fleet-scale exporters aggregate, so a 10k-server
// cluster exposes ~160 shard series instead of 10k server series.
type ShardStats struct {
	Index   int // shard index, stable for a given partition
	Servers int // servers in the shard's range
	Active  int // of those, currently in the active set
}

// EachShardStats calls fn once per shard in index order, building the
// partition if needed. O(shards) per call; a no-op on an empty cluster.
// Call between ticks, like FastPathStats.
func (c *Cluster) EachShardStats(fn func(ShardStats)) {
	if len(c.servers) == 0 {
		return
	}
	c.ensureShards()
	for i := range c.shards {
		sh := &c.shards[i]
		fn(ShardStats{Index: i, Servers: sh.end - sh.start, Active: sh.active})
	}
}

// shardIndex maps a server index to its shard: the first shardRem shards
// hold shardBase+1 servers, the rest shardBase.
func (c *Cluster) shardIndex(i int) int {
	big := c.shardRem * (c.shardBase + 1)
	if i < big {
		return i / (c.shardBase + 1)
	}
	return c.shardRem + (i-big)/c.shardBase
}

// eachActive calls fn for every active server in ascending index
// (creation) order.
func (c *Cluster) eachActive(fn func(*Server)) {
	for w, word := range c.activeBits {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			fn(c.servers[i])
		}
	}
}

// wake returns a server to the active set. completed is the number of
// fully processed cluster ticks; the difference to the server's
// deactivation tick is exactly the grant phases it missed, credited to
// its skipped count — catchUp replays their idle draws on the server's
// next grant phase.
func (c *Cluster) wake(s *Server, completed uint64) {
	if n := completed - s.skipFrom; n > 0 {
		s.skipped += int(n)
		s.statSkipped += n
	}
	s.active = true
	c.inactive--
	c.activeBits[s.index>>6] |= 1 << uint(s.index&63)
	si := c.shardIndex(s.index)
	sh := &c.shards[si]
	sh.active++
	sh.inactive--
	sh.sumSkipFrom -= s.skipFrom
	if sh.active == 1 {
		c.shardBits[si>>6] |= 1 << uint(si&63)
	}
}

// deactivate removes a freshly quiescent server from the active set at
// the end of the advance sweep: snapshot the VM ids present through the
// upcoming skipped stretch (placement changes wake the server, so the
// set is constant across it), record the deactivation tick, and pull the
// server's counters into its shard so stats reads need not visit it.
func (c *Cluster) deactivate(s *Server) {
	s.active = false
	c.inactive++
	c.activeBits[s.index>>6] &^= 1 << uint(s.index&63)
	s.skipFrom = c.ticks
	s.skipIDs = s.skipIDs[:0]
	for _, v := range s.vms {
		s.skipIDs = append(s.skipIDs, v.id)
	}
	si := c.shardIndex(s.index)
	sh := &c.shards[si]
	sh.active--
	sh.inactive++
	sh.sumSkipFrom += s.skipFrom
	sh.pull(s)
	if sh.active == 0 {
		c.shardBits[si>>6] &^= 1 << uint(si&63)
	}
}

// drainWakes processes the reactivation queue at the tick boundary.
// c.ticks has already advanced for the current tick, so the woken server
// missed exactly ticks-1 completed ticks minus its deactivation tick.
func (c *Cluster) drainWakes() {
	if len(c.wakes) == 0 {
		return
	}
	for _, s := range c.wakes {
		s.wakePending = false
		if !s.active {
			c.wake(s, c.ticks-1)
		}
	}
	c.wakes = c.wakes[:0]
}

// grantShard gathers the shard's active servers from the bitset and runs
// their grant phases, fanning out across whatever slots the shared pool
// has left (inline when none — the nested-fan-out contract of
// sim.ForEachShared). The bitset is read-only during the parallel grant
// phase, and the scratch slice is shard-owned, so concurrent shards
// never share mutable state.
func (c *Cluster) grantShard(sh *shard, tickSec float64, workers int) {
	sc := sh.scratch[:0]
	lo, hi := sh.start, sh.end
	for w := lo >> 6; w < (hi+63)>>6; w++ {
		word := c.activeBits[w]
		base := w << 6
		if lo > base {
			word &= ^uint64(0) << uint(lo-base)
		}
		if hi < base+64 {
			word &= (uint64(1) << uint(hi-base)) - 1
		}
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			sc = append(sc, i)
		}
	}
	sh.scratch = sc
	if len(sc) == 1 {
		c.servers[sc[0]].grantPhase(tickSec)
		return
	}
	sim.ForEachShared(len(sc), workers, func(k int) {
		c.servers[sc[k]].grantPhase(tickSec)
	})
}
