package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// TestShardPartition checks the partition arithmetic: contiguous ranges
// covering every server, near-equal sizes, and the shard-count semantics
// (0 auto, n forced, clamped to the server count).
func TestShardPartition(t *testing.T) {
	build := func(servers, setting int) *Cluster {
		eng := sim.NewEngine(100*time.Millisecond, 1)
		c := New()
		c.shardCount = setting
		for i := 0; i < servers; i++ {
			c.AddServer(fmt.Sprintf("s%03d", i), DefaultServerConfig(), eng.RNG())
		}
		return c
	}
	cases := []struct {
		servers, setting, wantShards int
	}{
		{6, 0, 1},     // auto: small cluster collapses to one shard
		{64, 0, 1},    // auto: exactly one full shard
		{130, 0, 3},   // auto: ceil(130/64)
		{10, 3, 3},    // forced
		{10, 200, 10}, // forced beyond server count: clamped
	}
	for _, tc := range cases {
		c := build(tc.servers, tc.setting)
		if got := c.ShardCount(); got != tc.wantShards {
			t.Errorf("servers=%d setting=%d: ShardCount = %d, want %d",
				tc.servers, tc.setting, got, tc.wantShards)
			continue
		}
		// Ranges must tile [0, servers) in order, sizes within 1.
		next, min, max := 0, tc.servers, 0
		for i := range c.shards {
			sh := &c.shards[i]
			if sh.start != next || sh.end <= sh.start {
				t.Errorf("servers=%d setting=%d: shard %d range [%d,%d) after %d",
					tc.servers, tc.setting, i, sh.start, sh.end, next)
			}
			next = sh.end
			if sz := sh.end - sh.start; sz < min {
				min = sz
			} else if sz > max {
				max = sz
			}
			// Every index in range must map back to this shard.
			for j := sh.start; j < sh.end; j++ {
				if c.shardIndex(j) != i {
					t.Fatalf("shardIndex(%d) = %d, want %d", j, c.shardIndex(j), i)
				}
			}
		}
		if next != tc.servers {
			t.Errorf("servers=%d setting=%d: shards cover [0,%d), want [0,%d)",
				tc.servers, tc.setting, next, tc.servers)
		}
		if max-min > 1 {
			t.Errorf("servers=%d setting=%d: shard sizes range %d..%d, want near-equal",
				tc.servers, tc.setting, min, max)
		}
	}
}

// shardScenario drives one cluster through the life cycle the sharded
// path must get right — busy servers finishing into quiescence, a long
// parked stretch, cross-shard migration off a parked server, wake-ups, a
// mid-run server addition forcing a repartition, and an always-empty
// server — and returns every observable output: cgroup counters, last
// grants, and the fast-path totals (minus the shard-only counter). With
// reference set, the run marks every server dirty before every tick.
func shardScenario(shards int, reference bool) (snaps []any, fp obs.FastPathSnapshot) {
	eng := sim.NewEngine(100*time.Millisecond, 42)
	c := New()
	c.SetTickWorkers(1)
	c.shardCount = shards
	if reference {
		dirtyEveryTick(eng, c)
	}
	eng.Register(c)
	var vms []*VM
	for s := 0; s < 10; s++ {
		srv := c.AddServer(fmt.Sprintf("server-%d", s), DefaultServerConfig(), eng.RNG())
		if s == 9 {
			continue // server-9 stays empty for the whole run
		}
		for i := 0; i < 2; i++ {
			vms = append(vms, c.AddVM(srv, fmt.Sprintf("vm-%d-%d", s, i), 2, 8<<30, LowPriority, ""))
		}
	}
	// Wave 1: even servers run finite workloads, then everything idles.
	for s := 0; s < 9; s += 2 {
		c.FindVM(fmt.Sprintf("vm-%d-0", s)).SetWorkload(
			&fakeWorkload{name: "w1", demand: busyDemand(), maxWork: 0.5})
	}
	eng.Run(30)
	// Cross-shard migration off a parked server, then wave 2 on both the
	// migrated VM and a never-woken server.
	if err := c.MoveVM("vm-3-1", "server-7"); err != nil {
		panic(err)
	}
	c.FindVM("vm-3-1").SetWorkload(&fakeWorkload{name: "w2", demand: busyDemand(), maxWork: 0.4})
	c.FindVM("vm-1-0").SetWorkload(&fakeWorkload{name: "w3", demand: busyDemand(), maxWork: 0.4})
	eng.Run(30)
	// Mid-run provisioning repartitions the cluster.
	srv := c.AddServer("server-10", DefaultServerConfig(), eng.RNG())
	nv := c.AddVM(srv, "vm-10-0", 2, 8<<30, LowPriority, "")
	nv.SetWorkload(&fakeWorkload{name: "w4", demand: busyDemand(), maxWork: 0.3})
	vms = append(vms, nv)
	eng.Run(20)
	for _, v := range vms {
		snaps = append(snaps, v.Cgroup().Snapshot(), v.LastGrant())
	}
	fp = c.FastPathStats()
	fp.ShardSkips = 0 // the only counter that legitimately differs by mode
	return snaps, fp
}

// TestShardedMatchesFlat is the cluster-level bit-for-bit equivalence
// check: the same scenario under one shard, three shards, seven shards
// and the automatic partition must produce the cgroup counters and grants
// of the flat dirty-every-tick reference, which visits every server every
// tick, and identical fast-path totals across partitions.
func TestShardedMatchesFlat(t *testing.T) {
	wantSnaps, _ := shardScenario(0, true)
	_, wantFP := shardScenario(0, false)
	for _, shards := range []int{0, 1, 3, 7} {
		snaps, fp := shardScenario(shards, false)
		if !reflect.DeepEqual(snaps, wantSnaps) {
			t.Errorf("shards=%d: outputs diverge from the dirty-every-tick reference", shards)
		}
		if fp != wantFP {
			t.Errorf("shards=%d: fast-path stats diverge from the automatic partition:\nauto:  %+v\nshard: %+v", shards, wantFP, fp)
		}
	}
}

// TestShardActiveSetBookkeeping checks the O(active) contract directly:
// parked servers leave the active set, wholly inactive shards are
// skipped, and dirtying events restore exactly the touched servers.
func TestShardActiveSetBookkeeping(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 7)
	c := New()
	c.SetTickWorkers(1)
	c.shardCount = 3
	eng.Register(c)
	var vms []*VM
	for s := 0; s < 9; s++ {
		srv := c.AddServer(fmt.Sprintf("server-%d", s), DefaultServerConfig(), eng.RNG())
		vms = append(vms, c.AddVM(srv, fmt.Sprintf("vm-%d", s), 2, 8<<30, LowPriority, ""))
	}
	// Servers are born parked, and idle VMs leave them parked.
	if got := c.ActiveServers(); got != 0 {
		t.Fatalf("fresh all-idle cluster ActiveServers = %d, want 0", got)
	}
	eng.Run(3)
	if got := c.ActiveServers(); got != 0 {
		t.Fatalf("all-idle cluster ActiveServers = %d, want 0", got)
	}
	skipsBefore := c.FastPathStats().ShardSkips
	eng.Run(4)
	if got := c.FastPathStats().ShardSkips - skipsBefore; got != 12 {
		t.Errorf("4 parked ticks skipped %d shards, want 12 (3 shards x 4 ticks)", got)
	}
	// Wake one server; only it returns to the active set.
	vms[4].SetWorkload(&fakeWorkload{name: "w", demand: busyDemand(), maxWork: 1e9})
	eng.Step()
	if got := c.ActiveServers(); got != 1 {
		t.Errorf("after one wake ActiveServers = %d, want 1", got)
	}
	if vms[4].LastGrant().CPUSeconds == 0 {
		t.Error("woken workload received no grant")
	}
	// Dirtying every server runs each one's grant phase once, then parks
	// the idle ones again.
	rebuilds := c.FastPathStats().Rebuilds
	c.EachServer((*Server).MarkDirty)
	eng.Step()
	if got := c.FastPathStats().Rebuilds - rebuilds; got != 9 {
		t.Errorf("tick after dirtying all 9 servers rebuilt %d grant phases, want 9", got)
	}
	if got := c.ActiveServers(); got != 1 {
		t.Errorf("after re-parking ActiveServers = %d, want 1", got)
	}
}

// TestFirstTickIsOActive gates the O(active) contract from the first
// tick on: in a 1,008-server fleet where 1,000 servers host 20 idle VMs
// each and 8 host one busy VM each, the first tick may allocate only what
// the 8 busy servers and the shard bookkeeping need, not grant buffers,
// allocator memos and AR(1) state for the idle fleet. The allocation
// delta is taken within one run, so the bound holds on any machine. Not
// parallel: runtime.MemStats counts the whole process.
func TestFirstTickIsOActive(t *testing.T) {
	const idle, busy, vmsPerServer = 1000, 8, 20
	eng := sim.NewEngine(100*time.Millisecond, 5)
	c := New()
	c.SetTickWorkers(1)
	for s := 0; s < idle+busy; s++ {
		srv := c.AddServer(fmt.Sprintf("s%04d", s), DefaultServerConfig(), eng.RNG())
		if s >= idle {
			vm := c.AddVM(srv, fmt.Sprintf("s%04d-vm", s), 2, 8<<30, LowPriority, "")
			vm.SetWorkload(&fakeWorkload{name: vm.ID(), demand: busyDemand()})
			continue
		}
		for i := 0; i < vmsPerServer; i++ {
			c.AddVM(srv, fmt.Sprintf("s%04d-vm%02d", s, i), 2, 8<<30, LowPriority, "")
		}
	}
	if got := c.ActiveServers(); got != 0 {
		t.Fatalf("before the first tick ActiveServers = %d, want 0 (busy wakes only queued)", got)
	}
	clk := eng.Clock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Tick(clk)
	runtime.ReadMemStats(&after)
	if got := c.ActiveServers(); got != busy {
		t.Fatalf("after the first tick ActiveServers = %d, want %d", got, busy)
	}
	const limit = 256 << 10
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > limit {
		t.Errorf("first tick allocated %d bytes in %d allocations, want at most %d",
			bytes, after.Mallocs-before.Mallocs, limit)
	}
}
