package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// quiesceFixture builds one server with two VMs.
func quiesceFixture(t *testing.T) (*sim.Engine, *Cluster, *Server, *VM) {
	t.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 42)
	c := New()
	c.SetTickWorkers(1)
	eng.Register(c)
	srv := c.AddServer("server-0", DefaultServerConfig(), eng.RNG())
	v := c.AddVM(srv, "vm-0", 2, 8<<30, HighPriority, "app")
	c.AddVM(srv, "vm-1", 2, 8<<30, LowPriority, "")
	return eng, c, srv, v
}

func TestServerBecomesQuiescentWhenIdle(t *testing.T) {
	eng, _, srv, v := quiesceFixture(t)
	w := &fakeWorkload{name: "w", demand: busyDemand(), maxWork: 0.3}
	v.SetWorkload(w)
	if srv.Quiescent() {
		t.Fatal("fresh server should not be quiescent before a processed tick")
	}
	for i := 0; i < 40 && !srv.Quiescent(); i++ {
		eng.Step()
	}
	if !w.Done() {
		t.Fatal("workload never finished")
	}
	if !srv.Quiescent() {
		t.Error("server with only done/idle VMs should turn quiescent")
	}
	// Skipped ticks must not disturb cgroup counters or last grants.
	before := v.Cgroup().Snapshot()
	eng.Run(5)
	if v.Cgroup().Snapshot() != before {
		t.Error("skipped ticks changed cgroup counters")
	}
	if g := v.LastGrant(); g != (Grant{}) {
		t.Errorf("idle VM last grant = %+v, want zero", g)
	}
}

func TestWorkloadAttachDirtiesServer(t *testing.T) {
	eng, _, srv, v := quiesceFixture(t)
	eng.Step() // both VMs idle: first processed tick proves quiescence
	if !srv.Quiescent() {
		t.Fatal("all-idle server should be quiescent after one tick")
	}
	v.SetWorkload(&fakeWorkload{name: "w", demand: busyDemand()})
	if srv.Quiescent() {
		t.Error("attaching a workload must dirty the server")
	}
	eng.Step()
	if v.LastGrant().CPUSeconds == 0 {
		t.Error("woken workload received no grant")
	}
}

func TestPlacementChangeDirtiesServer(t *testing.T) {
	eng, c, srv, v := quiesceFixture(t)
	// A server that has granted: run a workload, detach it, and let the
	// all-idle tick park the server again.
	v.SetWorkload(&fakeWorkload{name: "w", demand: busyDemand()})
	eng.Step()
	v.SetWorkload(nil)
	eng.Step()
	if !srv.Quiescent() || c.ActiveServers() != 0 {
		t.Fatal("all-idle server should be quiescent and parked")
	}
	epoch := srv.PlacementEpoch()
	c.AddVM(srv, "vm-2", 2, 8<<30, LowPriority, "")
	if srv.Quiescent() {
		t.Error("AddVM must dirty a server that has granted")
	}
	if srv.PlacementEpoch() == epoch {
		t.Error("AddVM must move the placement epoch")
	}
	eng.Step()
	epoch = srv.PlacementEpoch()
	c.RemoveVM("vm-2")
	if srv.Quiescent() || srv.PlacementEpoch() == epoch {
		t.Error("RemoveVM must dirty the server and move the epoch")
	}
}

// TestAddVMLeavesNeverGrantedServerParked checks the born-parked case: an
// idle VM added to a parked server that has never granted moves the
// placement epoch but neither dirties nor wakes the server.
func TestAddVMLeavesNeverGrantedServerParked(t *testing.T) {
	eng, c, srv, _ := quiesceFixture(t)
	eng.Run(3)
	epoch := srv.PlacementEpoch()
	c.AddVM(srv, "vm-2", 2, 8<<30, LowPriority, "")
	if srv.PlacementEpoch() == epoch {
		t.Error("AddVM must move the placement epoch")
	}
	if !srv.Quiescent() {
		t.Error("AddVM of an idle VM must leave a never-granted server quiescent")
	}
	eng.Run(3)
	if got := c.ActiveServers(); got != 0 {
		t.Errorf("ActiveServers = %d, want 0", got)
	}
	if fp := srv.FastPathStats(); fp.Rebuilds != 0 || fp.QuiescentSkips != 6 {
		t.Errorf("rebuilds=%d skips=%d, want 0, 6", fp.Rebuilds, fp.QuiescentSkips)
	}
}

func TestMoveVMDirtiesBothServers(t *testing.T) {
	eng, c, src, _ := quiesceFixture(t)
	dst := c.AddServer("server-1", DefaultServerConfig(), eng.RNG())
	c.AddVM(dst, "vm-d", 2, 8<<30, LowPriority, "")
	eng.Step()
	if !src.Quiescent() || !dst.Quiescent() {
		t.Fatal("both idle servers should be quiescent")
	}
	se, de := src.PlacementEpoch(), dst.PlacementEpoch()
	if err := c.MoveVM("vm-1", "server-1"); err != nil {
		t.Fatal(err)
	}
	if src.Quiescent() || dst.Quiescent() {
		t.Error("migration must dirty source and destination")
	}
	if src.PlacementEpoch() == se || dst.PlacementEpoch() == de {
		t.Error("migration must move both placement epochs")
	}
}

// TestQuiescenceToggleBitForBit runs the same bursty scenario — a
// workload that finishes, a long all-idle stretch, then a second
// workload waking the server — plainly and as the dirty-every-tick
// reference, and demands identical cgroup counters. The idle stretch
// parks the server in the plain run; the wake-up must replay the disk's
// idle jitter draws so the post-wake grants match exactly.
func TestQuiescenceToggleBitForBit(t *testing.T) {
	run := func(reference bool) (a, b any) {
		eng := sim.NewEngine(100*time.Millisecond, 42)
		c := New()
		c.SetTickWorkers(1)
		if reference {
			dirtyEveryTick(eng, c)
		}
		eng.Register(c)
		srv := c.AddServer("server-0", DefaultServerConfig(), eng.RNG())
		v0 := c.AddVM(srv, "vm-0", 2, 8<<30, HighPriority, "app")
		v1 := c.AddVM(srv, "vm-1", 2, 8<<30, LowPriority, "")
		v0.SetWorkload(&fakeWorkload{name: "w0", demand: busyDemand(), maxWork: 0.3})
		eng.Run(30)
		v1.SetWorkload(&fakeWorkload{name: "w1", demand: busyDemand(), maxWork: 0.5})
		eng.Run(30)
		return v0.Cgroup().Snapshot(), v1.Cgroup().Snapshot()
	}
	a0, a1 := run(true)
	b0, b1 := run(false)
	if a0 != b0 || a1 != b1 {
		t.Errorf("counters diverge from the reference:\nreference: %+v / %+v\nparked:    %+v / %+v", a0, a1, b0, b1)
	}
}

// bornParkedScenario boots six servers (two per shard at three shards)
// with idle VMs, adds more idle VMs to the parked, never-granted servers
// after k elided ticks (and once more later, and once alongside a queued
// wake), removes and migrates VMs off one of them, then wakes some of
// them with SetWorkload. It returns every VM's cgroup counters and last
// grant, every workload's grant history, and the cluster. With reference
// set, every server is marked dirty before every tick. check is called
// between ticks, after each burst of placement changes and wakes.
func bornParkedScenario(shards int, reference bool, check func(*Cluster)) (out []any, c *Cluster) {
	eng := sim.NewEngine(100*time.Millisecond, 11)
	c = New()
	c.SetTickWorkers(1)
	c.shardCount = shards
	if reference {
		dirtyEveryTick(eng, c)
	}
	eng.Register(c)
	var srvs []*Server
	var vms []*VM
	add := func(s int) *VM {
		v := c.AddVM(srvs[s], fmt.Sprintf("vm-%d-%d", s, len(vms)), 2, 8<<30, LowPriority, "")
		vms = append(vms, v)
		return v
	}
	for s := 0; s < 6; s++ {
		srvs = append(srvs, c.AddServer(fmt.Sprintf("server-%d", s), DefaultServerConfig(), eng.RNG()))
		for i := 0; i < 3; i++ {
			add(s)
		}
	}
	var loads []*fakeWorkload
	// A disk-heavy demand saturates the device, so every grant's wait
	// scales with the AR(1) luck draws the parked stretches replay.
	heavy := busyDemand()
	heavy.IOOps, heavy.IOBytes = 2000, 2000*4096
	wake := func(v *VM, work float64) {
		w := &fakeWorkload{name: v.ID(), demand: heavy, maxWork: work}
		v.SetWorkload(w)
		loads = append(loads, w)
	}
	const k = 17
	eng.Run(k)
	for s := 0; s < 5; s++ {
		add(s)
		add(s)
	}
	check(c)
	// Server 2 wakes one elided tick after its stretch restarted.
	eng.Run(1)
	wake(srvs[2].vms[1], 0.5)
	eng.Run(10)
	add(1)
	check(c)
	eng.Run(5)
	// Placement changes off never-granted parked servers wake them; the
	// elided stretch must replay under the VM set it ran with.
	c.RemoveVM(srvs[4].vms[0].ID())
	if err := c.MoveVM(srvs[4].vms[2].ID(), "server-1"); err != nil {
		panic(err)
	}
	eng.Run(4)
	// Server 3's wake is queued before a VM leaves and the next idle VM
	// arrives.
	wake(srvs[3].vms[0], 1.2)
	wake(srvs[3].vms[1], 1.2)
	c.RemoveVM(srvs[3].vms[2].ID())
	add(3)
	// Wake a late VM on server 0.
	wake(srvs[0].vms[4], 0.8)
	eng.Run(20)
	check(c)
	// Server 0 has granted: a new VM now dirties it, and its workload
	// shares the disk with the finished one's neighbours.
	wake(add(0), 0.4)
	wake(srvs[1].vms[3], 0.4)
	wake(srvs[4].vms[1], 0.4)
	eng.Run(20)
	check(c)
	for _, v := range vms {
		out = append(out, v.Cgroup().Snapshot(), v.LastGrant())
	}
	for _, w := range loads {
		out = append(out, w.grants)
	}
	return out, c
}

// TestBornParkedMatchesReference checks that servers born parked, and
// idle VMs added to them without waking them, are bit-for-bit invisible:
// grants, cgroup counters and last grants match the dirty-every-tick
// reference under one and three shards; the cluster's fast-path totals
// always equal the per-server sum (the shards' sumSkipFrom and aggregate
// bookkeeping); and a server that never wakes never sizes its buffers.
func TestBornParkedMatchesReference(t *testing.T) {
	want, _ := bornParkedScenario(1, true, func(*Cluster) {})
	for _, shards := range []int{1, 3} {
		checks := 0
		got, c := bornParkedScenario(shards, false, func(c *Cluster) {
			checks++
			var sum obs.FastPathSnapshot
			c.EachServer(func(s *Server) { sum.Add(s.FastPathStats()) })
			sum.ShardSkips = c.statShardSkips
			if fp := c.FastPathStats(); fp != sum {
				t.Errorf("shards=%d check %d: cluster stats %+v, per-server sum %+v", shards, checks, fp, sum)
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: outputs diverge from the dirty-every-tick reference", shards)
		}
		never := c.FindServer("server-5")
		if never.granted || cap(never.demands)+cap(never.cpuReqs)+cap(never.cpuGrants)+
			cap(never.memReqs)+cap(never.memResults)+cap(never.diskReqs)+cap(never.diskGrants)+
			cap(never.idleFlags) != 0 {
			t.Errorf("shards=%d: never-woken server granted=%v or sized its buffers", shards, never.granted)
		}
		if fp := never.FastPathStats(); fp.Rebuilds != 0 || fp.CPUMemoMisses != 0 {
			t.Errorf("shards=%d: never-woken server ran a grant phase: %+v", shards, fp)
		}
	}
}
