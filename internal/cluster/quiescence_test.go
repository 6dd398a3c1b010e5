package cluster

import (
	"testing"
	"time"

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
	eng, c, srv, _ := quiesceFixture(t)
	eng.Step()
	if !srv.Quiescent() {
		t.Fatal("all-idle server should be quiescent")
	}
	epoch := srv.PlacementEpoch()
	c.AddVM(srv, "vm-2", 2, 8<<30, LowPriority, "")
	if srv.Quiescent() {
		t.Error("AddVM must dirty the server")
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
