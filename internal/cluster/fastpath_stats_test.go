package cluster

import (
	"testing"
	"time"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// fastPathFixture builds one busy server (an epoch-reporting workload)
// and one idle server; with reference set, the run marks every server
// dirty before every tick.
func fastPathFixture(reference bool) (eng *sim.Engine, c *Cluster, busy, idle *Server, w *epochWorkload) {
	eng = sim.NewEngine(100*time.Millisecond, 7)
	c = New()
	c.SetTickWorkers(1)
	busy = c.AddServer("busy", DefaultServerConfig(), eng.RNG())
	idle = c.AddServer("idle", DefaultServerConfig(), eng.RNG())
	vm := c.AddVM(busy, "vm-busy", 2, 8<<30, LowPriority, "")
	c.AddVM(idle, "vm-idle", 2, 8<<30, LowPriority, "")
	w = &epochWorkload{fakeWorkload: fakeWorkload{name: "vm-busy", demand: busyDemand()}}
	vm.SetWorkload(w)
	if reference {
		dirtyEveryTick(eng, c)
	}
	eng.Register(c)
	return eng, c, busy, idle, w
}

// TestFastPathStatsAccounting runs one busy and one idle server through
// a mix of reused, rebuilt and skipped ticks and checks that the
// counters partition the grant phases the way the fast paths actually
// ran them, and that the dirty-every-tick reference rebuilds every one.
func TestFastPathStatsAccounting(t *testing.T) {
	const ticks = 20
	eng, c, busy, idle, w := fastPathFixture(false)
	eng.Run(ticks)

	bfp := busy.FastPathStats()
	if bfp.QuiescentSkips != 0 {
		t.Fatalf("busy server skipped %d ticks, want 0", bfp.QuiescentSkips)
	}
	if got := bfp.SteadyReuses + bfp.Rebuilds; got != ticks {
		t.Fatalf("busy server ran %d grant phases, want %d", got, ticks)
	}
	// Constant demand: the first tick rebuilds, every later one reuses.
	if bfp.Rebuilds != 1 || bfp.SteadyReuses != ticks-1 {
		t.Fatalf("busy server rebuilds=%d steady=%d, want 1, %d", bfp.Rebuilds, bfp.SteadyReuses, ticks-1)
	}
	// Reused ticks still run the (memoized) allocators.
	if bfp.CPUMemoHits == 0 || bfp.DiskMemoHits == 0 || bfp.MemMemoHits == 0 {
		t.Fatalf("busy server recorded no allocator memo hits: %+v", bfp)
	}

	ifp := idle.FastPathStats()
	// The idle server is born parked and hosts only an idle VM: it never
	// runs a grant phase, and every tick counts as skipped.
	if ifp.Rebuilds != 0 || ifp.QuiescentSkips != ticks {
		t.Fatalf("idle server rebuilds=%d skips=%d, want 0, %d", ifp.Rebuilds, ifp.QuiescentSkips, ticks)
	}

	// The cluster total is the per-server sum.
	var want obs.FastPathSnapshot
	want.Add(bfp)
	want.Add(ifp)
	if got := c.FastPathStats(); got != want {
		t.Fatalf("cluster stats = %+v, want %+v", got, want)
	}

	// A demand-epoch bump forces exactly one more rebuild.
	w.setDemand(Demand{CPUSeconds: 0.05, CoreCPI: 1})
	eng.Run(2)
	bfp2 := busy.FastPathStats()
	if bfp2.Rebuilds != bfp.Rebuilds+1 || bfp2.SteadyReuses != bfp.SteadyReuses+1 {
		t.Fatalf("after epoch bump rebuilds=%d steady=%d, want %d, %d",
			bfp2.Rebuilds, bfp2.SteadyReuses, bfp.Rebuilds+1, bfp.SteadyReuses+1)
	}

	// The reference runs the full pipeline on every server every tick.
	eng, c, _, _, _ = fastPathFixture(true)
	eng.Run(ticks)
	ref := c.FastPathStats()
	if ref.QuiescentSkips != 0 || ref.SteadyReuses != 0 || ref.Rebuilds != 2*ticks {
		t.Fatalf("reference skips=%d steady=%d rebuilds=%d, want 0, 0, %d",
			ref.QuiescentSkips, ref.SteadyReuses, ref.Rebuilds, 2*ticks)
	}
}
