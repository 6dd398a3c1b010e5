package cluster

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// BenchmarkQuiescentCluster ticks a 16-server, 128-VM cluster in which
// every VM is idle (no workload attached). This is the shape of the
// large-scale mixes between task waves: most servers host only VMs that
// currently place zero demand, yet the seed pipeline paid the full grant
// phase (CPU, memory and disk allocation plus cgroup accounting) on every
// one of them every tick.
func BenchmarkQuiescentCluster(b *testing.B) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	cl := New()
	cl.SetTickWorkers(1) // isolate the per-server cost from fan-out noise
	for s := 0; s < 16; s++ {
		srv := cl.AddServer(fmt.Sprintf("s%02d", s), DefaultServerConfig(), eng.RNG())
		for i := 0; i < 8; i++ {
			cl.AddVM(srv, fmt.Sprintf("s%02d-vm%d", s, i), 2, 8<<30, LowPriority, "")
		}
	}
	clk := eng.Clock()
	cl.Tick(clk) // build the shard partition; the idle servers are born parked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Tick(clk)
	}
}

// steadyBench is a minimal epoch-reporting workload with constant demand
// and no bookkeeping, so the benchmark measures only the pipeline.
type steadyBench struct{ demand Demand }

func (w *steadyBench) Name() string                     { return "steady" }
func (w *steadyBench) Demand(tickSec float64) Demand    { return w.demand }
func (w *steadyBench) Advance(tickSec float64, g Grant) {}
func (w *steadyBench) Done() bool                       { return false }
func (w *steadyBench) DemandEpoch() uint64              { return 0 }

// activeCluster builds a 16-server, 128-VM cluster in which every VM runs
// an epoch-reporting workload with constant demand — the steady state of
// a busy mix mid-wave, where quiescence never applies and the demand
// vectors repeat tick after tick.
func activeCluster(eng *sim.Engine) *Cluster {
	cl := New()
	cl.SetTickWorkers(1) // isolate the per-server cost from fan-out noise
	for s := 0; s < 16; s++ {
		srv := cl.AddServer(fmt.Sprintf("s%02d", s), DefaultServerConfig(), eng.RNG())
		for i := 0; i < 8; i++ {
			vm := cl.AddVM(srv, fmt.Sprintf("s%02d-vm%d", s, i), 2, 8<<30, LowPriority, "")
			vm.SetWorkload(&steadyBench{demand: busyDemand()})
		}
	}
	return cl
}

// BenchmarkActiveServerTick measures the steady-state cost of ticking
// busy servers: demand-epoch reuse serves every tick and the fused steady
// path replays the allocator memos in place.
func BenchmarkActiveServerTick(b *testing.B) {
	benchActiveTick(b, false)
}

// BenchmarkActiveServerTickDirty is the same workload with every server
// marked dirty before each tick, as the reference runs in the tests do:
// each tick rebuilds the demand and request vectors. Its ratio to
// BenchmarkActiveServerTick is the price demand reuse saves.
func BenchmarkActiveServerTickDirty(b *testing.B) {
	benchActiveTick(b, true)
}

// BenchmarkShardScale pins the sharded tick path's O(active + shards)
// contract: the same fixed set of busy servers (8 steady workloads)
// inside fleets of different total size. Growing the fleet 10x grows
// only the shard count (total/64 one-comparison skips per tick), so
// ns/tick between the sub-benchmarks should stay well inside 2x — the
// ratio `make bench-scale` gates on. A flat O(total) tick would scale
// the cost 10x.
func BenchmarkShardScale(b *testing.B) {
	for _, total := range []int{1024, 10240} {
		b.Run(fmt.Sprintf("servers=%d", total), func(b *testing.B) {
			eng := sim.NewEngine(100*time.Millisecond, 3)
			cl := New()
			cl.SetTickWorkers(1) // isolate the per-tick cost from fan-out noise
			const busy = 8
			for s := 0; s < total; s++ {
				srv := cl.AddServer(fmt.Sprintf("s%05d", s), DefaultServerConfig(), eng.RNG())
				vm := cl.AddVM(srv, fmt.Sprintf("s%05d-vm", s), 2, 8<<30, LowPriority, "")
				if s < busy {
					vm.SetWorkload(&steadyBench{demand: busyDemand()})
				}
			}
			clk := eng.Clock()
			cl.Tick(clk) // first tick wakes the busy servers; idle ones are born parked
			cl.Tick(clk) // second runs the fused steady path the loop measures
			if got := cl.ActiveServers(); got != busy {
				b.Fatalf("active servers = %d, want %d", got, busy)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.Tick(clk)
			}
		})
	}
}

func benchActiveTick(b *testing.B, dirty bool) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	cl := activeCluster(eng)
	clk := eng.Clock()
	cl.Tick(clk) // settle scratch buffers and arm the memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dirty {
			cl.EachServer((*Server).MarkDirty)
		}
		cl.Tick(clk)
	}
}
