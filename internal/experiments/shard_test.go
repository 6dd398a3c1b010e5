package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// TestShardTracingByteIdentical is the whole-testbed determinism contract
// of the cluster tick (DESIGN.md §5.7). A 3-server Hadoop testbed grows
// to 129 servers with idle tenant VMs, which the automatic partition
// splits into 3 shards; the cold servers park, and a mid-run antagonist
// wakes one in the last shard. The traced run must emit Perfetto JSON
// byte-identical to the same run with every server marked dirty before
// every tick — the reference with nothing parked, reused or fused — so
// every span boundary, phase attribution and control-plane instant lands
// on the same timestamp; and every VM's cgroup counters, which include
// the woken cold server's, must match too.
func TestShardTracingByteIdentical(t *testing.T) {
	run := func(reference bool) ([]byte, []any) {
		pc := ControllerConfig()
		col := obs.NewCollector()
		pc.Events = col
		tr := trace.NewTracer()
		tb := NewTestbed(TestbedConfig{
			Seed:      7,
			Servers:   3,
			PerfCloud: pc,
			Tracer:    tr,
		})
		tb.CM.ProvisionServers(126)
		for i := 0; i < 252; i++ {
			if _, err := tb.CM.Boot(cloud.VMSpec{Name: fmt.Sprintf("tenant-%03d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := tb.Clus.ShardCount(); got != 3 {
			t.Fatalf("129-server testbed has %d shards, want 3", got)
		}
		if reference {
			// After the frameworks, whose ticks may dirty servers, and
			// before the cluster.
			tb.Eng.RegisterPriority(sim.TickFunc(func(*sim.Clock) {
				tb.Clus.EachServer((*cluster.Server).MarkDirty)
			}), -1)
		}
		tb.MustInput("input", 512<<20)
		tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn))
		tb.Eng.Run(50)
		tb.AddAntagonist(128, workloads.NewFioRandRead(workloads.AlwaysOn))
		tb.RunMR(mapreduce.Terasort("input", 4), 30*time.Minute)
		if fp := tb.Clus.FastPathStats(); !reference && (fp.QuiescentSkips == 0 || fp.ShardSkips == 0 || fp.SteadyReuses == 0) {
			t.Fatalf("plain run missed a fast path: %+v", fp)
		}
		var b bytes.Buffer
		if err := tr.WritePerfetto(&b, col.Events()); err != nil {
			t.Fatal(err)
		}
		var counters []any
		tb.Clus.EachVM(func(v *cluster.VM) { counters = append(counters, v.Cgroup().Snapshot()) })
		return b.Bytes(), counters
	}

	refTrace, refCounters := run(true)
	plainTrace, plainCounters := run(false)
	if !bytes.Equal(refTrace, plainTrace) {
		t.Error("sharded run produced different trace bytes than the dirty-every-tick reference")
	}
	if !reflect.DeepEqual(refCounters, plainCounters) {
		t.Error("sharded run produced different cgroup counters than the dirty-every-tick reference")
	}
}
