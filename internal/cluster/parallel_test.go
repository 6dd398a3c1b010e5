package cluster

import (
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// buildParallelCluster populates a multi-server cluster with a busy VM mix
// so a tick has real work in every server's grant phase.
func buildParallelCluster(servers, vmsPerServer int) (*sim.Engine, *Cluster, []*fakeWorkload) {
	eng := sim.NewEngine(100*time.Millisecond, 42)
	c := New()
	var loads []*fakeWorkload
	for si := 0; si < servers; si++ {
		srv := c.AddServer(srvID(si), DefaultServerConfig(), eng.RNG())
		for vi := 0; vi < vmsPerServer; vi++ {
			vm := c.AddVM(srv, srvID(si)+"-vm-"+string(rune('a'+vi)), 2, 8<<30, HighPriority, "app")
			w := &fakeWorkload{name: vm.ID(), demand: busyDemand()}
			if vi%2 == 1 {
				// Alternate a disk-heavy profile so servers contend internally.
				w.demand.IOOps, w.demand.IOBytes = 2000, 2000*4096
			}
			vm.SetWorkload(w)
			loads = append(loads, w)
		}
	}
	eng.Register(c)
	return eng, c, loads
}

func srvID(i int) string { return "server-" + string(rune('0'+i)) }

// TestParallelTickMatchesSequential runs the same cluster with 1 and 4 tick
// workers and requires identical grant histories — the grant phase must be
// deterministic under any goroutine interleaving. One server per shard
// makes the 4-worker run fan out (a shard grants its own servers inline).
// With -race this test also exercises the concurrent shard fan-out for data
// races (explicit worker counts matter: on a single-core host GOMAXPROCS
// is 1).
func TestParallelTickMatchesSequential(t *testing.T) {
	run := func(workers int) [][]Grant {
		eng, c, loads := buildParallelCluster(5, 4)
		c.shardCount = 5
		c.SetTickWorkers(workers)
		eng.Run(50)
		out := make([][]Grant, len(loads))
		for i, w := range loads {
			out[i] = w.grants
		}
		return out
	}
	sequential := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(sequential, parallel) {
		t.Fatal("parallel tick grants differ from sequential")
	}
}

// TestOneShardTickSkipsPool pins that a one-shard cluster ticks on the
// caller's goroutine: a busy 15-server cluster asks the shared slot pool
// for nothing, however many tick workers it may use. Not parallel: the
// pool is process-wide.
func TestOneShardTickSkipsPool(t *testing.T) {
	eng, c, _ := buildParallelCluster(15, 4)
	c.SetTickWorkers(4)
	eng.Run(1)
	if got := c.ShardCount(); got != 1 {
		t.Fatalf("ShardCount = %d, want 1", got)
	}
	before := sim.SharedPool().Stats().TryAcquires
	eng.Run(100)
	if got := c.ActiveServers(); got != 15 {
		t.Fatalf("ActiveServers = %d, want 15 busy servers", got)
	}
	if after := sim.SharedPool().Stats().TryAcquires; after != before {
		t.Errorf("100 one-shard ticks made %d pool TryAcquire calls, want 0", after-before)
	}
}

// TestDefaultTickWorkers covers the package-level default and its
// precedence against the per-cluster setting.
func TestDefaultTickWorkers(t *testing.T) {
	prev := SetDefaultTickWorkers(3)
	defer SetDefaultTickWorkers(prev)

	c := New()
	if got := c.TickWorkers(); got != 3 {
		t.Errorf("TickWorkers = %d, want package default 3", got)
	}
	c.SetTickWorkers(2)
	if got := c.TickWorkers(); got != 2 {
		t.Errorf("TickWorkers = %d, want per-cluster 2", got)
	}
	c.SetTickWorkers(0)
	if got := c.TickWorkers(); got != 3 {
		t.Errorf("TickWorkers = %d, want fallback to package default 3", got)
	}
	if got := SetDefaultTickWorkers(0); got != 3 {
		t.Errorf("SetDefaultTickWorkers returned %d, want previous 3", got)
	}
	SetDefaultTickWorkers(3) // restore for the deferred swap-back
}
