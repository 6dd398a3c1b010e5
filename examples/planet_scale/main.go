// Planet scale: a 10,000-server cloud hosting one million VMs, of which
// only a small hot region (16 servers of Hadoop workers) does anything.
// This is the multi-tenant-cloud shape the paper's scheme must coexist
// with — fleets where almost every tenant is idle at any instant — and
// the setting the sharded cluster tick is built for: per-tick cost is
// O(active servers + shards), so a terasort on the hot region runs in
// seconds of wall clock even though every tick nominally covers all ten
// thousand servers.
//
// The cloud manager side scales the same way: the one million Boot calls
// each pick the least-loaded server from the hierarchical (zone → rack →
// server) placement index in O(log servers) instead of rescanning the
// fleet's VMs.
//
// Telemetry follows the hierarchy too: FleetTelemetry exports gauges and
// time series per zone and per tick shard — never per server — so the
// Prometheus exposition for the whole fleet stays a few hundred samples
// instead of ten thousand.
//
// Run with: go run ./examples/planet_scale
//
//	-servers N   fleet size            (default 10000)
//	-vms N       total VMs to host     (default 1000000)
//	-hot N       busy Hadoop servers   (default 16)
//	-shards N    0 auto, -1 flat path  (default 0; -1 shows the contrast)
//	-jobs N      terasort jobs to run  (default 2)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
)

func main() {
	servers := flag.Int("servers", 10000, "total servers in the fleet")
	vms := flag.Int("vms", 1000000, "total VMs hosted across the fleet")
	hot := flag.Int("hot", 16, "servers running the Hadoop workers")
	shards := flag.Int("shards", 0, "cluster tick shards: 0 auto, n forced, -1 flat pre-shard path")
	jobs := flag.Int("jobs", 2, "terasort jobs to run on the hot region")
	seed := flag.Int64("seed", 42, "random seed")
	parallel := flag.Int("parallel", 0, "tick worker bound (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()
	cluster.SetDefaultShards(*shards)
	cluster.SetDefaultTickWorkers(*parallel)

	// The hot region: a normal testbed — Hadoop worker VMs, DFS, job
	// tracker — confined to the first -hot servers.
	start := time.Now()
	tb := experiments.NewTestbed(experiments.TestbedConfig{
		Seed:             *seed,
		Servers:          *hot,
		WorkersPerServer: 8,
	})
	tb.MustInput("input", 640<<20)

	// The rest of the planet: cold servers and idle tenant VMs, placed by
	// the cloud manager's spread scheduler.
	tb.CM.ProvisionServers(*servers - *hot)
	for i := tb.Clus.NumVMs(); i < *vms; i++ {
		if _, err := tb.CM.Boot(cloud.VMSpec{Name: fmt.Sprintf("tenant-%07d", i)}); err != nil {
			panic(err)
		}
	}
	build := time.Since(start)
	zones := tb.CM.Zones()
	fmt.Printf("== fleet: %d servers in %d zones, %d VMs (built in %.1fs) ==\n",
		tb.Clus.NumServers(), len(zones), tb.Clus.NumVMs(), build.Seconds())

	// Fleet telemetry at hierarchy granularity: one sample per zone and
	// per shard. A Sample is O(zones + shards), so taking one per job is
	// noise next to the simulation itself.
	reg := obs.NewRegistry()
	sr := obs.NewSeriesRegistry(0)
	ft := tb.FleetTelemetry(reg, sr)
	ft.Sample(tb.Eng.Clock().Seconds())

	start = time.Now()
	var jct float64
	for j := 0; j < *jobs; j++ {
		job := tb.RunMR(mapreduce.Terasort("input", 10), time.Hour)
		jct += job.JCT()
		ft.Sample(tb.Eng.Clock().Seconds())
	}
	run := time.Since(start)
	fmt.Printf("%d terasort jobs on the hot region: mean JCT %.1fs simulated, %.2fs wall\n",
		*jobs, jct/float64(*jobs), run.Seconds())

	fp := tb.Clus.FastPathStats()
	fmt.Printf("active servers at the end: %d of %d (%d shards)\n",
		tb.Clus.ActiveServers(), tb.Clus.NumServers(), tb.Clus.ShardCount())
	fmt.Printf("fast paths: %d whole-shard skips, %d quiescent grant skips\n",
		fp.ShardSkips, fp.QuiescentSkips)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		panic(err)
	}
	samples := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	fmt.Printf("fleet telemetry: %d /metrics samples and %d time series for %d servers (%d zones + %d shards)\n",
		samples, len(sr.Keys()), tb.Clus.NumServers(), len(zones), tb.Clus.ShardCount())
}
