package experiments

import (
	"strconv"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/obs"
)

// FleetTelemetry exports fleet-scale metrics and time series at the
// placement hierarchy's granularity — cluster totals, one series per
// tick shard and one per availability zone — never per server. On the
// 10k-server planet_scale fleet that is ~30 zones + ~160 shards of
// output instead of 10k server series, and a Sample costs
// O(zones + shards), matching the sharded tick's own per-tick budget
// (TestFleetMetricsBoundedByZonesPlusShards pins the output bound).
//
// Timestamps passed to Sample must be simulation seconds read from the
// caller's Clock, never wall-clock time.
type FleetTelemetry struct {
	clus *cluster.Cluster
	cm   *cloud.Manager
	reg  *obs.Registry
	sr   *obs.SeriesRegistry

	gActive *obs.Gauge
	gVMs    *obs.Gauge

	sActive *obs.Series
	sVMs    *obs.Series

	// Per-shard and per-zone instruments, created lazily on first
	// sight so late partition rebuilds (provisioning grows the fleet)
	// extend the sets without re-registering existing labels.
	shardGauges []*obs.Gauge
	shardSeries []*obs.Series

	zones         []*cloud.Zone
	zoneGauges    []*obs.Gauge
	zoneSrvGauges []*obs.Gauge
	zoneSeries    []*obs.Series

	// Engine self-profiling (wall-clock, never in sim outputs): the
	// sampling phase timer and the health layer the shard-imbalance
	// observation feeds. Both nil — a branch each — without SetHealth.
	health  *obs.Health
	tSample *obs.PhaseTimer
}

// NewFleetTelemetry wires fleet metrics over a cluster and its cloud
// manager. reg and sr may each be nil to disable that output (nil-safe
// instruments make every update a no-op).
func NewFleetTelemetry(clus *cluster.Cluster, cm *cloud.Manager, reg *obs.Registry, sr *obs.SeriesRegistry) *FleetTelemetry {
	ft := &FleetTelemetry{clus: clus, cm: cm, reg: reg, sr: sr}
	ft.gActive = reg.Gauge("perfcloud_fleet_active_servers", "servers currently in the active tick set")
	ft.gVMs = reg.Gauge("perfcloud_fleet_vms", "VMs hosted across the fleet")
	ft.sActive = sr.Series("fleet_active_servers")
	ft.sVMs = sr.Series("fleet_vms")
	ft.syncZones()
	ft.SetHealth(healthRef())
	return ft
}

// SetHealth attaches (or with nil detaches) the self-profiling layer:
// Sample gets a wall-clock phase timer and feeds the layer's shard
// load-imbalance observation. NewFleetTelemetry wires the process-wide
// layer (SetHealth global) automatically; daemons with their own layer
// call this explicitly.
func (ft *FleetTelemetry) SetHealth(h *obs.Health) {
	ft.health = h
	ft.tSample = h.Timer("experiments.telemetry")
}

// syncZones extends the per-zone instrument set to cover every zone the
// manager currently has. Zones only grow, in creation order, so known
// ones are skipped by index.
func (ft *FleetTelemetry) syncZones() {
	if ft.cm == nil {
		return
	}
	i := 0
	ft.cm.EachZone(func(z *cloud.Zone) {
		defer func() { i++ }()
		if i < len(ft.zones) {
			return
		}
		l := obs.Label{Key: "zone", Value: z.ID()}
		ft.zones = append(ft.zones, z)
		ft.zoneGauges = append(ft.zoneGauges, ft.reg.Gauge("perfcloud_zone_placed_vcpus", "vCPUs placed in the zone", l))
		ft.zoneSeries = append(ft.zoneSeries, ft.sr.Series("zone_placed_vcpus", l))
		g := ft.reg.Gauge("perfcloud_zone_servers", "servers assigned to the zone", l)
		g.Set(float64(z.NumServers()))
		ft.zoneSrvGauges = append(ft.zoneSrvGauges, g)
	})
}

// ensureShard grows the per-shard instrument set through index i.
func (ft *FleetTelemetry) ensureShard(i int) {
	for len(ft.shardGauges) <= i {
		l := obs.Label{Key: "shard", Value: strconv.Itoa(len(ft.shardGauges))}
		ft.shardGauges = append(ft.shardGauges, ft.reg.Gauge("perfcloud_shard_active_servers", "active servers in the tick shard", l))
		ft.shardSeries = append(ft.shardSeries, ft.sr.Series("shard_active_servers", l))
	}
}

// Sample reads the fleet state and updates every gauge and series with
// the given simulation timestamp. O(zones + shards); call it between
// ticks (it touches the same partition state FastPathStats does).
func (ft *FleetTelemetry) Sample(nowSec float64) {
	ts := ft.tSample.Begin()
	defer ft.tSample.End(ts)
	active := float64(ft.clus.ActiveServers())
	vms := float64(ft.clus.NumVMs())
	ft.gActive.Set(active)
	ft.gVMs.Set(vms)
	ft.sActive.Append(nowSec, active)
	ft.sVMs.Append(nowSec, vms)

	var shardMax, shardSum float64
	shards := 0
	ft.clus.EachShardStats(func(st cluster.ShardStats) {
		ft.ensureShard(st.Index)
		ft.shardGauges[st.Index].Set(float64(st.Active))
		ft.shardSeries[st.Index].Append(nowSec, float64(st.Active))
		shards++
		shardSum += float64(st.Active)
		if float64(st.Active) > shardMax {
			shardMax = float64(st.Active)
		}
	})
	if ft.health != nil && shards > 0 && shardSum > 0 {
		ft.health.ObserveShardImbalance(shardMax * float64(shards) / shardSum)
	}

	ft.syncZones()
	for i, z := range ft.zones {
		ft.zoneGauges[i].Set(z.PlacedVCPUs())
		ft.zoneSrvGauges[i].Set(float64(z.NumServers()))
		ft.zoneSeries[i].Append(nowSec, z.PlacedVCPUs())
	}
}

// FleetTelemetry wires fleet-scale telemetry over the testbed's cluster
// and cloud manager.
func (tb *Testbed) FleetTelemetry(reg *obs.Registry, sr *obs.SeriesRegistry) *FleetTelemetry {
	return NewFleetTelemetry(tb.Clus, tb.CM, reg, sr)
}
