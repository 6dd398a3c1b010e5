package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// TestFleetMetricsBoundedByZonesPlusShards is the acceptance bound for
// fleet telemetry: on a 10k-server fleet the /metrics exposition and
// the series registry must scale with zones + shards, never servers.
func TestFleetMetricsBoundedByZonesPlusShards(t *testing.T) {
	const servers = 10000
	clus := cluster.New()
	eng := sim.NewEngine(100*time.Millisecond, 1)
	cm := cloud.NewManager(clus, eng.RNG())
	cm.ProvisionServers(servers)
	for i := 0; i < 300; i++ {
		if _, err := cm.Boot(cloud.VMSpec{Name: fmt.Sprintf("tenant-%04d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	sr := obs.NewSeriesRegistry(64)
	ft := NewFleetTelemetry(clus, cm, reg, sr)
	ft.Sample(0)
	ft.Sample(5)

	zones := len(cm.Zones())
	shards := clus.ShardCount()
	if zones == 0 || shards == 0 {
		t.Fatalf("fixture degenerate: %d zones, %d shards", zones, shards)
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	// The exposition holds 2 fleet gauges, one gauge per shard and two
	// per zone — allow a constant factor of headroom, nothing more.
	budget := 3*(zones+shards) + 16
	if samples > budget {
		t.Fatalf("/metrics has %d samples for %d zones + %d shards (budget %d)", samples, zones, shards, budget)
	}
	if samples >= servers/10 {
		t.Fatalf("/metrics has %d samples — scaling with servers (%d), not zones+shards", samples, servers)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, `server="`) {
			t.Fatalf("fleet telemetry emitted a per-server series: %s", line)
		}
	}

	// The series registry obeys the same bound.
	keys := sr.Keys()
	if len(keys) > budget {
		t.Fatalf("series registry holds %d series (budget %d)", len(keys), budget)
	}
	// And every series carries both samples with exact timestamps.
	pts := sr.Series("fleet_active_servers").Points()
	if len(pts) != 2 || pts[0].T != 0 || pts[1].T != 5 {
		t.Fatalf("fleet series points = %v", pts)
	}
}
