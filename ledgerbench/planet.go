package main

import (
	"fmt"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
)

// planetJobLimit bounds each terasort's simulated run; a job that does
// not finish within it is a failed operation.
const planetJobLimit = time.Hour

// preparePlanet's set-up is too heavy to repeat: each iteration's own
// boot is its one set-up sample.
func preparePlanet(seed int64) (func(*ledger) outcome, func()) {
	return genPlanet(seed, planetServers, planetVMs, planetJobs).run, nil
}

// run builds the fleet through the cloud manager, then runs the jobs one
// after another on the hot region with PerfCloud off, sampling the fleet
// telemetry after each.
func (in planetInputs) run(l *ledger) outcome {
	var o outcome
	t0 := time.Now()
	l.begin("setup")
	l.begin("testbed")
	tb := experiments.NewTestbed(experiments.TestbedConfig{
		Seed: in.Seed, Servers: in.Hot, WorkersPerServer: planetWorkers,
	})
	l.end()
	l.begin("inputs")
	for i, j := range in.Jobs {
		tb.MustInput(planetInput(i), float64(j.InputBlocks<<26))
	}
	l.end()
	l.begin("provision")
	tb.CM.ProvisionServers(in.Servers - in.Hot)
	l.end()
	l.begin("boot")
	for _, name := range in.VMNames {
		if _, err := tb.CM.Boot(cloud.VMSpec{Name: name}); err != nil {
			panic(err)
		}
	}
	l.end()
	l.begin("telemetry")
	ft := tb.FleetTelemetry(obs.NewRegistry(), obs.NewSeriesRegistry(0))
	l.end()
	d := &driver{l: l, st: l.stepper(tb)}
	l.end()
	o.setups = []float64{time.Since(t0).Seconds()}

	t1 := time.Now()
	l.begin("run")
	limit := int64(planetJobLimit / tb.Eng.Clock().TickSize())
	var jcts []float64
	for i, pj := range in.Jobs {
		l.begin("submit")
		j, err := tb.JT.Submit(mapreduce.Terasort(planetInput(i), pj.Reduces), tb.Eng.Clock().Seconds())
		l.end()
		if err != nil {
			panic(err)
		}
		if !d.runUntil(j.Done, limit) {
			o.outputs = append(o.outputs, "")
			continue
		}
		jcts = append(jcts, j.JCT())
		o.outputs = append(o.outputs, exact(j.JCT()))
		l.begin("fleet_sample")
		ft.Sample(tb.Eng.Clock().Seconds())
		l.end()
	}
	l.end()
	o.run = time.Since(t1).Seconds()
	o.simSec = tb.Eng.Clock().Seconds()
	o.keep = tb

	fp := tb.Clus.FastPathStats()
	o.outputs = append(o.outputs, fmt.Sprintf("servers %d vms %d zones %d shards %d active %d",
		tb.Clus.NumServers(), tb.Clus.NumVMs(), len(tb.CM.Zones()), tb.Clus.ShardCount(), tb.Clus.ActiveServers()))
	o.sim = map[string]float64{"sim_jct_p50_s": quantile(jcts, 0.5)}
	o.counts = fastPathCounts(fp)
	o.counts["cloud.boot_calls"] = float64(len(in.VMNames))
	o.counts["sim.engine_steps"] = float64(d.steps)
	o.counts["sim.elided_ticks"] = float64(d.elided)
	o.counts["frameworks.jobs_done"] = float64(len(jcts))
	if l != nil {
		o.layers = engineLayers(l, d, o.run, o.counts)
		o.layers["experiments.testbed_s"] = l.seconds("testbed")
		o.layers["cloud.provision_s"] = l.seconds("provision")
		o.layers["cloud.boot_s"] = l.seconds("boot")
	}
	return o
}

func planetInput(i int) string { return fmt.Sprintf("planet-input-%d", i) }
