package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(genStream(7, 60), genStream(7, 60)) {
		t.Error("genStream differs for one seed")
	}
	a, b := genStream(7, 60), genStream(8, 60)
	if reflect.DeepEqual(a.Jobs, b.Jobs) || reflect.DeepEqual(a.Antagonists, b.Antagonists) {
		t.Error("genStream jobs or antagonists equal across seeds")
	}
	if !reflect.DeepEqual(genPlanet(7, 40, 500, 3), genPlanet(7, 40, 500, 3)) {
		t.Error("genPlanet differs for one seed")
	}
	if reflect.DeepEqual(genPlanet(7, 40, 500, 3).Jobs, genPlanet(8, 40, 500, 3).Jobs) {
		t.Error("genPlanet jobs equal across seeds")
	}
	if !reflect.DeepEqual(genSuite(7), genSuite(7)) {
		t.Error("genSuite differs for one seed")
	}
	if reflect.DeepEqual(genSuite(7), genSuite(8)) {
		t.Error("genSuite seeds equal across seeds")
	}
}

func TestStreamMixIsStratified(t *testing.T) {
	in := genStream(3, 100)
	var large, sparkJobs int
	last := -1.0
	for _, j := range in.Jobs {
		if j.Tasks >= 10 {
			large++
			if j.Tasks > 50 {
				t.Errorf("large job with %d tasks", j.Tasks)
			}
		} else if j.Tasks < 2 {
			t.Errorf("small job with %d tasks", j.Tasks)
		}
		if j.Spark {
			sparkJobs++
		}
		if j.ArriveSec < last || j.ArriveSec >= 100*streamGapSec {
			t.Errorf("arrival %v out of order or outside the window", j.ArriveSec)
		}
		last = j.ArriveSec
	}
	if large != 20 || sparkJobs != 50 {
		t.Errorf("large %d spark %d, want 20 and 50", large, sparkJobs)
	}
	if len(in.Antagonists) != streamFio+streamSTREAM {
		t.Errorf("%d antagonists, want %d", len(in.Antagonists), streamFio+streamSTREAM)
	}
}

// TestMarkerSplitSumsToRun checks that the traced layers account for the
// run's host time, and that tracing leaves the simulated output alone.
func TestMarkerSplitSumsToRun(t *testing.T) {
	in := genStream(5, 120)
	ref := measure(in.run, nil)
	traced := measure(in.run, newLedger("test"))
	if ops, failed := check(ref, traced, func(msg string) { t.Log(msg) }); failed != 0 {
		t.Fatalf("traced run failed %d of %d checks against the untraced one", failed, ops)
	}
	un := traced.layers["bench.unattributed_frac"]
	if un < 0 || un > 0.1 {
		t.Errorf("unattributed share %.4f of run_s %.3fs, want within [0, 0.1]", un, traced.run)
	}
	var sum float64
	for _, r := range runLayers {
		sum += traced.layers[r.metric]
	}
	if got := (traced.run - sum) / traced.run; math.Abs(got-un) > 1e-9 {
		t.Errorf("layers sum to %.6fs of %.6fs (unattributed %.6f), reported %.6f", sum, traced.run, got, un)
	}
	if traced.layers["cluster.tick_s"] <= 0 || traced.layers["control.tick_s"] <= 0 || traced.layers["sim.stride_s"] <= 0 {
		t.Errorf("a loaded layer reads no time: %v", traced.layers)
	}
}

func TestOutputCheckFlagsAnotherSeed(t *testing.T) {
	ref := measure(genStream(1, 40).run, nil)
	same := measure(genStream(1, 40).run, nil)
	other := measure(genStream(2, 40).run, nil)
	if _, failed := check(ref, same, func(string) {}); failed != 0 {
		t.Errorf("same-seed run failed %d checks", failed)
	}
	ops, failed := check(ref, other, func(string) {})
	if failed == 0 {
		t.Errorf("another seed's run passed all %d checks", ops)
	}
	if ops != len(ref.outputs)+1 {
		t.Errorf("%d operations, want %d outputs plus the counts", ops, len(ref.outputs))
	}
}

func TestCheckCountsIncompleteOperationsAsFailed(t *testing.T) {
	ref := outcome{outputs: []string{"", "b"}}
	if _, failed := check(ref, ref, func(string) {}); failed != 1 {
		t.Errorf("incomplete operation matched itself: %d failed, want 1", failed)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, allWorkloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s here", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "planet", "--trace", "2"},
		{"--workload", "planet", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v exited 0", args)
		}
	}
}
