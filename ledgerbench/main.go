// Command ledgerbench is PerfCloud's end-to-end benchmark with an
// outside-in layer ledger. It runs one of three workloads — paper-suite,
// tenant-stream or planet — with inputs generated from a seed, checks the
// simulated output of every timed iteration against a same-seed
// reference computed untimed in sequential mode, and prints every metric
// by name and unit, ending with one JSON line.
//
// Run from the repository root (run.sh builds it first):
//
//	bash ledgerbench/run.sh --workload tenant-stream --seed 1 --seconds 10 --trace 0
//	bash ledgerbench/run.sh --workload all --seed 1 --seconds 10
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 alternates untraced and traced iterations and reports the
// per-layer metrics, writing the traced spans under --spans. The simulator
// runs at its default parallelism (GOMAXPROCS); the harness drives it from
// one goroutine. README.md lists the metrics and the layers they split.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/experiments"
)

// outcome is one iteration of a workload.
type outcome struct {
	setups []float64 // host seconds of each set-up the iteration performed
	run    float64   // host seconds from the first tick until every job drained
	simSec float64   // simulated seconds advanced; 0 when not observable (paper-suite)

	// outputs holds one rendering of simulated output per checked
	// operation, compared one-to-one against the reference; "" marks an
	// operation that did not complete.
	outputs []string
	// counts are layer counts that repeat exactly for a seed.
	counts map[string]float64
	// sim holds the sim-time end-to-end metrics (deterministic per seed).
	sim map[string]float64
	// layers holds the traced per-layer metrics.
	layers map[string]float64
	// keep holds the testbed or results, reachable for live_heap_mb.
	keep any

	allocBytes, allocObjects, liveBytes float64
}

// workload prepares one workload's inputs from a seed. It returns the
// function that runs an iteration over them — a nil ledger runs untraced —
// and, unless nil, one that builds the workload's set-up once more and
// discards it, so setup_s is a median over several set-ups per iteration.
type workload struct {
	name    string
	about   string
	prepare func(seed int64) (run func(l *ledger) outcome, setup func())
}

// extraSetups is how many discarded set-ups each untraced iteration
// times, outside its allocation window.
const extraSetups = 8

var allWorkloads = []workload{
	{"paper-suite", "Figs 3-7 and 9-11 at paper scale with concurrent repetitions", prepareSuite},
	{"tenant-stream", "open-loop job stream on one paper-scale testbed under PerfCloud", prepareStream},
	{"planet", "200k VMs booted on 2k servers, terasorts on a 16-server hot region", preparePlanet},
}

// endToEnd lists the metrics every workload reports untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
	{"live_heap_mb", "MB"},
}

// simMetrics are the end-to-end metrics in simulated units; they repeat
// exactly for a seed, so they are printed and checked, not bounded.
var simMetrics = []metricDef{
	{"sim_rate", "sim_s/s"},
	{"sim_jct_p50_s", "sim_s"},
	{"sim_jct_p95_s", "sim_s"},
	{"detect_precision", "frac"},
	{"detect_recall", "frac"},
	{"task_efficiency", "frac"},
}

// perLayer lists the metrics every workload reports traced; a layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"experiments.testbed_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig11_s", "s"},
	{"cloud.provision_s", "s"},
	{"cloud.boot_s", "s"},
	{"cloud.boot_calls", "count"},
	{"cluster.tick_s", "s"},
	{"cluster.first_tick_s", "s"},
	{"cluster.first_tick_alloc_mb", "MB"},
	{"cluster.steady_reuse_frac", "frac"},
	{"cluster.quiescent_skips", "count"},
	{"cluster.shard_skips", "count"},
	{"cluster.cpu_memo_hit_frac", "frac"},
	{"cluster.mem_memo_hit_frac", "frac"},
	{"cluster.disk_memo_hit_frac", "frac"},
	{"sim.stride_s", "s"},
	{"sim.stride_calls", "count"},
	{"sim.engine_steps", "count"},
	{"sim.elided_ticks", "count"},
	{"sim.elided_per_stride", "ticks"},
	{"sim.pool_denied_frac", "frac"},
	{"sim.pool_peak", "count"},
	{"frameworks.tick_s", "s"},
	{"frameworks.submit_s", "s"},
	{"frameworks.jobs_done", "count"},
	{"control.tick_s", "s"},
	{"control.intervals", "count"},
	{"control.contention_intervals", "count"},
	{"control.caps", "count"},
	{"control.releases", "count"},
	{"obs.alerts_tick_s", "s"},
	{"obs.events", "count"},
	{"obs.alert_firings", "count"},
	{"obs.score_s", "s"},
	{"obs.fleet_sample_s", "s"},
	{"bench.unattributed_frac", "frac"},
	{"bench.trace_overhead", "ratio"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-suite, tenant-stream, planet, or all (all three, traced)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measurement time per workload, in host seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from traced iterations")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "ledgerbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	var todo []workload
	for _, w := range allWorkloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "ledgerbench: unknown workload %q\n", *name)
		return 2
	}
	traced := *trace == 1 || *name == "all"

	rep := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, ledgers := measureWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), traced, stderr)
		printTable(stdout, w, *seed, res, traced)
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		prefix := ""
		if len(todo) > 1 {
			prefix = w.name + "/"
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			rep.Metrics[prefix+d.name] = metricValue{Value: res.values[d.name], Unit: d.unit}
		}
		if len(ledgers) > 0 {
			path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if err := writeSpans(path, ledgers); err != nil {
				fmt.Fprintln(stderr, "ledgerbench: writing spans:", err)
				return 1
			}
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "ledgerbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is one workload's measurement.
type result struct {
	attempted, failed int
	iterations        int
	tracedIterations  int
	values            map[string]float64
	runs              []float64 // untraced run_s of every iteration
}

// measureWorkload computes the sequential reference, then runs timed
// iterations for the budget — alternating untraced and traced ones when
// traced — and checks each against the reference.
func measureWorkload(w workload, seed int64, budget time.Duration, traced bool, stderr io.Writer) (result, []*ledger) {
	iter, setup := w.prepare(seed)

	// The reference runs traced, so it has every layer count the traced
	// iterations are checked against; tracing never changes the
	// simulation, which the untraced iterations' checks confirm.
	prevTick := cluster.SetDefaultTickWorkers(1)
	prevRuns := experiments.SetMaxParallelRuns(1)
	ref := measure(iter, newLedger(w.name+"-reference"))
	cluster.SetDefaultTickWorkers(prevTick)
	experiments.SetMaxParallelRuns(prevRuns)
	for i, out := range ref.outputs {
		if out == "" {
			fmt.Fprintf(stderr, "ledgerbench: %s seed %d: reference operation %d did not complete\n", w.name, seed, i)
		}
	}

	res := result{values: map[string]float64{}}
	var plain, tracedOuts []outcome
	var ledgers []*ledger
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		enough := len(plain) >= minIterations && (!traced || len(tracedOuts) >= minIterations)
		if enough && !time.Now().Before(deadline) {
			break
		}
		var l *ledger
		if traced && i%2 == 1 {
			l = newLedger(fmt.Sprintf("%s-seed%d-iter%d", w.name, seed, i))
		}
		o := measure(iter, l)
		for k := 0; l == nil && setup != nil && k < extraSetups; k++ {
			t0 := time.Now()
			setup()
			o.setups = append(o.setups, time.Since(t0).Seconds())
		}
		ops, failed := check(ref, o, func(msg string) {
			fmt.Fprintf(stderr, "ledgerbench: %s seed %d iteration %d: %s\n", w.name, seed, i, msg)
		})
		res.attempted += ops
		res.failed += failed
		if l != nil {
			tracedOuts = append(tracedOuts, o)
			ledgers = append(ledgers, l)
		} else {
			plain = append(plain, o)
		}
	}
	res.iterations, res.tracedIterations = len(plain), len(tracedOuts)

	var setups []float64
	for _, o := range plain {
		setups = append(setups, o.setups...)
	}
	res.values["setup_s"] = median(setups)
	for _, o := range plain {
		res.runs = append(res.runs, o.run)
	}
	runS := median(res.runs)
	res.values["run_s"] = runS
	res.values["alloc_mb"] = medianOf(plain, func(o outcome) float64 { return o.allocBytes / 1e6 })
	res.values["allocs_k"] = medianOf(plain, func(o outcome) float64 { return o.allocObjects / 1e3 })
	res.values["live_heap_mb"] = medianOf(plain, func(o outcome) float64 { return o.liveBytes / 1e6 })
	if ref.simSec > 0 {
		res.values["sim_rate"] = medianOf(plain, func(o outcome) float64 { return o.simSec / o.run })
	}
	for k, v := range ref.sim {
		res.values[k] = v
	}
	if traced {
		for k, v := range ref.counts {
			res.values[k] = v
		}
		for _, d := range perLayer {
			if _, isCount := ref.counts[d.name]; isCount {
				continue
			}
			var xs []float64
			for _, o := range tracedOuts {
				if v, ok := o.layers[d.name]; ok {
					xs = append(xs, v)
				}
			}
			if len(xs) > 0 {
				res.values[d.name] = median(xs)
			}
		}
		res.values["bench.trace_overhead"] = medianOf(tracedOuts, func(o outcome) float64 { return o.run }) / runS
	}
	return res, ledgers
}

// minIterations is the fewest timed iterations of each kind per run.
const minIterations = 3

// measure runs one iteration between two forced collections and records
// its allocations and the heap still live with its testbed reachable.
func measure(iter func(*ledger) outcome, l *ledger) outcome {
	runtime.GC()
	a0 := heapAllocs()
	o := iter(l)
	a1 := heapAllocs()
	runtime.GC()
	o.liveBytes = float64(liveHeap())
	runtime.KeepAlive(o.keep)
	o.keep = nil
	o.allocBytes = float64(a1.bytes - a0.bytes)
	o.allocObjects = float64(a1.objects - a0.objects)
	return o
}

// check compares an iteration's simulated output and layer counts with
// the reference. Every output is one operation; the counts, when the
// iteration recorded any, are one more. It returns the operations
// attempted and failed.
func check(ref, o outcome, report func(string)) (ops, failed int) {
	ops = len(ref.outputs)
	for i, want := range ref.outputs {
		if got := o.outputs[i]; got == "" || got != want {
			failed++
			report(fmt.Sprintf("output %d differs from the reference: %s != %s", i, short(got), short(want)))
		}
	}
	if len(o.counts) == 0 {
		return ops, failed
	}
	ops++
	var diff []string
	for k, v := range o.counts {
		if want, ok := ref.counts[k]; ok && want != v {
			diff = append(diff, fmt.Sprintf("%s %v != %v", k, v, want))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		failed++
		report("layer counts differ from the reference: " + strings.Join(diff, ", "))
	}
	return ops, failed
}

func short(s string) string {
	if s == "" {
		return "(incomplete)"
	}
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

func printTable(w io.Writer, wl workload, seed int64, res result, traced bool) {
	fmt.Fprintf(w, "== %s (seed %d): %s ==\n", wl.name, seed, wl.about)
	fmt.Fprintf(w, "iterations: %d untraced, %d traced; operations: %d attempted, %d failed\n",
		res.iterations, res.tracedIterations, res.attempted, res.failed)
	fmt.Fprintf(w, "run_s over untraced iterations: min %.4g p25 %.4g median %.4g p75 %.4g max %.4g\n",
		quantile(res.runs, 0), quantile(res.runs, 0.25), quantile(res.runs, 0.5), quantile(res.runs, 0.75), quantile(res.runs, 1))
	rows := append(append([]metricDef(nil), endToEnd...), simMetrics...)
	if traced {
		rows = append(rows, perLayer...)
	}
	for _, d := range rows {
		v, ok := res.values[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-30s %14s %s\n", d.name, "-", d.unit)
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, v, d.unit)
	}
}
