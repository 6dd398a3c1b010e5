// Command perfbench regenerates every table and figure of the paper's
// motivation and evaluation sections and prints them as aligned tables
// (or CSV). The full suite at paper scale takes a few minutes; pass
// -quick for a scaled-down run, or -fig to select one experiment.
//
// Usage:
//
//	perfbench [-fig all|1|2|3|4|5|6|7|9|10|11|12|ablations|extensions] [-seed N] [-quick]
//	          [-csv] [-parallel N] [-suite] [-suitejson FILE] [-cpuprofile FILE]
//	          [-memprofile FILE] [-fastpaths] [-tracedir DIR] [-scorecard] [-alerts] [-health]
//
// Any other -fig value is rejected with exit status 2.
//
// -alerts installs the default alert rule pack for every PerfCloud run
// (sustained victim deviation, cap dwell, false-cap watchdog, monitor
// overrun) and appends per-scheme alert tables after Figs 11 and 12;
// like scorecards, alerting is a pure observer and deterministic per
// seed. -health profiles the engine itself — sampled wall-clock phase
// timers, shared-pool contention, runtime/metrics — and prints the
// report on exit; health numbers are wall-clock and intentionally NOT
// deterministic.
//
// -scorecard grades every scheme's cap decisions against the testbed's
// ground-truth antagonist registry and appends a detection scorecard
// table (precision, recall, false-cap rate, time-to-detect, cap dwell,
// JCT recovery) after the Fig 11, Fig 12 and control-ablation tables.
// Scoring is a pure observer of the audit-event stream: result tables
// are bit-identical with or without it, and scorecards themselves are
// deterministic per seed.
//
// -tracedir enables data-plane tracing for the Fig 11/12 experiments:
// every repetition writes a Perfetto/chrome-trace JSON timeline into the
// directory, and the result rows carry per-phase time attribution.
//
// -parallel bounds both concurrency layers — per-server tick work inside a
// cluster and independent experiment repetitions. 0 (the default) uses
// GOMAXPROCS; 1 forces fully sequential execution. Either setting produces
// bit-for-bit identical tables for the same seed. Both layers draw workers
// from one shared slot pool, so their product never oversubscribes the
// machine.
//
// -suite runs the evaluation suite (Figs 3-12) and records wall-clock
// per-figure timings, merged by name into the JSON file named by
// -suitejson (default BENCH_suite.json, same schema as benchjson output:
// Count 1, NsPerOp = elapsed nanoseconds).
//
// -cpuprofile and -memprofile write pprof profiles of the selected run,
// for inspecting the simulation and monitoring hot loops with
// `go tool pprof`. The heap profile is taken after all experiments
// complete, preceded by a GC so it reflects live retained memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"perfcloud/internal/benchfmt"
	"perfcloud/internal/cluster"
	"perfcloud/internal/experiments"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/stats"
	"perfcloud/internal/trace"
)

// figs lists every valid -fig value.
var figs = []string{"all", "1", "2", "3", "4", "5", "6", "7", "9", "10", "11", "12", "ablations", "extensions"}

func main() {
	// Benchmark-harness GC tuning: the experiment suite allocates in
	// short-lived bursts (run setup) and then holds a small steady heap,
	// so the default 100% growth target forces frequent tiny collections.
	// Relaxing it trades a few tens of MB for fewer GC pauses in the
	// timed regions. Simulation results are unaffected — this changes
	// only when memory is reclaimed. GOGC in the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	fig := flag.String("fig", "all", "which figure to regenerate (all, 1-7, 9-12, ablations, extensions)")
	seed := flag.Int64("seed", 42, "master random seed")
	quick := flag.Bool("quick", false, "scaled-down large experiments")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	timelines := flag.String("timelines", "", "directory to write raw time-series CSVs (Figs 3, 9, 10)")
	parallel := flag.Int("parallel", 0, "worker bound for tick and run concurrency (0 = GOMAXPROCS, 1 = sequential)")
	suite := flag.Bool("suite", false, "run the Fig 3-12 evaluation suite and record per-figure wall-clock timings")
	suitejson := flag.String("suitejson", "BENCH_suite.json", "file to merge -suite timings into")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	fastpaths := flag.Bool("fastpaths", false, "print the simulation's cumulative fast-path hit-rate counters after the run")
	scorecard := flag.Bool("scorecard", false, "grade each scheme's cap decisions against ground truth and print detection scorecards (Figs 11, 12, control ablation)")
	tracedir := flag.String("tracedir", "", "directory to write per-repetition Perfetto traces (Figs 11, 12)")
	alerts := flag.Bool("alerts", false, "evaluate the default alert rules during PerfCloud runs and append alert tables (Figs 11, 12)")
	health := flag.Bool("health", false, "profile the engine itself (sampled phase timers, pool contention, runtime stats) and print the report")
	flag.Parse()
	if !slices.Contains(figs, *fig) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -fig %q; valid values: %s\n", *fig, strings.Join(figs, ", "))
		os.Exit(2)
	}
	cluster.SetDefaultTickWorkers(*parallel)
	experiments.SetMaxParallelRuns(*parallel)
	if *fastpaths {
		experiments.SetTrackFastPaths(true)
	}
	if *tracedir != "" {
		if err := os.MkdirAll(*tracedir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	observe := experiments.Observers{TraceDir: *tracedir, Scorecards: *scorecard}
	if *alerts {
		// The signal-only default pack: every rule reads the audit-event
		// stream, so one pack serves every testbed the suite builds.
		observe.Alerts = obs.DefaultRules(obs.DefaultRulesConfig{})
	}
	var hl *obs.Health
	if *health {
		// Engine self-profiling: wall-clock phase timers on every testbed
		// plus slot-pool contention and runtime/metrics, reported on exit.
		// Explicitly non-deterministic; result tables are unaffected.
		hl = obs.NewHealth(obs.NewRegistry())
		hl.SetPoolStats(func() obs.PoolHealth {
			s := sim.SharedPool().Stats()
			return obs.PoolHealth{
				Capacity: s.Capacity, InUse: s.InUse, Peak: s.Peak,
				TryAcquires: s.TryAcquires, Denied: s.Denied, GrantedSlots: s.GrantedSlots,
			}
		})
		experiments.SetHealth(hl)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "perfbench: wrote", *memprofile)
		}()
	}
	if *timelines != "" {
		if err := os.MkdirAll(*timelines, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	writeSeries := func(name string, names []string, series []*stats.TimeSeries) {
		if *timelines == "" {
			return
		}
		path := filepath.Join(*timelines, name)
		if err := os.WriteFile(path, []byte(trace.SeriesCSV(names, series)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: wrote", path)
	}

	emit := func(t *trace.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	suiteFigs := map[string]bool{
		"3": true, "4": true, "5": true, "6": true, "7": true,
		"9": true, "10": true, "11": true, "12": true,
	}
	want := func(f string) bool {
		if *suite {
			return suiteFigs[f]
		}
		return *fig == "all" || *fig == f
	}
	var timings []benchfmt.Result
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		if *suite {
			timings = append(timings, benchfmt.Result{
				Name: "FigSuite/" + name, Count: 1,
				NsPerOp: float64(time.Since(t0).Nanoseconds()),
			})
		}
	}
	start := time.Now()

	if want("1") {
		emit(experiments.Fig1(*seed).Table())
	}
	if want("2") {
		emit(experiments.Fig2(*seed).Table())
	}
	if want("3") {
		timed("Fig3", func() {
			r := experiments.Fig3(*seed)
			emit(r.Table())
			writeSeries("fig3_iowait_deviation.csv",
				[]string{"alone", "with_fio"},
				[]*stats.TimeSeries{r.Alone.Iowait, r.WithFio.Iowait})
		})
	}
	if want("4") {
		timed("Fig4", func() { emit(experiments.Fig4(*seed).Table()) })
	}
	if want("5") {
		timed("Fig5", func() { emit(experiments.Fig5(*seed).Table()) })
	}
	if want("6") {
		timed("Fig6", func() { emit(experiments.Fig6(*seed).Table()) })
	}
	if want("7") {
		timed("Fig7", func() { emit(experiments.Fig7().Table()) })
	}
	var fig9 *experiments.Fig9Result
	if want("9") || want("10") {
		timed("Fig9", func() {
			r := experiments.Fig9(*seed)
			fig9 = &r
		})
	}
	if want("9") {
		emit(fig9.Table())
		def, pc := fig9.Arm("default"), fig9.Arm("perfcloud")
		writeSeries("fig9_deviations.csv",
			[]string{"default_iowait_dev", "perfcloud_iowait_dev", "default_cpi_dev", "perfcloud_cpi_dev"},
			[]*stats.TimeSeries{def.Iowait, pc.Iowait, def.CPI, pc.CPI})
	}
	if want("10") {
		timed("Fig10", func() {
			r10 := experiments.Fig10(fig9.Arm("perfcloud"))
			emit(r10.Table())
			writeSeries("fig10_caps.csv",
				[]string{"fio_iops_cap", "stream_core_cap"},
				[]*stats.TimeSeries{r10.FioCap, r10.StreamCap})
		})
	}
	if want("11") {
		timed("Fig11", func() {
			cfg := experiments.DefaultLargeScaleConfig()
			cfg.Seed = *seed
			cfg.Observe = observe
			if *quick {
				cfg.Servers, cfg.WorkersPerServer = 5, 8
				cfg.NumMR, cfg.NumSpark = 20, 20
				cfg.Fio, cfg.Streams = 4, 4
			}
			r := experiments.Fig11With(cfg, []experiments.Scheme{
				experiments.SchemeLATE(),
				experiments.SchemeDolly(2),
				experiments.SchemeDolly(4),
				experiments.SchemeDolly(6),
				experiments.SchemePerfCloud(),
			})
			emit(r.Table())
			if *scorecard {
				emit(r.ScorecardTable())
			}
			if *alerts {
				emit(r.AlertTable())
			}
		})
	}
	if want("12") {
		timed("Fig12", func() {
			cfg := experiments.DefaultVariabilityConfig()
			cfg.Seed = *seed
			cfg.Observe = observe
			if *quick {
				cfg.Servers, cfg.WorkersPerServer = 5, 8
				cfg.Runs, cfg.Tasks = 8, 20
				cfg.Fio, cfg.Streams = 4, 4
			}
			r := experiments.Fig12With(cfg, []experiments.Scheme{
				experiments.SchemeLATE(),
				experiments.SchemeDolly(2),
				experiments.SchemePerfCloud(),
			})
			emit(r.Table())
			if *scorecard {
				emit(r.ScorecardTable())
			}
			if *alerts {
				emit(r.AlertTable())
			}
		})
	}
	if want("ablations") {
		emit(experiments.AblationDetector(*seed).Table())
		emit(experiments.AblationPearson(*seed).Table())
		rc := experiments.AblationControl(*seed, observe)
		emit(rc.Table())
		if *scorecard {
			emit(rc.ScorecardTable())
		}
		emit(experiments.AblationEWMA(*seed).Table())
	}
	if want("extensions") {
		emit(experiments.Heterogeneous(*seed).Table())
		emit(experiments.Migration(*seed).Table())
	}
	elapsed := time.Since(start)
	if *suite {
		timings = append(timings, benchfmt.Result{
			Name: "FigSuite/Total", Count: 1,
			NsPerOp: float64(elapsed.Nanoseconds()),
		})
		prev, err := benchfmt.ReadFile(*suitejson)
		if err == nil {
			err = benchfmt.WriteFile(*suitejson, benchfmt.Merge(prev, timings))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: wrote", *suitejson)
	}
	if *fastpaths {
		printFastPaths(os.Stderr)
	}
	if hl != nil {
		hl.SampleRuntime()
		fmt.Fprint(os.Stderr, "health:\n"+hl.Summary())
	}
	fmt.Fprintf(os.Stderr, "perfbench: done in %v\n", elapsed.Round(time.Millisecond))
}

// printFastPaths reports how much simulation work the fast paths
// absorbed across every testbed the run built: the share of grant-phase
// ticks skipped (quiescence) or reusing demand vectors, and the per-
// resource allocator input-memo hit rates.
func printFastPaths(w *os.File) {
	fp := experiments.FastPathTotals()
	rate := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return 100 * float64(hit) / float64(hit+miss)
	}
	ticks := fp.QuiescentSkips + fp.SteadyReuses + fp.Rebuilds
	fmt.Fprintf(w, "fastpaths: %d grant-phase ticks: %d skipped (%.1f%%), %d reused (%.1f%%), %d rebuilt\n",
		ticks, fp.QuiescentSkips, rate(fp.QuiescentSkips, fp.SteadyReuses+fp.Rebuilds),
		fp.SteadyReuses, rate(fp.SteadyReuses, fp.QuiescentSkips+fp.Rebuilds), fp.Rebuilds)
	fmt.Fprintf(w, "fastpaths: sharded ticking: %d whole-shard skips\n", fp.ShardSkips)
	fmt.Fprintf(w, "fastpaths: allocator memo hit rates: cpu %.1f%% (%d/%d), mem %.1f%% (%d/%d), disk %.1f%% (%d/%d)\n",
		rate(fp.CPUMemoHits, fp.CPUMemoMisses), fp.CPUMemoHits, fp.CPUMemoHits+fp.CPUMemoMisses,
		rate(fp.MemMemoHits, fp.MemMemoMisses), fp.MemMemoHits, fp.MemMemoHits+fp.MemMemoMisses,
		rate(fp.DiskMemoHits, fp.DiskMemoMisses), fp.DiskMemoHits, fp.DiskMemoHits+fp.DiskMemoMisses)
}
