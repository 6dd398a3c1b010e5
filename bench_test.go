// Benchmarks that regenerate every figure of the paper's motivation and
// evaluation sections, one bench per figure (the per-experiment index in
// DESIGN.md maps figures to benches). They report the figure's headline
// quantities as custom benchmark metrics and print the full table on the
// first iteration under -v via b.Log.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// or a single figure:
//
//	go test -bench=BenchmarkFig9 -benchtime=1x
package perfcloud_test

import (
	"runtime"
	"testing"
	"time"

	"perfcloud/internal/experiments"
	"perfcloud/internal/spark"
	"perfcloud/internal/workloads"
)

const benchSeed = 42

func BenchmarkFig1_IOCapSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchSeed)
		b.ReportMetric(r.Degradation("terasort"), "terasort-normJCT")
		b.ReportMetric(r.Degradation("spark-logreg"), "logreg-normJCT")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig2_MemDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(benchSeed)
		b.ReportMetric(r.MeanNormJCT(false), "mr-normJCT")
		b.ReportMetric(r.MeanNormJCT(true), "spark-normJCT")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig3_IowaitDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchSeed)
		b.ReportMetric(r.Alone.PeakIowait(), "peak-alone")
		b.ReportMetric(r.WithFio.PeakIowait(), "peak-fio")
		b.ReportMetric(r.PeakRatio(), "peak-ratio")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig4_CPIDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(benchSeed)
		var maxAlone, minStream float64
		for k, row := range r.Rows {
			if row.PeakAlone > maxAlone {
				maxAlone = row.PeakAlone
			}
			if k == 0 || row.PeakStream < minStream {
				minStream = row.PeakStream
			}
		}
		b.ReportMetric(maxAlone, "max-peak-alone")
		b.ReportMetric(minStream, "min-peak-stream")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig5_IOAntagonistID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchSeed)
		fioAt3 := 0.0
		for _, row := range r.Rows {
			if row.Suspect == "fio-randread" {
				fioAt3 = row.ByN[3]
			}
		}
		b.ReportMetric(fioAt3, "fio-r-at-n3")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig6_CPUAntagonistID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(benchSeed)
		streamAt6 := 0.0
		for _, row := range r.Rows {
			if row.Suspect == "stream" {
				streamAt6 = row.ByN[6]
			}
		}
		b.ReportMetric(streamAt6, "stream-r-at-n6")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig7_CubicCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7()
		b.ReportMetric(r.K, "K-intervals")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig9_DynamicControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchSeed)
		def := r.Arm("default").JCT
		b.ReportMetric(r.Arm("static").JCT/def, "static-normJCT")
		b.ReportMetric(r.Arm("perfcloud").JCT/def, "perfcloud-normJCT")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig10_CapTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r9 := experiments.Fig9(benchSeed)
		r := experiments.Fig10(r9.Arm("perfcloud"))
		b.ReportMetric(float64(experiments.ThrottleEpisodes(r.FioCap)), "fio-episodes")
		b.ReportMetric(float64(experiments.ThrottleEpisodes(r.StreamCap)), "stream-episodes")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig11_LargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(benchSeed)
		b.ReportMetric(r.Row("PerfCloud").FracUnder30, "perfcloud-under30")
		b.ReportMetric(r.Row("LATE").FracUnder30, "late-under30")
		b.ReportMetric(r.Row("Dolly-6").FracUnder30, "dolly6-under30")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig11_Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultLargeScaleConfig()
		cfg.Seed = benchSeed
		// A smaller mix suffices for the efficiency ordering.
		cfg.NumMR, cfg.NumSpark = 30, 30
		r := experiments.Fig11With(cfg, []experiments.Scheme{
			experiments.SchemeLATE(),
			experiments.SchemeDolly(2),
			experiments.SchemeDolly(4),
			experiments.SchemeDolly(6),
			experiments.SchemePerfCloud(),
		})
		b.ReportMetric(r.Row("PerfCloud").Efficiency, "perfcloud-eff")
		b.ReportMetric(r.Row("Dolly-2").Efficiency, "dolly2-eff")
		b.ReportMetric(r.Row("Dolly-6").Efficiency, "dolly6-eff")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkFig12_Variability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchSeed)
		ts := r.Row("terasort", "PerfCloud").Summary
		lt := r.Row("terasort", "LATE").Summary
		b.ReportMetric(ts.Median, "perfcloud-median")
		b.ReportMetric(ts.IQR(), "perfcloud-iqr")
		b.ReportMetric(lt.Median, "late-median")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkAblationD1_Detector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationDetector(benchSeed)
		b.ReportMetric(r.DevOLTP, "dev-flags-benign")
		b.ReportMetric(r.AbsOLTP, "abs-flags-benign")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkAblationD2_Pearson(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPearson(benchSeed)
		b.ReportMetric(r.MissingAsZero, "missing-as-zero-r")
		b.ReportMetric(r.OmitMissing, "omit-r")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkAblationD4_EWMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationEWMA(benchSeed)
		b.ReportMetric(r.SmoothedAlonePeak, "smoothed-alone-peak")
		b.ReportMetric(r.RawAlonePeak, "raw-alone-peak")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkExtension_Heterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Heterogeneous(benchSeed)
		def := r.Row("default").MeanJCT
		b.ReportMetric(r.Row("PerfCloud").MeanJCT/def, "perfcloud-normJCT")
		b.ReportMetric(r.Row("PerfCloud+LATE").MeanJCT/def, "hybrid-normJCT")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

func BenchmarkExtension_Migration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Migration(benchSeed)
		b.ReportMetric(r.JCTWith/r.JCTWithout, "migrated-normJCT")
		b.ReportMetric(float64(r.Migrations), "migrations")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}

// The two overhead benches are the §IV-D1 overhead analysis: simulation
// cost per tick on a loaded 12-worker server with and without the
// PerfCloud agent attached; the difference is the agent's own compute
// (on the paper's hardware, monitoring is counter reads and a cap
// application takes < 30 ms — here both are sub-microsecond amortized).
func BenchmarkOverhead_TickWithPerfCloud(b *testing.B)    { benchTick(b, true) }
func BenchmarkOverhead_TickWithoutPerfCloud(b *testing.B) { benchTick(b, false) }

func benchTick(b *testing.B, perfcloud bool) {
	cfg := experiments.TestbedConfig{Seed: benchSeed, WorkersPerServer: 12}
	if perfcloud {
		cfg.PerfCloud = experiments.ControllerConfig()
	}
	tb := experiments.NewTestbed(cfg)
	tb.MustInput("input", 640<<20)
	tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn))
	tb.AddAntagonist(0, workloads.NewStream(workloads.AlwaysOn))
	// Keep the cluster busy: one long logistic regression.
	if _, err := tb.Driver.Submit(spark.LogisticRegression(24, 1000, 640<<20), 0); err != nil {
		b.Fatal(err)
	}
	tb.Eng.RunFor(10 * time.Second) // warm up counters and caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Eng.Step()
	}
}

// BenchmarkParallelTick measures the concurrent grant phase: the same
// loaded 8-server testbed ticked sequentially (1 worker) and with a
// bounded pool, reporting the wall-clock speedup. On a single-core host
// the speedup hovers around 1x; on a multicore host it should approach
// min(workers, servers)x for the grant-dominated part of the tick.
func BenchmarkParallelTick(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	seqNs := benchTickParallel(b, 1)
	parNs := benchTickParallel(b, workers)
	if parNs > 0 {
		b.ReportMetric(seqNs/parNs, "speedup")
	}
	b.ReportMetric(float64(workers), "workers")
}

// benchTickParallel times b.N ticks of a busy 8-server cluster with the
// given tick worker count, reporting ns/op for the last-run mode.
func benchTickParallel(b *testing.B, workers int) float64 {
	b.Helper()
	tb := experiments.NewTestbed(experiments.TestbedConfig{
		Seed: benchSeed, Servers: 8, WorkersPerServer: 10, BlockBytes: 64 << 20,
	})
	tb.MustInput("input", 4*640<<20)
	for s := 0; s < 8; s++ {
		tb.AddAntagonist(s, workloads.NewFioRandRead(workloads.AlwaysOn))
		tb.AddAntagonist(s, workloads.NewStream(workloads.AlwaysOn))
	}
	if _, err := tb.Driver.Submit(spark.LogisticRegression(64, 1000, 4*640<<20), 0); err != nil {
		b.Fatal(err)
	}
	tb.Clus.SetTickWorkers(workers)
	tb.Eng.RunFor(10 * time.Second) // warm up counters, caches and scratch
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tb.Eng.Step()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	return float64(elapsed.Nanoseconds()) / float64(b.N)
}

// BenchmarkFig12Parallel measures the run-level fan-out: a small Fig 12
// grid executed with sequential repetitions and with GOMAXPROCS-many
// concurrent repetitions, reporting the speedup. The results themselves
// are bit-for-bit identical (see TestParallelMatchesSequential).
func BenchmarkFig12Parallel(b *testing.B) {
	cfg := experiments.VariabilityConfig{
		Seed:             benchSeed,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             6,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	schemes := []experiments.Scheme{experiments.SchemeLATE(), experiments.SchemePerfCloud()}
	run := func(parallel int) float64 {
		prev := experiments.SetMaxParallelRuns(parallel)
		defer experiments.SetMaxParallelRuns(prev)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			experiments.Fig12With(cfg, schemes)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(b.N)
	}
	seqNs := run(1)
	b.ResetTimer()
	start := time.Now()
	prev := experiments.SetMaxParallelRuns(runtime.GOMAXPROCS(0))
	for i := 0; i < b.N; i++ {
		experiments.Fig12With(cfg, schemes)
	}
	experiments.SetMaxParallelRuns(prev)
	parNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
	if parNs > 0 {
		b.ReportMetric(seqNs/parNs, "speedup")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

func BenchmarkAblationD3_ControlPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationControl(benchSeed, experiments.Observers{})
		b.ReportMetric(float64(r.Row("cubic").Decreases), "cubic-decreases")
		b.ReportMetric(float64(r.Row("aimd").Decreases), "aimd-decreases")
		if i == 0 {
			b.Log("\n" + r.Table().String())
		}
	}
}
