package experiments

import (
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/stats"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// DeviationTimeline is one run's detection-signal history.
type DeviationTimeline struct {
	Label  string
	Iowait *stats.TimeSeries // std-dev of block-iowait ratio per interval
	CPI    *stats.TimeSeries // std-dev of CPI per interval
}

// PeakIowait returns the peak of the iowait-deviation series.
func (d DeviationTimeline) PeakIowait() float64 { return d.Iowait.Max() }

// PeakCPI returns the peak of the CPI-deviation series.
func (d DeviationTimeline) PeakCPI() float64 { return d.CPI.Max() }

// deviationRun executes one benchmark back-to-back for the duration on
// an instrumented (observe-only) testbed with the given antagonists, and
// returns the recorded deviation series.
func deviationRun(seed int64, b Bench, d time.Duration, label string, antagonists func(tb *Testbed)) DeviationTimeline {
	cfg := TestbedConfig{Seed: seed, PerfCloud: ObserverConfig()}
	tb := smallTestbed(seed, &cfg)
	if antagonists != nil {
		antagonists(tb)
	}
	runBackToBack(tb, b, d)

	nm := tb.Sys.Managers()[0]
	out := DeviationTimeline{Label: label, Iowait: stats.NewTimeSeries(), CPI: stats.NewTimeSeries()}
	for _, e := range nm.Trace() {
		out.Iowait.Append(e.TimeSec, e.IowaitDev)
		out.CPI.Append(e.TimeSec, e.CPIDev)
	}
	return out
}

// runBackToBack keeps the benchmark running in a loop for the duration.
func runBackToBack(tb *Testbed, b Bench, d time.Duration) {
	ticks := int64(d / tb.Eng.Clock().TickSize())
	var done func() bool
	submit := func() {
		if b.Spark {
			a, err := tb.Driver.Submit(sparkConfig(b.Name), tb.Eng.Clock().Seconds())
			if err != nil {
				panic(err)
			}
			done = a.Done
		} else {
			j, err := tb.JT.Submit(mrConfig(b.Name), tb.Eng.Clock().Seconds())
			if err != nil {
				panic(err)
			}
			done = j.Done
		}
	}
	submit()
	for i := int64(0); i < ticks; i++ {
		tb.Eng.Step()
		if done() {
			submit()
		}
	}
}

// Fig3Result reproduces Figure 3: the standard deviation of the block
// iowait ratio across the Hadoop VMs over time, running alone versus
// colocated with fio. The paper reports the peak rising by ~8.2x and
// staying under the threshold of 10 when alone.
type Fig3Result struct {
	Bench     string
	Alone     DeviationTimeline
	WithFio   DeviationTimeline
	Threshold float64
}

// Fig3 runs the terasort case study from §III-A1.
func Fig3(seed int64) Fig3Result { return fig3For(seed, Bench{Name: "terasort"}) }

func fig3For(seed int64, b Bench) Fig3Result {
	const d = 2 * time.Minute
	return Fig3Result{
		Bench:     b.Name,
		Threshold: core.DefaultThresholds().Iowait,
		Alone:     deviationRun(seed, b, d, "alone", nil),
		WithFio: deviationRun(seed, b, d, "with fio", func(tb *Testbed) {
			tb.AddAntagonist(0, workloads.NewFioRandRead(
				workloads.BurstPattern{On: 20 * time.Second, Off: 10 * time.Second}))
		}),
	}
}

// PeakRatio returns peak(with fio) / peak(alone).
func (r Fig3Result) PeakRatio() float64 {
	a := r.Alone.PeakIowait()
	if a == 0 {
		return 0
	}
	return r.WithFio.PeakIowait() / a
}

// Table renders the Figure 3 summary (the series are available for
// plotting through the timelines).
func (r Fig3Result) Table() *trace.Table {
	t := trace.New("Fig 3: std-dev of block-iowait ratio across Hadoop VMs ("+r.Bench+")",
		"run", "peak dev (ms/op)", "above threshold?", "series")
	t.Addf(r.Alone.Label, r.Alone.PeakIowait(), r.Alone.PeakIowait() > r.Threshold, r.Alone.Iowait.Sparkline(40))
	t.Addf(r.WithFio.Label, r.WithFio.PeakIowait(), r.WithFio.PeakIowait() > r.Threshold, r.WithFio.Iowait.Sparkline(40))
	t.Addf("peak ratio", r.PeakRatio(), "", "")
	return t
}

// Fig4Row is one benchmark's peak CPI deviation alone vs with STREAM.
type Fig4Row struct {
	Bench      string
	PeakAlone  float64
	PeakStream float64
}

// Fig4Result reproduces Figure 4: peak CPI deviation stays under 1 when
// benchmarks run alone and exceeds it under a colocated STREAM.
type Fig4Result struct {
	Rows      []Fig4Row
	Threshold float64
}

// Fig4 measures all six benchmarks.
func Fig4(seed int64) Fig4Result { return fig4For(seed, Benches()) }

func fig4For(seed int64, benches []Bench) Fig4Result {
	const d = 2 * time.Minute
	res := Fig4Result{Threshold: core.DefaultThresholds().CPI}
	for _, b := range benches {
		alone := deviationRun(seed, b, d, "alone", nil)
		contended := deviationRun(seed, b, d, "with stream", func(tb *Testbed) {
			pat := workloads.BurstPattern{On: 25 * time.Second, Off: 10 * time.Second}
			tb.AddAntagonist(0, workloads.NewStream(pat))
			tb.AddAntagonist(0, workloads.NewStream(pat))
		})
		res.Rows = append(res.Rows, Fig4Row{
			Bench:      b.Name,
			PeakAlone:  alone.PeakCPI(),
			PeakStream: contended.PeakCPI(),
		})
	}
	return res
}

// Table renders the Figure 4 result.
func (r Fig4Result) Table() *trace.Table {
	t := trace.New("Fig 4: peak std-dev of CPI across Hadoop VMs (threshold 1)",
		"benchmark", "alone", "with STREAM")
	for _, row := range r.Rows {
		t.Addf(row.Bench, row.PeakAlone, row.PeakStream)
	}
	return t
}
