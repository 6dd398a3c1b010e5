package main

import (
	"fmt"
	"time"

	"perfcloud/internal/exec"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/spark"
	"perfcloud/internal/workloads"
)

// Stream jobs use the Fig 11 mix's 256 MB blocks and 4x Spark work per
// task, so small jobs run tens of simulated seconds, long enough for the
// 5-second control loop to act within them.
const (
	streamBlock     = 256 << 20
	streamWorkScale = 4
	streamLimit     = 8 * time.Hour
)

func prepareStream(seed int64) (func(*ledger) outcome, func()) {
	in := genStream(seed, streamJobs)
	return in.run, func() { in.build(nil) }
}

// job is a submitted MapReduce job or Spark application.
type job interface {
	Done() bool
	JCT() float64
	Account(nowSec float64) exec.Accounting
}

// streamBed is a built tenant-stream testbed, ready for its first tick.
type streamBed struct {
	tb     *experiments.Testbed
	col    *obs.Collector
	alerts *obs.AlertEngine
	d      *driver
}

// build sets up a paper-scale testbed under PerfCloud with the default
// alert pack, an audit collector and a ground-truth registry, holding the
// stream's inputs and antagonists.
func (in streamInputs) build(l *ledger) streamBed {
	l.begin("setup")
	col := obs.NewCollector()
	pc := experiments.ControllerConfig()
	pc.Events = col
	alerts := obs.NewAlertEngine(obs.DefaultRules(obs.DefaultRulesConfig{}), col)
	pc.Alerts = alerts
	l.begin("testbed")
	tb := experiments.NewTestbed(experiments.TestbedConfig{
		Seed: in.Seed, Servers: in.Servers, WorkersPerServer: in.Workers,
		BlockBytes: streamBlock, PerfCloud: pc,
	})
	l.end()
	alerts.SetGroundTruth(tb.Truth)
	l.begin("inputs")
	made := map[int]bool{}
	for _, j := range in.Jobs {
		if !j.Spark && !made[j.Tasks] {
			made[j.Tasks] = true
			tb.MustInput(inputName(j.Tasks), float64(j.Tasks)*streamBlock)
		}
	}
	l.end()
	l.begin("antagonists")
	for _, a := range in.Antagonists {
		pat := workloads.BurstPattern{StartOffset: a.Start, On: a.On, Off: a.Off}
		if a.Fio {
			tb.AddAntagonist(a.Server, workloads.NewFioRandRead(pat))
		} else {
			tb.AddAntagonist(a.Server, workloads.NewStream(pat))
		}
	}
	l.end()
	d := &driver{l: l, st: l.stepper(tb)}
	l.end()
	return streamBed{tb: tb, col: col, alerts: alerts, d: d}
}

// run feeds the stream to a freshly built testbed and scores the run's
// cap decisions against ground truth.
func (in streamInputs) run(l *ledger) outcome {
	var o outcome
	t0 := time.Now()
	b := in.build(l)
	o.setups = []float64{time.Since(t0).Seconds()}
	tb, col, alerts, d := b.tb, b.col, b.alerts, b.d

	t1 := time.Now()
	l.begin("run")
	clk := tb.Eng.Clock()
	limit := int64(streamLimit / clk.TickSize())
	jobs := make([]job, len(in.Jobs))
	next, drained := 0, 0
	// pending advances drained past the finished prefix of the stream and
	// reports whether any job is still to arrive or run.
	pending := func() bool {
		for drained < next && jobs[drained].Done() {
			drained++
		}
		return drained < len(jobs)
	}
	for clk.Tick() < limit {
		now := clk.Seconds()
		for next < len(in.Jobs) && in.Jobs[next].ArriveSec <= now {
			l.begin("submit")
			jobs[next] = submitStreamJob(tb, in.Jobs[next], next, now)
			l.end()
			next++
		}
		if !pending() {
			break
		}
		d.step(func(c *sim.Clock) int64 {
			// Strides stop short of the next arrival, whose submission
			// tick must execute, and of the tick the stream drains on.
			n := limit - c.Tick() - 1
			if next < len(in.Jobs) {
				return c.TicksBefore(in.Jobs[next].ArriveSec, n)
			}
			if !pending() {
				return 0
			}
			return n
		})
	}
	now := clk.Seconds()
	l.begin("score")
	events := col.Events()
	card := obs.Score(events, tb.Truth, now)
	l.end()
	l.end()
	o.run = time.Since(t1).Seconds()
	o.simSec = now
	o.keep = tb

	var jcts []float64
	var acc exec.Accounting
	for _, j := range jobs {
		if j == nil || !j.Done() {
			o.outputs = append(o.outputs, "")
			continue
		}
		jcts = append(jcts, j.JCT())
		o.outputs = append(o.outputs, exact(j.JCT()))
		a := j.Account(now)
		acc.SuccessfulSeconds += a.SuccessfulSeconds
		acc.TotalSeconds += a.TotalSeconds
	}
	summary := alerts.Summary()
	o.outputs = append(o.outputs, digest(fmt.Sprintf("%+v|%+v|%s", card, summary, exact(acc.Efficiency()))))
	o.sim = map[string]float64{
		"sim_jct_p50_s":    quantile(jcts, 0.5),
		"sim_jct_p95_s":    quantile(jcts, 0.95),
		"detect_precision": card.Precision,
		"detect_recall":    card.Recall,
		"task_efficiency":  acc.Efficiency(),
	}
	o.counts = fastPathCounts(tb.Clus.FastPathStats())
	o.counts["sim.engine_steps"] = float64(d.steps)
	o.counts["sim.elided_ticks"] = float64(d.elided)
	o.counts["frameworks.jobs_done"] = float64(len(jcts))
	o.counts["obs.events"] = float64(len(events))
	o.counts["obs.alert_firings"] = float64(summary.Firings)
	for _, k := range []string{"control.intervals", "control.contention_intervals", "control.caps", "control.releases"} {
		o.counts[k] = 0
	}
	for _, e := range events {
		switch e.Type {
		case obs.EventSample:
			o.counts["control.intervals"]++
		case obs.EventDetect:
			o.counts["control.contention_intervals"]++
		case obs.EventCap:
			o.counts["control.caps"]++
		case obs.EventRelease:
			o.counts["control.releases"]++
		}
	}
	if l != nil {
		o.layers = engineLayers(l, d, o.run, o.counts)
		o.layers["experiments.testbed_s"] = l.seconds("testbed")
	}
	return o
}

func inputName(tasks int) string { return fmt.Sprintf("stream-input-%02d", tasks) }

// submitStreamJob submits one stream job; idx keys the Spark load
// stage's page-cache content so each job reads its own input.
func submitStreamJob(tb *experiments.Testbed, j streamJob, idx int, now float64) job {
	if !j.Spark {
		reduces := max(j.Tasks/2, 1)
		input := inputName(j.Tasks)
		var cfg mapreduce.JobConfig
		switch j.Bench {
		case 0:
			cfg = mapreduce.Terasort(input, reduces)
		case 1:
			cfg = mapreduce.Wordcount(input, reduces)
		default:
			cfg = mapreduce.InvertedIndex(input, reduces)
		}
		mr, err := tb.JT.Submit(cfg, now)
		if err != nil {
			panic(err)
		}
		return mr
	}
	bytes := float64(j.Tasks) * streamBlock
	var cfg spark.AppConfig
	switch j.Bench {
	case 0:
		cfg = spark.LogisticRegression(j.Tasks, 2, bytes)
	case 1:
		cfg = spark.PageRank(j.Tasks, 2, bytes)
	default:
		cfg = spark.SVM(j.Tasks, 2, bytes)
	}
	cfg.Stages[0].InputKeyPrefix = fmt.Sprintf("stream-%03d", idx)
	for i := range cfg.Stages {
		cfg.Stages[i].InstrPerTask *= streamWorkScale
	}
	app, err := tb.Driver.Submit(cfg, now)
	if err != nil {
		panic(err)
	}
	return app
}
