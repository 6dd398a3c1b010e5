package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"perfcloud/internal/core"
	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
)

// Observers selects the pure observers an experiment run carries. The
// zero value attaches none, and a run with observers on produces the
// same results as one with them off (TestTracingDoesNotChangeJCTs,
// TestScorecardsDoNotChangeResults, TestAlertsDoNotChangeResults).
type Observers struct {
	// TraceDir, when set, gives every repetition its own span tracer and
	// writes its Perfetto timeline to <TraceDir>/<run>.json; results then
	// carry per-phase attribution. The directory must exist. Tracing a
	// paper-size Fig. 11 mix records hundreds of thousands of spans per
	// repetition.
	TraceDir string
	// Scorecards grades every run's cap decisions against the testbed's
	// ground-truth antagonist registry: precision, recall, false-cap
	// rate, time-to-detect and cap dwell.
	Scorecards bool
	// Alerts is the rule pack every run that deploys PerfCloud evaluates
	// on sim time (empty = no alerting). Rules are evaluated against
	// seed-determined telemetry, so same-seed runs emit identical alerts.
	Alerts []obs.Rule
}

// runObservers is one run's observer wiring, built by attach before the
// testbed and closed by finish after the run.
type runObservers struct {
	o      Observers
	tr     *trace.Tracer
	col    *obs.Collector
	alerts *obs.AlertEngine
}

// attach builds one run's tracer and, when pc deploys PerfCloud, the
// event collector and alert engine its observers read, wiring both into
// pc. Pass the returned tracer on as TestbedConfig.Tracer. With every
// observer off nothing is built, so no events are retained.
func (o Observers) attach(pc *core.Config) *runObservers {
	r := &runObservers{o: o}
	if o.TraceDir != "" {
		r.tr = trace.NewTracer()
	}
	if pc == nil {
		return r
	}
	if r.tr != nil || o.Scorecards || len(o.Alerts) > 0 {
		r.col = obs.NewCollector()
		pc.Events = r.col
	}
	if len(o.Alerts) > 0 {
		r.alerts = obs.NewAlertEngine(o.Alerts, r.col)
		pc.Alerts = r.alerts
	}
	return r
}

// finish closes a run on tb: it writes the trace as <TraceDir>/<name>.json
// and returns the phase totals (zero when tracing is off), the scorecard
// labelled scheme (nil unless scorecards are on and score is set — runs
// without antagonists have nothing to grade) and the alert summary (nil
// without an alert engine).
func (r *runObservers) finish(tb *Testbed, scheme, name string, score bool) (trace.PhaseTotals, *obs.Scorecard, *obs.AlertSummary) {
	var events []obs.Event
	if r.col != nil {
		events = r.col.Events()
	}
	var pt trace.PhaseTotals
	if r.tr != nil {
		pt = r.tr.Totals()
		writeRunTrace(filepath.Join(r.o.TraceDir, name+".json"), r.tr, events)
	}
	var sc *obs.Scorecard
	if r.o.Scorecards && score {
		sc = scoreRun(tb, events, scheme)
	}
	return pt, sc, alertSummaryFor(r.alerts)
}

// writeRunTrace exports one repetition's trace to path. Like the rest of
// the experiment harness it panics on failure: a misconfigured output
// path is a setup bug.
func writeRunTrace(path string, tr *trace.Tracer, events []obs.Event) {
	f, err := os.Create(path)
	if err != nil {
		panic(fmt.Sprintf("experiments: create trace: %v", err))
	}
	if err := tr.WritePerfetto(f, events); err != nil {
		f.Close()
		panic(fmt.Sprintf("experiments: write trace: %v", err))
	}
	if err := f.Close(); err != nil {
		panic(fmt.Sprintf("experiments: close trace: %v", err))
	}
}
