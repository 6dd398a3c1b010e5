package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
)

// Alert-rule and health-layer gates for experiment runs. Like the
// scorecard and trace gates, both default to off, and with them off runs
// are bit-identical to a build without this file: no engine is built, no
// collector attached, no timer sampled (TestAlertsDoNotChangeResults).
//
// Alerts are deterministic — rules are evaluated on sim time against the
// seed-determined telemetry, so same-seed runs emit byte-identical alert
// streams. The health layer is the opposite by design: wall-clock
// self-profiling of the simulator, never folded into results.

var (
	alertMu       sync.Mutex
	alertRuleList []obs.Rule
)

// SetAlertRules installs the rule pack every subsequent experiment run
// that deploys PerfCloud evaluates (a copy is taken; nil or empty
// disables alerting). Returns the previously installed rules.
func SetAlertRules(rules []obs.Rule) []obs.Rule {
	alertMu.Lock()
	defer alertMu.Unlock()
	prev := alertRuleList
	alertRuleList = append([]obs.Rule(nil), rules...)
	return prev
}

// alertRules returns the installed rule pack (a copy, so concurrent runs
// share nothing mutable).
func alertRules() []obs.Rule {
	alertMu.Lock()
	defer alertMu.Unlock()
	return append([]obs.Rule(nil), alertRuleList...)
}

// healthLayer is the optional process-wide engine self-profiling layer.
var healthLayer atomic.Pointer[obs.Health]

// SetHealth installs (or, with nil, removes) the health layer attached
// to every subsequent testbed: cluster grant/advance timers, the
// node managers' monitor timer and the telemetry sampling timer.
func SetHealth(h *obs.Health) { healthLayer.Store(h) }

// healthRef returns the installed health layer (nil when off).
func healthRef() *obs.Health { return healthLayer.Load() }

// alertSummaryFor snapshots an engine's lifetime activity (nil in, nil
// out — schemes without a control plane have no engine).
func alertSummaryFor(eng *obs.AlertEngine) *obs.AlertSummary {
	if eng == nil {
		return nil
	}
	s := eng.Summary()
	return &s
}

// alertTable renders per-scheme alert summaries as one table, skipping
// schemes that ran without rules.
func alertTable(title string, schemes []string, sums []*obs.AlertSummary) *trace.Table {
	t := trace.New(title, "scheme", "firings", "resolved", "still active", "rules fired")
	for i, s := range sums {
		if s == nil {
			continue
		}
		active := ""
		if len(s.Active) > 0 {
			active = fmt.Sprintf("%v", s.Active)
		}
		fired := ""
		for _, r := range s.Rules {
			if r.Firings == 0 {
				continue
			}
			if fired != "" {
				fired += " "
			}
			fired += fmt.Sprintf("%s:%d", r.Rule, r.Firings)
		}
		t.Addf(schemes[i], s.Firings, s.Resolved, active, fired)
	}
	return t
}
