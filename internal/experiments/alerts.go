package experiments

import (
	"fmt"

	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
)

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
