package experiments

import (
	"fmt"

	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
)

// scoreRun grades one finished run's audit events against the
// testbed's ground truth. events is empty for a scheme with no control
// plane (LATE, Dolly): the card then reports zero detections against the
// full ground-truth denominator, which is exactly right for a scheme
// that never detects anything. Cap episodes still open at the current
// sim time are closed there.
func scoreRun(tb *Testbed, events []obs.Event, scheme string) *obs.Scorecard {
	sc := obs.Score(events, tb.Truth, tb.Eng.Clock().Seconds())
	sc.Scheme = scheme
	return &sc
}

// scorecardTable renders a set of cards as one table, skipping nils.
func scorecardTable(title string, cards []*obs.Scorecard) *trace.Table {
	t := trace.New(title,
		"scheme", "antagonists", "detected", "capped VMs", "precision", "recall",
		"false-cap rate", "mean TTD", "cap dwell", "false dwell", "JCT recovery")
	for _, sc := range cards {
		if sc == nil {
			continue
		}
		recovery := ""
		if sc.JCTRecovery > 0 {
			recovery = fmt.Sprintf("%.3f", sc.JCTRecovery)
		}
		t.Addf(sc.Scheme,
			sc.TotalAntagonists,
			sc.DetectedAntagonists,
			sc.CappedVMs,
			fmt.Sprintf("%.3f", sc.Precision),
			fmt.Sprintf("%.3f", sc.Recall),
			fmt.Sprintf("%.3f", sc.FalseCapRate),
			fmt.Sprintf("%.1fs", sc.MeanTimeToDetectSec),
			fmt.Sprintf("%.1fs", sc.CapDwellSec),
			fmt.Sprintf("%.1fs", sc.FalseCapDwellSec),
			recovery)
	}
	return t
}
