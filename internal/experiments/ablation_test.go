package experiments

import (
	"strings"
	"testing"

	"perfcloud/internal/core"
)

func TestAblationControlStability(t *testing.T) {
	r := AblationControl(seed, Observers{})
	cubic := r.Row("cubic")
	aimd := r.Row("aimd")
	static := r.Row("static")
	if cubic.JCT == 0 || aimd.JCT == 0 || static.JCT == 0 {
		t.Fatalf("missing rows: %+v", r)
	}
	// Both dynamic policies must actually throttle.
	if cubic.Decreases == 0 || aimd.Decreases == 0 {
		t.Errorf("decreases: cubic=%d aimd=%d, want > 0", cubic.Decreases, aimd.Decreases)
	}
	// AIMD's sawtooth re-enters contention repeatedly: it should show at
	// least as many decrease events as CUBIC, whose plateau holds the cap
	// near the last known-good value.
	if aimd.Decreases < cubic.Decreases {
		t.Errorf("AIMD decreases %d < CUBIC %d; expected sawtooth oscillation",
			aimd.Decreases, cubic.Decreases)
	}
	if !strings.Contains(r.Table().String(), "cubic") {
		t.Error("table rendering")
	}
}

func TestAblationPearsonRule(t *testing.T) {
	r := AblationPearson(seed)
	// The classical rule over-emphasises the three coincidentally aligned
	// samples and flags the decoy; the paper's rule does not.
	if r.OmitMissing < r.Threshold {
		t.Errorf("omit-missing r = %v, expected the decoy to be (wrongly) flagged", r.OmitMissing)
	}
	if r.MissingAsZero >= r.Threshold {
		t.Errorf("missing-as-zero r = %v, expected below threshold %v", r.MissingAsZero, r.Threshold)
	}
	if !strings.Contains(r.Table().String(), "missing-as-zero") {
		t.Error("table rendering")
	}
}

func TestAblationDetectorFalsePositives(t *testing.T) {
	r := AblationDetector(seed)
	// Deviation detection: quiet alone and next to the benign neighbour,
	// loud with fio.
	if r.DevAlone > 0.1 {
		t.Errorf("deviation detector flags alone = %v", r.DevAlone)
	}
	if r.DevFio < 0.3 {
		t.Errorf("deviation detector hit rate with fio = %v, want substantial", r.DevFio)
	}
	// The absolute detector flags the harmless oltp neighbour (any load
	// raises the mean), which would trigger unwarranted throttling; the
	// deviation detector stays far quieter there.
	if r.AbsOLTP < r.DevOLTP+0.2 {
		t.Errorf("absolute detector on benign oltp = %v vs deviation %v; expected heavy false positives",
			r.AbsOLTP, r.DevOLTP)
	}
	if r.AbsFio < 0.3 {
		t.Errorf("absolute detector with fio = %v, should also fire", r.AbsFio)
	}
	if !strings.Contains(r.Table().String(), "deviation") {
		t.Error("table rendering")
	}
}

func TestAIMDPolicy(t *testing.T) {
	a := core.NewAIMD(0.5, 0.1, 1)
	a.MinCap = 0.1
	a.MaxCap = 2
	if got := a.Update(1, true); got != 0.5 {
		t.Errorf("decrease = %v, want 0.5", got)
	}
	if got := a.Update(2, false); got != 0.6 {
		t.Errorf("increase = %v, want 0.6", got)
	}
	for i := int64(3); i < 40; i++ {
		a.Update(i, false)
	}
	if a.Cap() != 2 {
		t.Errorf("cap = %v, want clamped at MaxCap 2", a.Cap())
	}
	for i := int64(40); i < 60; i++ {
		a.Update(i, true)
	}
	if a.Cap() != 0.1 {
		t.Errorf("cap = %v, want floored at MinCap 0.1", a.Cap())
	}
}

func TestAIMDPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { core.NewAIMD(0, 0.1, 1) },
		func() { core.NewAIMD(1, 0.1, 1) },
		func() { core.NewAIMD(0.5, 0, 1) },
		func() { core.NewAIMD(0.5, 0.1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAblationEWMA(t *testing.T) {
	r := AblationEWMA(seed)
	// Raw deltas are noisier: their alone peak sits closer to (or past)
	// the threshold than the smoothed signal's.
	if r.RawAlonePeak <= r.SmoothedAlonePeak {
		t.Errorf("raw alone peak %v should exceed smoothed %v", r.RawAlonePeak, r.SmoothedAlonePeak)
	}
	if r.SmoothedAlonePeak > r.Threshold {
		t.Errorf("smoothed alone peak %v above threshold", r.SmoothedAlonePeak)
	}
	// Both must still catch fio.
	if r.SmoothedFioFlag < 0.3 || r.RawFioFlag < 0.3 {
		t.Errorf("coverage smoothed=%v raw=%v", r.SmoothedFioFlag, r.RawFioFlag)
	}
	if !strings.Contains(r.Table().String(), "EWMA") {
		t.Error("table rendering")
	}
}
