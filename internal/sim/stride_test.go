package sim

import (
	"testing"
	"time"
)

// TestPeekSecondsMatchesSeconds pins PeekSeconds to the clock: PeekSeconds(k)
// evaluated now must equal what Seconds() returns once the clock actually
// reaches that tick.
func TestPeekSecondsMatchesSeconds(t *testing.T) {
	e := NewEngine(100*time.Millisecond, 1)
	c := e.Clock()
	const horizon = 50
	peeked := make([]float64, horizon)
	for k := 0; k < horizon; k++ {
		peeked[k] = c.PeekSeconds(int64(k))
	}
	for k := 0; k < horizon; k++ {
		if got := c.Seconds(); got != peeked[k] {
			t.Fatalf("tick %d: Seconds() = %v, PeekSeconds predicted %v", k, got, peeked[k])
		}
		e.Step()
	}
}

// TestTicksBeforeBoundaries exercises the edge cases of counting the ticks
// before a scheduled event: a target landing exactly on a tick's
// timestamp (that tick is not counted), targets at or behind the current
// tick, and the max cap.
func TestTicksBeforeBoundaries(t *testing.T) {
	e := NewEngine(100*time.Millisecond, 1)
	c := e.Clock()

	// Exactly on a tick boundary: ticks at 0.0..0.3 are strictly below
	// 0.4; the tick stamped 0.4 itself is excluded.
	if got := c.TicksBefore(c.PeekSeconds(4), 100); got != 4 {
		t.Errorf("TicksBefore(tick-4 boundary) = %d, want 4", got)
	}
	// Between boundaries: the partial tick counts.
	if got := c.TicksBefore(0.35, 100); got != 4 {
		t.Errorf("TicksBefore(0.35) = %d, want 4", got)
	}
	// Target at or before the current tick's own timestamp.
	if got := c.TicksBefore(0, 100); got != 0 {
		t.Errorf("TicksBefore(now) = %d, want 0", got)
	}
	if got := c.TicksBefore(-1, 100); got != 0 {
		t.Errorf("TicksBefore(past) = %d, want 0", got)
	}
	// Nonpositive max.
	if got := c.TicksBefore(10, 0); got != 0 {
		t.Errorf("TicksBefore(max=0) = %d, want 0", got)
	}
	// Cap binds.
	if got := c.TicksBefore(1e9, 7); got != 7 {
		t.Errorf("TicksBefore(cap) = %d, want 7", got)
	}

	// Cross-check against the definition on a moving clock: the count is
	// exactly the number of upcoming ticks with PeekSeconds < target.
	// Sweeping a fine-grained target past coarse tick boundaries covers
	// monitor-interval and epoch-boundary alignments.
	for step := 0; step < 25; step++ {
		for _, target := range []float64{0.05, 0.1, 0.95, 1.0, 1.05, 2.5, 3.0001} {
			want := int64(0)
			for want < 40 && c.PeekSeconds(want) < target {
				want++
			}
			if got := c.TicksBefore(target, 40); got != want {
				t.Fatalf("tick %d: TicksBefore(%v) = %d, want %d", c.Tick(), target, got, want)
			}
		}
		e.Step()
	}
}

// countStrider elides as many ticks as the bound allows; it tracks the
// clock positions it was offered so tests can assert the stepper's
// accounting.
type countStrider struct{ elided int64 }

func (s *countStrider) Stride(clk *Clock, max int64) int64 {
	s.elided += max
	return max
}

// TestStepperBoundedStrideStopsAtEvent: a bound from TicksBefore stops a
// maximally greedy strider short of the event tick, so the engine
// executes it — the clock lands on the tick a per-tick loop stops at.
func TestStepperBoundedStrideStopsAtEvent(t *testing.T) {
	const eventSec = 37.0

	e := NewEngine(time.Second, 1)
	str := &countStrider{}
	st := &Stepper{Eng: e, Str: str}
	for e.Clock().Seconds() < eventSec {
		st.Step(func(clk *Clock) int64 { return clk.TicksBefore(eventSec, 1<<40) })
	}
	if e.Clock().Tick() != 37 {
		t.Errorf("stopped at tick %d, want exactly 37 (the event tick, not past it)", e.Clock().Tick())
	}
	if str.elided != 36 {
		t.Errorf("strider elided %d ticks, want 36 (everything between the first step and the event)", str.elided)
	}
}

// TestStepperNilStriderIsPerTick: with no strider every Step advances
// exactly one tick.
func TestStepperNilStriderIsPerTick(t *testing.T) {
	e := NewEngine(time.Second, 1)
	st := &Stepper{Eng: e}
	for i := 0; i < 5; i++ {
		if n := st.Step(func(*Clock) int64 { return 1 << 40 }); n != 1 {
			t.Fatalf("step %d advanced %d ticks, want 1", i, n)
		}
	}
	if e.Clock().Tick() != 5 {
		t.Errorf("tick = %d, want 5", e.Clock().Tick())
	}
}

// TestStepperBoundZeroStopsStride: a caller bound of 0 means "my own
// event is due on the very next tick" — the strider must not be asked.
func TestStepperBoundZeroStopsStride(t *testing.T) {
	e := NewEngine(time.Second, 1)
	str := &countStrider{}
	st := &Stepper{Eng: e, Str: str}
	if n := st.Step(func(*Clock) int64 { return 0 }); n != 1 {
		t.Fatalf("advanced %d ticks, want 1", n)
	}
	if str.elided != 0 {
		t.Errorf("strider was consulted despite a zero bound (elided=%d)", str.elided)
	}
}
