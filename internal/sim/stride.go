package sim

import "time"

// Strider fast-forwards the simulation through up to max upcoming ticks
// and returns how many it elided, 0 <= n <= max. Strider and Stepper stay
// only because the ledgerbench benchmark module drives testbeds through
// them; the simulator itself steps the engine one tick at a time and
// implements no eliding Strider.
type Strider interface {
	Stride(clk *Clock, max int64) int64
}

// Stepper drives an engine one tick at a time, offering a Strider the
// chance to elide ticks after each one. With a nil Strider it is plain
// Engine.Step.
type Stepper struct {
	Eng *Engine
	Str Strider
}

// Step runs exactly one engine tick, then offers the strider up to
// bound(clk) further ticks (no limit when bound is nil; none when it
// returns 0 or less). It returns the total number of ticks advanced.
func (s *Stepper) Step(bound func(clk *Clock) int64) int64 {
	s.Eng.Step()
	if s.Str == nil {
		return 1
	}
	clk := &s.Eng.clock
	max := int64(1<<63 - 1)
	if bound != nil {
		max = bound(clk)
	}
	if max <= 0 {
		return 1
	}
	n := s.Str.Stride(clk, max)
	if n < 0 || n > max {
		panic("sim: strider elided ticks out of bounds")
	}
	clk.tick += n
	return 1 + n
}

// PeekSeconds returns the simulated time, in seconds, of the tick `ahead`
// ticks past the clock's current position, computed by the exact same
// expression Seconds evaluates once the clock reaches that tick. It stays
// only for the ledgerbench benchmark module, like TicksBefore.
func (c *Clock) PeekSeconds(ahead int64) float64 {
	return (time.Duration(c.tick+ahead) * c.tickSize).Seconds()
}

// TicksBefore returns how many consecutive upcoming ticks — starting with
// the tick at PeekSeconds(0) — have simulated time strictly below
// targetSec, capped at max.
func (c *Clock) TicksBefore(targetSec float64, max int64) int64 {
	if max <= 0 || !(c.PeekSeconds(0) < targetSec) {
		return 0
	}
	// Start from the algebraic estimate, then settle it against the exact
	// tick-to-seconds conversion; float rounding puts the estimate within a
	// step or two of the true boundary, so the scans are O(1).
	n := int64(targetSec/c.tickSize.Seconds()) - c.tick
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	for n > 1 && !(c.PeekSeconds(n-1) < targetSec) {
		n--
	}
	for n < max && c.PeekSeconds(n) < targetSec {
		n++
	}
	return n
}
