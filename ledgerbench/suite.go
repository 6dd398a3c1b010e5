package main

import (
	"fmt"
	"os"
	"time"

	"perfcloud/internal/experiments"
	"perfcloud/internal/sim"
)

// figure is one call of the paper suite.
type figure struct {
	name   string
	render func() string
}

// prepareSuite returns the paper suite: the figures of the evaluation
// (3-7, 9-11) at paper scale, as perfbench -suite runs them, once at each
// of the figure seeds genSuite derives from the seed.
// Fig 12 is left out: its concurrent repetitions share the one
// *straggler.LATE that experiments.SchemeLATE builds, so its table differs
// from the sequential reference in nearly every run and the suite could
// not pass its own output check. It belongs back in the list once each
// repetition builds its own speculator.
// Its set-up is a paper-scale testbed like the ones the figures build
// inside their calls, where set-up is not separable from outside.
func prepareSuite(seed int64) (func(*ledger) outcome, func()) {
	setup := func() {
		experiments.NewTestbed(experiments.TestbedConfig{
			Seed: seed, Servers: 15, WorkersPerServer: 10,
			BlockBytes: 256 << 20, PerfCloud: experiments.ControllerConfig(),
		})
	}
	seeds := genSuite(seed)
	return func(l *ledger) outcome {
		var o outcome
		l.begin("testbed")
		t0 := time.Now()
		setup()
		o.setups = append(o.setups, time.Since(t0).Seconds())
		l.end()

		// Fast-path tracking keeps every testbed's cluster alive until the
		// reset below, so only traced iterations pay for it; their counts
		// cover exactly this iteration.
		experiments.SetTrackFastPaths(l != nil)
		pool := sim.SharedPool()
		pool.ResetPeak()
		pool0 := pool.Stats()

		var tables []string
		t0 = time.Now()
		for _, s := range seeds {
			for _, f := range suiteFigures(s) {
				l.begin(f.name)
				tables = append(tables, runFigure(f))
				l.end()
			}
		}
		o.run = time.Since(t0).Seconds()
		o.keep = tables
		for _, t := range tables {
			if t != "" {
				t = digest(t)
			}
			o.outputs = append(o.outputs, t)
		}

		if l == nil {
			return o
		}
		o.counts = fastPathCounts(experiments.FastPathTotals())
		experiments.SetTrackFastPaths(false)
		ps := pool.Stats()
		o.layers = map[string]float64{
			"experiments.testbed_s": l.seconds("testbed"),
			"sim.pool_peak":         float64(ps.Peak),
		}
		if tries := ps.TryAcquires - pool0.TryAcquires; tries > 0 {
			o.layers["sim.pool_denied_frac"] = float64(ps.Denied-pool0.Denied) / float64(tries)
		}
		var figSum float64
		for _, f := range suiteFigures(0) {
			o.layers["experiments."+f.name+"_s"] = l.seconds(f.name)
			figSum += l.seconds(f.name)
		}
		o.layers["bench.unattributed_frac"] = (o.run - figSum) / o.run
		return o
	}, setup
}

// suiteFigures returns the suite's figures at one seed, in order.
func suiteFigures(seed int64) []figure {
	var r9 experiments.Fig9Result
	return []figure{
		{"fig3", func() string { return experiments.Fig3(seed).Table().String() }},
		{"fig4", func() string { return experiments.Fig4(seed).Table().String() }},
		{"fig5", func() string { return experiments.Fig5(seed).Table().String() }},
		{"fig6", func() string { return experiments.Fig6(seed).Table().String() }},
		{"fig7", func() string { return experiments.Fig7().Table().String() }},
		{"fig9", func() string { r9 = experiments.Fig9(seed); return r9.Table().String() }},
		{"fig10", func() string { return experiments.Fig10(r9.Arm("perfcloud")).Table().String() }},
		{"fig11", func() string { return experiments.Fig11(seed).Table().String() }},
	}
}

// runFigure renders one figure, or returns "" if it panicked: a figure
// that cannot finish is a failed operation, not a crash of the benchmark.
func runFigure(f figure) (out string) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "ledgerbench: %s panicked: %v\n", f.name, r)
			out = ""
		}
	}()
	return f.render()
}
