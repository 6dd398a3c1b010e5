package experiments

import (
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
)

// setParallel forces both parallelism knobs for the duration of a test:
// tick workers inside each cluster and concurrent experiment repetitions.
// Explicit counts matter — on a single-core host GOMAXPROCS-based
// defaults resolve to 1 worker, which would not exercise the concurrent
// paths at all.
func setParallel(t *testing.T, tickWorkers, runs int) {
	t.Helper()
	prevTick := cluster.SetDefaultTickWorkers(tickWorkers)
	prevRuns := SetMaxParallelRuns(runs)
	t.Cleanup(func() {
		cluster.SetDefaultTickWorkers(prevTick)
		SetMaxParallelRuns(prevRuns)
	})
}

// TestParallelMatchesSequential is the determinism contract of the
// parallel simulation core: for the same seed, concurrent experiment
// repetitions must produce results bit-for-bit identical to the
// sequential mode. Run with -race to also exercise the data-race freedom
// of the run fan-out. These testbeds are one shard each, so their ticks
// run inline; TestParallelTickMatchesSequential (cluster) covers the
// shard fan-out of the grant phase.
func TestParallelMatchesSequential(t *testing.T) {
	const s = seed

	smallVariability := VariabilityConfig{
		Seed:             s,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             3,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	mix := smallMix()
	mix.NumMR, mix.NumSpark = 4, 4

	cases := []struct {
		name string
		run  func() any
	}{
		{"Fig3", func() any { return Fig3(s) }},
		{"Fig9", func() any { return Fig9(s) }},
		{"Fig12", func() any { return Fig12With(smallVariability, []Scheme{SchemeLATE(), SchemePerfCloud()}) }},
		{"Fig11", func() any { return Fig11With(mix, []Scheme{SchemeLATE()}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setParallel(t, 1, 1)
			sequential := tc.run()

			setParallel(t, 4, 4)
			parallel := tc.run()

			if !reflect.DeepEqual(sequential, parallel) {
				t.Errorf("parallel result differs from sequential:\nseq: %+v\npar: %+v", sequential, parallel)
			}
		})
	}
}

// TestSharedPoolBoundsWorkers runs concurrent experiment repetitions —
// each ticking a multi-server cluster through the parallel grant phase —
// and asserts the process-wide slot pool never hands out more slots than
// it has: total concurrent workers stay at or below GOMAXPROCS (the pool
// capacity plus the one root goroutine). `make race` runs this under the
// race detector, exercising the pool's acquire/release paths.
func TestSharedPoolBoundsWorkers(t *testing.T) {
	pool := sim.SharedPool()
	pool.ResetPeak()

	prev := SetMaxParallelRuns(0) // automatic: as many repetition workers as allowed
	t.Cleanup(func() { SetMaxParallelRuns(prev) })

	cfg := VariabilityConfig{
		Seed:             seed,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             6,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	Fig12With(cfg, []Scheme{SchemeLATE()})

	if peak, capacity := pool.PeakInUse(), pool.Capacity(); peak > capacity {
		t.Fatalf("pool handed out %d slots, capacity %d: worker fan-outs multiplied", peak, capacity)
	}
	if used := pool.InUse(); used != 0 {
		t.Fatalf("%d slots still held after the suite finished", used)
	}
}
