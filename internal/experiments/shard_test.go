package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// setShards forces a package-wide shard setting for the duration of a
// test: n >= 0 shards the cluster tick, -1 restores the flat pre-shard
// path.
func setShards(t *testing.T, n int) {
	t.Helper()
	prev := cluster.SetDefaultShards(n)
	t.Cleanup(func() { cluster.SetDefaultShards(prev) })
}

// TestShardingMatchesFlat is the whole-experiment determinism contract
// of sharded ticking (DESIGN.md §5.7): partitioning the fleet into
// independently ticking shards with O(active) bookkeeping must leave
// every figure of the paper bit-for-bit unchanged against the flat
// path — across frameworks, antagonists, Dolly cloning and the PerfCloud
// control loop.
func TestShardingMatchesFlat(t *testing.T) {
	mix := smallMix()
	mix.NumMR, mix.NumSpark = 4, 4

	cases := []struct {
		name string
		run  func() any
	}{
		{"Fig3", func() any { return Fig3(seed) }},
		{"Fig11", func() any { return Fig11With(mix, []Scheme{SchemeLATE(), SchemeDolly(2), SchemePerfCloud()}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setShards(t, -1)
			flat := tc.run()
			for _, n := range []int{0, 3} {
				setShards(t, n)
				if sharded := tc.run(); !reflect.DeepEqual(flat, sharded) {
					t.Errorf("shards=%d result differs from flat reference:\nflat:    %+v\nsharded: %+v", n, flat, sharded)
				}
			}
		})
	}
}

// TestShardTracingByteIdentical extends the tracing invariant to the
// sharded tick path: a traced run must emit Perfetto JSON byte-identical
// to the flat run — every span boundary, phase attribution and
// control-plane instant on the same timestamps.
func TestShardTracingByteIdentical(t *testing.T) {
	run := func() []byte {
		pc := ControllerConfig()
		col := obs.NewCollector()
		pc.Events = col
		tr := trace.NewTracer()
		tb := NewTestbed(TestbedConfig{
			Seed:      7,
			Servers:   3,
			PerfCloud: pc,
			Tracer:    tr,
		})
		tb.MustInput("input", 512<<20)
		tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn))
		tb.RunMR(mapreduce.Terasort("input", 4), 30*time.Minute)
		var b bytes.Buffer
		if err := tr.WritePerfetto(&b, col.Events()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	setShards(t, -1)
	flat := run()
	setShards(t, 2)
	if sharded := run(); !bytes.Equal(flat, sharded) {
		t.Error("sharded run produced different trace bytes than the flat reference")
	}
}
