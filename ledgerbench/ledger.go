package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"perfcloud/internal/experiments"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// span is one timed interval of a traced iteration. Start and End are
// nanoseconds since the ledger was created; Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	Run    string `json:"run"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ledger times the simulator's layers from outside: spans around the
// calls the benchmark makes into each layer (setup, Submit, engine steps,
// strides), and inside each engine step the split recorded by the marker
// tickables. A nil *ledger is the untraced mode: begin and end do
// nothing and stepper returns the testbed's own stepper.
type ledger struct {
	run    string
	origin time.Time
	spans  []span
	open   []int

	// sums and counts aggregate closed spans, and marker time, by name.
	sums   map[string]time.Duration
	counts map[string]int64

	lastMark time.Time

	// firstStep is true until the iteration's first engine step has run;
	// that step is measured on its own (cluster.first_tick_*).
	firstStep      bool
	firstTickAlloc uint64 // bytes the first step allocated
}

func newLedger(run string) *ledger {
	return &ledger{
		run:       run,
		origin:    time.Now(),
		sums:      make(map[string]time.Duration),
		counts:    make(map[string]int64),
		firstStep: true,
	}
}

// begin opens a span nested in the innermost open span.
func (l *ledger) begin(name string) {
	if l == nil {
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, span{Run: l.run, Name: name, Parent: parent, Start: int64(time.Since(l.origin))})
}

// end closes the innermost open span.
func (l *ledger) end() {
	if l == nil {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	s := &l.spans[i]
	s.End = int64(time.Since(l.origin))
	l.sums[s.Name] += time.Duration(s.End - s.Start)
	l.counts[s.Name]++
}

// seconds returns the summed time of every span or marker layer named name.
func (l *ledger) seconds(name string) float64 { return l.sums[name].Seconds() }

// marker is a no-op tickable that splits an engine step: each marker
// charges the time since the previous marker to the layer registered
// between the two.
type marker struct {
	l     *ledger
	layer string // the layer that ran since the previous marker; "" for the first
}

func (m *marker) Tick(*sim.Clock) {
	now := time.Now()
	if m.layer != "" {
		m.l.sums[m.layer] += now.Sub(m.l.lastMark)
	}
	m.l.lastMark = now
}

// markerLayers names what runs before each marker. The markers are
// registered at priorities -2..2 after NewTestbed, so each lands after the
// components of its priority: JobTracker and Driver at -1, the Cluster at
// 0, Dolly and the node managers at +1, the alert ticker at +2.
var markerLayers = []string{"", "frameworks.tick", "cluster.tick", "control.tick", "obs.alerts_tick"}

// stepper returns the stepper an iteration drives the testbed with. The
// untraced mode uses the testbed's own; the traced mode registers the
// markers and wraps the testbed's Strider so strides are timed.
func (l *ledger) stepper(tb *experiments.Testbed) *sim.Stepper {
	if l == nil {
		return tb.Stepper()
	}
	for i, layer := range markerLayers {
		tb.Eng.RegisterPriority(&marker{l: l, layer: layer}, i-2)
	}
	return &sim.Stepper{Eng: tb.Eng, Str: timedStrider{tb: tb, l: l}}
}

// timedStrider wraps Testbed.Stride in a span.
type timedStrider struct {
	tb *experiments.Testbed
	l  *ledger
}

func (s timedStrider) Stride(clk *sim.Clock, max int64) int64 {
	s.l.begin("stride")
	n := s.tb.Stride(clk, max)
	s.l.end()
	return n
}

// driver steps one testbed, counting engine steps and elided ticks in
// both modes and recording a span per step in the traced mode.
type driver struct {
	l      *ledger
	st     *sim.Stepper
	steps  int64
	elided int64
}

func (d *driver) step(bound func(*sim.Clock) int64) {
	if d.l == nil {
		d.elided += d.st.Step(bound) - 1
		d.steps++
		return
	}
	first := d.l.firstStep
	var cluster0 time.Duration
	var alloc0 uint64
	if first {
		d.l.firstStep = false
		cluster0 = d.l.sums["cluster.tick"]
		alloc0 = heapAllocs().bytes
	}
	d.l.begin("step")
	d.elided += d.st.Step(bound) - 1
	d.l.end()
	d.steps++
	if first {
		d.l.sums["cluster.first_tick"] = d.l.sums["cluster.tick"] - cluster0
		d.l.firstTickAlloc = heapAllocs().bytes - alloc0
	}
}

// runLayers maps the metrics that partition a testbed's run_s to the
// ledger names they are summed from.
var runLayers = []struct{ metric, name string }{
	{"frameworks.tick_s", "frameworks.tick"},
	{"cluster.tick_s", "cluster.tick"},
	{"control.tick_s", "control.tick"},
	{"obs.alerts_tick_s", "obs.alerts_tick"},
	{"sim.stride_s", "stride"},
	{"frameworks.submit_s", "submit"},
	{"obs.score_s", "score"},
	{"obs.fleet_sample_s", "fleet_sample"},
}

// engineLayers turns a traced testbed iteration's ledger into the layer
// metrics of the engine loop, and charges to bench.unattributed_frac the
// share of runSec that no layer covers. The stride counts, exact for a
// seed like the others, go into counts.
func engineLayers(l *ledger, d *driver, runSec float64, counts map[string]float64) map[string]float64 {
	m := map[string]float64{}
	var attributed float64
	for _, r := range runLayers {
		m[r.metric] = l.seconds(r.name)
		attributed += m[r.metric]
	}
	m["bench.unattributed_frac"] = (runSec - attributed) / runSec
	m["cluster.first_tick_s"] = l.seconds("cluster.first_tick")
	m["cluster.first_tick_alloc_mb"] = float64(l.firstTickAlloc) / 1e6
	counts["sim.stride_calls"] = float64(l.counts["stride"])
	if calls := l.counts["stride"]; calls > 0 {
		counts["sim.elided_per_stride"] = float64(d.elided) / float64(calls)
	}
	return m
}

// fastPathCounts turns the cluster's fast-path accounting into the
// cluster layer's counts and hit fractions, all exact for a seed.
func fastPathCounts(fp obs.FastPathSnapshot) map[string]float64 {
	return map[string]float64{
		"cluster.quiescent_skips":    float64(fp.QuiescentSkips),
		"cluster.shard_skips":        float64(fp.ShardSkips),
		"cluster.steady_reuse_frac":  frac(fp.SteadyReuses, fp.Rebuilds),
		"cluster.cpu_memo_hit_frac":  frac(fp.CPUMemoHits, fp.CPUMemoMisses),
		"cluster.mem_memo_hit_frac":  frac(fp.MemMemoHits, fp.MemMemoMisses),
		"cluster.disk_memo_hit_frac": frac(fp.DiskMemoHits, fp.DiskMemoMisses),
	}
}

// runUntil steps until pred holds or limitTicks ticks have passed, never
// striding past the tick at which pred first holds. It reports whether
// pred held.
func (d *driver) runUntil(pred func() bool, limitTicks int64) bool {
	for i := int64(0); i < limitTicks && !pred(); {
		before := d.elided
		remaining := limitTicks - i
		d.step(func(*sim.Clock) int64 {
			if pred() {
				return 0
			}
			return remaining - 1
		})
		i += 1 + d.elided - before
	}
	return pred()
}

// writeSpans writes every traced iteration's spans to path, one JSON
// object a line.
func writeSpans(path string, ledgers []*ledger) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range ledgers {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocs is the process's cumulative heap allocation.
type allocs struct{ bytes, objects uint64 }

func heapAllocs() allocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return allocs{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
}

// liveHeap returns the heap the last GC found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
