package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// EventType names one kind of control-plane decision event.
type EventType string

// The event taxonomy (DESIGN.md §5.4). One event per decision, emitted
// in simulation-time order: the engine ticks node managers sequentially
// and each manager applies its cap decisions in sorted VM order, so two
// runs with the same seed produce byte-identical event streams.
const (
	// EventSample is one monitoring interval: domains measured plus the
	// deviation signals computed from the sample.
	EventSample EventType = "sample"
	// EventDetect fires when a deviation signal crossed its threshold
	// (I(t) > H) on either channel.
	EventDetect EventType = "detect"
	// EventIdentify carries the per-suspect Pearson coefficients and the
	// confirmed antagonist lists for a contended interval.
	EventIdentify EventType = "identify"
	// EventCap is one CUBIC (or ablation-policy) cap decision: the old
	// and new absolute cap plus the controller's epoch state.
	EventCap EventType = "cap"
	// EventRelease removes a controller once contention is gone and the
	// probing cap exceeded the release factor.
	EventRelease EventType = "release"
	// EventMigrate is a node manager's escalation to the cloud manager.
	EventMigrate EventType = "migrate"
	// EventFastPaths is a periodic snapshot of the simulation's
	// fast-path accounting (quiescence, demand reuse, allocator memos).
	EventFastPaths EventType = "fastpaths"
	// EventAlert is one alert-rule lifecycle transition (pending, firing
	// or resolved) from the deterministic rule engine (DESIGN.md §5.9).
	EventAlert EventType = "alert"
)

// SuspectCorr is one suspect's Pearson coefficients against the victim
// deviation signals, recorded on identify events.
type SuspectCorr struct {
	VM  string  `json:"vm"`
	IO  float64 `json:"io"`
	CPU float64 `json:"cpu"`
}

// FastPathSnapshot is cumulative fast-path accounting for a server or a
// whole cluster: how many grant-phase ticks each fast path absorbed.
// The zero value is a valid empty snapshot.
type FastPathSnapshot struct {
	// QuiescentSkips counts grant-phase ticks elided outright because
	// the server was quiescent; Rebuilds and SteadyReuses partition the
	// grant phases that did run by whether the demand/request vectors
	// were rebuilt or reused.
	QuiescentSkips uint64 `json:"quiescent_skips"`
	SteadyReuses   uint64 `json:"steady_reuses"`
	Rebuilds       uint64 `json:"rebuilds"`
	// ShardSkips counts whole shards skipped by the sharded tick path —
	// one per tick per shard whose every server sat in the inactive set.
	// Always encoded (no omitempty): /debug/fastpaths consumers pin the
	// field name and a zero is itself informative (sharding inactive).
	ShardSkips uint64 `json:"shard_skips"`
	// Per-resource allocator input-memo accounting.
	CPUMemoHits    uint64 `json:"cpu_memo_hits"`
	CPUMemoMisses  uint64 `json:"cpu_memo_misses"`
	MemMemoHits    uint64 `json:"mem_memo_hits"`
	MemMemoMisses  uint64 `json:"mem_memo_misses"`
	DiskMemoHits   uint64 `json:"disk_memo_hits"`
	DiskMemoMisses uint64 `json:"disk_memo_misses"`
}

// Add accumulates another snapshot into s.
func (s *FastPathSnapshot) Add(o FastPathSnapshot) {
	s.QuiescentSkips += o.QuiescentSkips
	s.SteadyReuses += o.SteadyReuses
	s.Rebuilds += o.Rebuilds
	s.ShardSkips += o.ShardSkips
	s.CPUMemoHits += o.CPUMemoHits
	s.CPUMemoMisses += o.CPUMemoMisses
	s.MemMemoHits += o.MemMemoHits
	s.MemMemoMisses += o.MemMemoMisses
	s.DiskMemoHits += o.DiskMemoHits
	s.DiskMemoMisses += o.DiskMemoMisses
}

// Sub subtracts another snapshot from s. With o a past reading of the
// same monotone counters, the result is the delta accumulated since —
// how incremental aggregators (the cluster's per-shard stats) fold a
// server's fresh counters into a running total.
func (s *FastPathSnapshot) Sub(o FastPathSnapshot) {
	s.QuiescentSkips -= o.QuiescentSkips
	s.SteadyReuses -= o.SteadyReuses
	s.Rebuilds -= o.Rebuilds
	s.ShardSkips -= o.ShardSkips
	s.CPUMemoHits -= o.CPUMemoHits
	s.CPUMemoMisses -= o.CPUMemoMisses
	s.MemMemoHits -= o.MemMemoHits
	s.MemMemoMisses -= o.MemMemoMisses
	s.DiskMemoHits -= o.DiskMemoHits
	s.DiskMemoMisses -= o.DiskMemoMisses
}

// Event is one typed control-plane record. It is a flat union: fields
// irrelevant to an event's type stay at their zero value and are omitted
// from the JSON encoding, so a JSONL stream stays compact and — because
// encoding/json renders structs deterministically — byte-stable across
// same-seed runs.
type Event struct {
	// T is the simulation time in seconds.
	T    float64   `json:"t"`
	Type EventType `json:"type"`
	// Server is the emitting node manager's server id.
	Server string `json:"server,omitempty"`
	// VM and Res scope cap/release/migrate events to one controller
	// (Res is "io" or "cpu").
	VM  string `json:"vm,omitempty"`
	Res string `json:"res,omitempty"`

	// Sample / detect payload.
	Domains       int     `json:"domains,omitempty"`
	IowaitDev     float64 `json:"iowait_dev,omitempty"`
	CPIDev        float64 `json:"cpi_dev,omitempty"`
	MeanIowait    float64 `json:"mean_iowait,omitempty"`
	MeanCPI       float64 `json:"mean_cpi,omitempty"`
	IOContention  bool    `json:"io_contention,omitempty"`
	CPUContention bool    `json:"cpu_contention,omitempty"`

	// Identify payload.
	Corr           []SuspectCorr `json:"corr,omitempty"`
	IOAntagonists  []string      `json:"io_antagonists,omitempty"`
	CPUAntagonists []string      `json:"cpu_antagonists,omitempty"`

	// Cap / release payload: absolute caps (IOPS or cores) plus the
	// CUBIC epoch state — the growth-curve region and the number of
	// intervals since the last multiplicative decrease (0 = decreased
	// this interval, omitted from the encoding like every zero field).
	OldCap        float64 `json:"old_cap,omitempty"`
	NewCap        float64 `json:"new_cap,omitempty"`
	Region        string  `json:"region,omitempty"`
	SinceDecrease int64   `json:"since_decrease,omitempty"`

	// FastPaths payload.
	Fast *FastPathSnapshot `json:"fastpaths,omitempty"`

	// Alert payload: the rule name, the lifecycle state entered
	// ("pending", "firing" or "resolved"), the evaluated value against
	// its threshold, and when the condition first became true.
	Rule        string  `json:"rule,omitempty"`
	State       string  `json:"state,omitempty"`
	Value       float64 `json:"value,omitempty"`
	Threshold   float64 `json:"threshold,omitempty"`
	ActiveSince float64 `json:"active_since,omitempty"`
}

// Sink consumes events. Implementations must tolerate being called from
// the simulation loop; none of the provided sinks block.
type Sink interface {
	Emit(Event)
}

// MultiSink fans one event out to several sinks in order.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// JSONLSink encodes events as one JSON object per line. Encoding is
// deterministic (struct field order, shortest float representation), so
// same-seed runs produce byte-identical streams — the property
// TestSameSeedEventStreams locks in. Writes are buffered; call Flush
// before reading the destination. The first write error is sticky and
// reported by Flush.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink creates a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Flush drains the buffer and returns the first error encountered.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Collector retains every emitted event in order, for post-run export —
// the trace exporter renders cap/release/migrate events as instant
// markers on the Perfetto timeline. Safe for concurrent Emit.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

// Events returns the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Ring keeps the most recent events in a fixed-size buffer, for a live
// /debug/events endpoint. Safe for concurrent Emit and Events.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
}

// NewRing creates a ring holding up to n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("obs: ring size must be positive")
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.total++
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns how many events have been emitted over the ring's
// lifetime (retained or not).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
