// Package cluster assembles the simulated testbed: physical servers
// (each owning a shared disk, CPU scheduler and memory system), the VMs
// placed on them (each owning a cgroup), and the per-tick resource
// pipeline that turns workload demand into granted resources and
// cumulative cgroup/perf counters.
//
// The pipeline per server per tick is:
//
//  1. every VM's workload declares Demand;
//  2. the CPU scheduler grants core-seconds (honouring CFS quota caps
//     from the cgroup — PerfCloud's CPU hard-capping knob);
//  3. the memory system converts granted CPU into instructions retired,
//     effective CPI and LLC traffic under shared-cache and bandwidth
//     contention;
//  4. the disk grants IOPS/bytes (honouring blkio throttle caps) and
//     charges queueing delay;
//  5. cgroup counters accumulate; the workload consumes the Grant.
//
// Everything above the pipeline (frameworks, antagonist benchmarks,
// PerfCloud itself) interacts only through Workload, the cgroup counters
// and the hypervisor facade, mirroring the black-box VM boundary the
// paper works within.
package cluster

import (
	"fmt"
	"sync/atomic"

	"perfcloud/internal/cgroup"
	"perfcloud/internal/cpu"
	"perfcloud/internal/disk"
	"perfcloud/internal/memsys"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// Priority mirrors the paper's two-level VM priority assigned by the
// cloud administrator (§I): PerfCloud protects high-priority applications
// by throttling low-priority antagonists.
type Priority int

const (
	// LowPriority VMs may be throttled to protect high-priority ones.
	LowPriority Priority = iota
	// HighPriority VMs host the data-intensive scale-out applications.
	HighPriority
)

// String returns "high" or "low".
func (p Priority) String() string {
	if p == HighPriority {
		return "high"
	}
	return "low"
}

// Demand is a workload's resource request for one tick.
type Demand struct {
	CPUSeconds float64 // core-seconds wanted
	IOOps      float64 // block I/O operations wanted
	IOBytes    float64 // block I/O bytes wanted

	// Memory behaviour while executing (see memsys.Request).
	CoreCPI         float64
	LLCRefsPerInstr float64
	BytesPerInstr   float64
	WorkingSetBytes float64
}

// Grant is what the pipeline actually delivered for one tick.
type Grant struct {
	CPUSeconds   float64
	Instructions float64
	CPI          float64
	IOOps        float64
	IOBytes      float64
	IOWaitMs     float64
	MemBytes     float64
}

// Workload is implemented by everything that runs inside a VM: antagonist
// benchmarks and framework task executors. Demand is called once per tick
// followed by Advance with the granted resources.
type Workload interface {
	// Name identifies the workload for logs and traces.
	Name() string
	// Demand returns the workload's resource request for a tick of the
	// given length in seconds.
	Demand(tickSec float64) Demand
	// Advance consumes one tick's grant.
	Advance(tickSec float64, g Grant)
	// Done reports whether the workload has finished all its work.
	//
	// Done is treated as terminal by the quiescence machinery: once a
	// workload reports true while its server is idle, the server may stop
	// being visited at all (DESIGN.md §5.7), so a transition back to false
	// is only observed after something calls Server.MarkDirty (as the
	// cap setters and placement changes do). Implementations that can
	// re-arm a finished workload must dirty the server themselves.
	Done() bool
}

// DemandEpocher is optionally implemented by Workloads whose demand is
// piecewise constant between discrete events — the fluid-model norm.
// DemandEpoch returns a counter that must advance before any call on
// which a subsequent Demand or Done result could differ from the last
// tick's (for the same tick length); while every VM on a server reports
// an unchanged epoch, the server reuses last tick's demand and request
// vectors instead of rebuilding them (DESIGN.md §5.3). Implementations
// must also keep Demand free of side effects, since reused ticks skip
// the call entirely. Workloads that do not implement the interface opt
// their server out of reuse; correctness is unaffected.
type DemandEpocher interface {
	DemandEpoch() uint64
}

// VM is one virtual machine: a cgroup, a placement, and (optionally) a
// running workload. VMs appear as black boxes to PerfCloud, which sees
// only the cgroup counters and throttle knobs.
type VM struct {
	id       string
	vcpus    float64
	memBytes float64
	priority Priority
	appID    string
	cg       *cgroup.Cgroup
	server   *Server
	workload Workload
	epocher  DemandEpocher // workload's demand-epoch view; nil if unsupported

	lastGrant Grant

	// thrCache memoises cg.Throttle() keyed by the cgroup's lock-free
	// ThrottleSeq, so rebuild ticks read the caps without a mutex
	// round-trip per VM. Valid only while thrSeq matches; see throttle().
	thrCache cgroup.Throttle
	thrSeq   uint64
	thrValid bool
}

// throttle returns the VM's current cgroup caps, serving repeats from a
// seq-validated cache. SetThrottle bumps the cgroup's atomic sequence
// counter, so a matching sequence proves the cached copy is bit-identical
// to what Throttle() would return.
func (v *VM) throttle() cgroup.Throttle {
	seq := v.cg.ThrottleSeq()
	if !v.thrValid || seq != v.thrSeq {
		v.thrCache = v.cg.Throttle()
		v.thrSeq = seq
		v.thrValid = true
	}
	return v.thrCache
}

// ID returns the VM's unique identifier.
func (v *VM) ID() string { return v.id }

// VCPUs returns the VM's virtual CPU count.
func (v *VM) VCPUs() float64 { return v.vcpus }

// MemBytes returns the VM's memory size.
func (v *VM) MemBytes() float64 { return v.memBytes }

// Priority returns the VM's administrator-assigned priority.
func (v *VM) Priority() Priority { return v.priority }

// AppID returns the identifier of the application this VM belongs to
// ("" when the VM is standalone). All VMs of one scale-out application
// share an AppID; the node manager groups them by it.
func (v *VM) AppID() string { return v.appID }

// Cgroup returns the VM's control group (counters + throttle knobs).
func (v *VM) Cgroup() *cgroup.Cgroup { return v.cg }

// Server returns the physical server hosting the VM.
func (v *VM) Server() *Server { return v.server }

// Workload returns the currently attached workload (nil if idle).
func (v *VM) Workload() Workload { return v.workload }

// SetWorkload attaches (or, with nil, detaches) the VM's workload.
func (v *VM) SetWorkload(w Workload) {
	v.workload = w
	v.epocher, _ = w.(DemandEpocher)
	v.server.MarkDirty()
}

// demandEpoch returns the VM's current demand epoch and whether the VM
// supports epoch-based reuse at all. A workload-less VM demands nothing
// until SetWorkload dirties the server, so it is trivially stable.
func (v *VM) demandEpoch() (uint64, bool) {
	if v.workload == nil {
		return 0, true
	}
	if v.epocher == nil {
		return 0, false
	}
	return v.epocher.DemandEpoch(), true
}

// Idle reports whether the VM has no runnable workload this tick.
func (v *VM) Idle() bool { return v.workload == nil || v.workload.Done() }

// LastGrant returns the resources delivered on the most recent tick,
// used by tests and the trace recorder (PerfCloud itself never reads it —
// it observes cgroup counters only).
func (v *VM) LastGrant() Grant { return v.lastGrant }

// ServerConfig bundles the per-server resource model configurations.
type ServerConfig struct {
	Disk disk.Config
	CPU  cpu.Config
	Mem  memsys.Config
}

// DefaultServerConfig mirrors the paper's Dell PowerEdge R630 hosts.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Disk: disk.DefaultConfig(),
		CPU:  cpu.DefaultConfig(),
		Mem:  memsys.DefaultConfig(),
	}
}

// Server is one physical machine.
type Server struct {
	id    string
	cfg   ServerConfig
	disk  *disk.Disk
	cpu   *cpu.Scheduler
	mem   *memsys.System
	cache *ContentCache
	vms   []*VM

	// clus and index tie the server back to its cluster and its stable
	// position in the creation-order server slice; the sharded tick path
	// keys its active bitset and shard ranges on index.
	clus  *Cluster
	index int

	// active records membership in the cluster's active set. Inactive
	// servers are provably quiescent and are not visited at all by the
	// sharded tick path — the O(active) contract of DESIGN.md §5.7.
	// wakePending marks servers already queued for reactivation so a
	// burst of dirtying events enqueues them once.
	active      bool
	wakePending bool

	// skipFrom is the cluster tick count at deactivation; the wake path
	// derives the number of elided grant-phase ticks from it instead of
	// counting them one by one.
	skipFrom uint64

	// pulled is the portion of this server's fast-path counters already
	// folded into its shard's aggregate; see shard.pull.
	pulled obs.FastPathSnapshot

	// epoch counts placement changes (VM add/remove/migrate). Samplers key
	// slice-indexed per-domain state on it: while the epoch is unchanged,
	// EachVM reports the same domains in the same order, so a cached index
	// stays valid and per-id lookups can be skipped entirely.
	epoch uint64

	// quiescent records that the last fully processed tick found every VM
	// idle, meaning the grant phase granted nothing and left no trace
	// beyond the disk's idle jitter draws (see DESIGN.md §5.2). While it
	// holds and no dirtying event intervenes, the grant phase may be
	// skipped outright; catchUp replays the elided jitter draws before
	// the next full tick, keeping results bit-for-bit identical. Any
	// mutation that could change a tick's outcome (workload attach,
	// placement change, cap change) clears it via MarkDirty, forcing one
	// full re-evaluation.
	quiescent bool

	// skipped counts grant-phase ticks elided while quiescent; skipIDs
	// snapshots the VM ids present during those ticks (placement changes
	// dirty the server, so the set is constant across a skipped stretch
	// even if it changes before the server next processes a full tick).
	skipped int
	skipIDs []string

	// Steady-state demand reuse (DESIGN.md §5.3). After a fully rebuilt
	// tick whose VMs all support DemandEpocher, epochs snapshots their
	// demand epochs and steadyValid arms the fast path: while every epoch
	// (and every cgroup throttle, and the tick length) is unchanged, the
	// demand/request vectors below still describe the current tick, so
	// the pipeline skips the Demand calls and vector rebuilds and goes
	// straight to the (input-memoized) allocators. MarkDirty and
	// placement changes disarm it.
	steadyValid  bool
	lastTickSec  float64
	epochs       []uint64
	throttleSeqs []uint64

	// fused arms the fused steady tick: set after a non-idle grant phase
	// leaves every allocator's input memo primed for the unchanged request
	// vectors, so the next steady tick can skip the idle scan, the memo
	// equality re-checks and the grant/result buffer copies, replaying only
	// the per-tick draws in place (see grantPhase). Guarded per tick by
	// steadyUsable plus each model's SteadyReady, so it degrades to the
	// ordinary paths the moment anything moves.
	fused bool

	// idleFlags caches each VM's idleness as observed by the most recent
	// grant-phase idle scan, index-aligned with vms. advancePhase reads it
	// instead of re-asking every workload: on fused ticks the scan is
	// skipped precisely because idleness provably cannot have changed
	// (Done is covered by the demand-epoch contract), and on every other
	// tick the scan has just refreshed the flags.
	idleFlags []bool

	// Cumulative fast-path accounting: grant-phase ticks elided by
	// quiescence, grant phases served by demand reuse, and grant phases
	// that rebuilt the demand/request vectors. Owned by the goroutine
	// ticking the server (plain fields, no hot-path atomics); read
	// between ticks via FastPathStats.
	statSkipped  uint64
	statSteady   uint64
	statRebuilds uint64

	// Per-tick scratch buffers, reused across ticks so the steady-state
	// resource pipeline allocates nothing. They are owned exclusively by
	// the goroutine ticking this server (servers never share scratch).
	demands    []Demand
	cpuReqs    []cpu.Request
	cpuGrants  []cpu.Grant
	memReqs    []memsys.Request
	memResults []memsys.Result
	diskReqs   []disk.Request
	diskGrants []disk.Grant
}

// Cache returns the server's page-cache model.
func (s *Server) Cache() *ContentCache { return s.cache }

// PlacementEpoch returns a counter that increments whenever the server's
// VM list changes (add, remove, migrate in or out). Samplers cache
// placement-ordered per-domain state and revalidate it only when the
// epoch moves.
func (s *Server) PlacementEpoch() uint64 { return s.epoch }

// Quiescent reports whether the server's last processed tick was a
// no-op (every VM idle) and no dirtying event has occurred since — i.e.
// whether the grant phase is currently being skipped.
func (s *Server) Quiescent() bool { return s.quiescent }

// MarkDirty clears the server's quiescent and steady-reuse state, forcing
// the next tick to run the full grant phase with freshly built request
// vectors. Actuators outside the cluster package (the hypervisor's cap
// setters) call it when they change state that the pipeline consumes;
// placement and workload changes call it internally.
func (s *Server) MarkDirty() {
	s.quiescent = false
	s.steadyValid = false
	s.activate()
}

// FastPathStats returns the server's cumulative fast-path accounting:
// how many grant-phase ticks quiescence elided, how many grant phases
// demand reuse served without rebuilding the request vectors, how many
// rebuilt, and each allocator's input-memo hit/miss counts. The counters
// are owned by the goroutine ticking the server, so read them between
// ticks (the monitoring/exposition cadence, not the tick hot path).
func (s *Server) FastPathStats() obs.FastPathSnapshot {
	fp := s.fastPathRaw()
	// An inactive server has pending elided ticks that its own counters
	// will only record on wake; fold them in so between-tick observers see
	// the same totals the flat per-tick accounting would report.
	if !s.active && s.clus != nil {
		fp.QuiescentSkips += s.clus.ticks - s.skipFrom
	}
	return fp
}

// fastPathRaw returns the counters the server itself has recorded, with
// no adjustment for ticks elided while inactive.
func (s *Server) fastPathRaw() obs.FastPathSnapshot {
	fp := obs.FastPathSnapshot{
		QuiescentSkips: s.statSkipped,
		SteadyReuses:   s.statSteady,
		Rebuilds:       s.statRebuilds,
	}
	fp.CPUMemoHits, fp.CPUMemoMisses = s.cpu.MemoStats()
	fp.MemMemoHits, fp.MemMemoMisses = s.mem.MemoStats()
	fp.DiskMemoHits, fp.DiskMemoMisses = s.disk.MemoStats()
	return fp
}

// bumpEpoch records a placement change and re-dirties the pipeline.
func (s *Server) bumpEpoch() {
	s.epoch++
	s.quiescent = false
	s.steadyValid = false
	s.activate()
}

// activate queues an inactive server for reactivation at the start of
// the next sharded tick. Dirtying events arrive from sequential phases
// only (framework ticks, workload Advance, controller actuation, test
// setup) — never from the parallel grant fan-out — so the queue needs no
// synchronization. Draining at the tick boundary keeps mid-sweep wakes
// from mutating the active bitset while it is being iterated.
func (s *Server) activate() {
	c := s.clus
	if c == nil || s.active || s.wakePending {
		return
	}
	s.wakePending = true
	c.wakes = append(c.wakes, s)
}

// ID returns the server's identifier.
func (s *Server) ID() string { return s.id }

// VMs returns the VMs currently placed on the server (live slice copy).
func (s *Server) VMs() []*VM { return append([]*VM(nil), s.vms...) }

// EachVM calls fn for every VM on the server in placement order without
// copying the VM slice — the hot-path alternative to VMs() for per-tick
// and per-interval iteration (monitoring, placement queries). fn must not
// add or remove VMs on this server.
func (s *Server) EachVM(fn func(*VM)) {
	for _, v := range s.vms {
		fn(v)
	}
}

// NumVMs returns the number of VMs placed on the server.
func (s *Server) NumVMs() int { return len(s.vms) }

// Disk returns the server's disk model (for tests and traces).
func (s *Server) Disk() *disk.Disk { return s.disk }

// Mem returns the server's memory-system model (for tests and traces).
func (s *Server) Mem() *memsys.System { return s.mem }

// CPUConfig returns the server's CPU configuration.
func (s *Server) CPUConfig() cpu.Config { return s.cfg.CPU }

// FindVM returns the VM with the given id hosted on this server, or nil.
func (s *Server) FindVM(id string) *VM {
	for _, v := range s.vms {
		if v.id == id {
			return v
		}
	}
	return nil
}

// grantPhase runs the server-local half of the resource pipeline for one
// tick: collect demands, grant CPU/memory/disk, accumulate cgroup counters
// and stamp each VM's lastGrant. It touches only state owned by this
// server (its resource models, their per-server RNG streams, its VMs'
// cgroups) plus each workload's Demand method, so the cluster may run the
// grant phase of different servers concurrently. Workload.Advance — which
// may mutate state shared across servers, such as a framework's task set —
// is deferred to advancePhase.
func (s *Server) grantPhase(tickSec float64, quiesce, reuse bool) {
	n := len(s.vms)
	if n == 0 {
		// A server with no VMs is trivially quiescent: the pipeline has
		// nothing to do and no draws to replay. Mark it so the sharded
		// tick path can deactivate it, and account elided ticks the same
		// way populated quiescent servers do (with an empty replay set).
		if s.quiescent && quiesce {
			if s.skipped == 0 {
				s.skipIDs = s.skipIDs[:0]
			}
			s.skipped++
			s.statSkipped++
			return
		}
		s.catchUp()
		s.quiescent = true
		return
	}
	// Fused steady tick: armed only after a non-idle tick primed every
	// allocator's memo for the current request vectors. While the demand
	// epochs, throttles and tick length hold (steadyUsable) the vectors are
	// provably unchanged, so each memo is a guaranteed hit and the reused
	// grant/result buffers already carry last tick's values — the tick
	// reduces to the per-client draws, the handful of draw-dependent
	// fields, and the cgroup accumulation, bit-for-bit what the ordinary
	// steady path below produces. Idle states cannot have changed either
	// (Done is covered by the demand-epoch contract), so the idle scan and
	// the quiescent check are skipped: the server was non-idle at arm time
	// and still is.
	if reuse && s.fused && s.steadyUsable(tickSec, n) &&
		s.cpu.SteadyReady(tickSec) && s.mem.SteadyReady(tickSec) && s.disk.SteadyReady(tickSec) {
		s.statSteady++
		s.cpu.ReplaySteady()
		s.mem.ReplaySteadyInPlace(s.memResults)
		s.disk.ReplaySteadyInPlace(s.diskGrants)
		for i, v := range s.vms {
			mr := &s.memResults[i]
			dg := &s.diskGrants[i]
			v.lastGrant.Instructions = mr.Instructions
			v.lastGrant.CPI = mr.CPI
			v.lastGrant.IOWaitMs = dg.WaitMs
			v.lastGrant.MemBytes = mr.MemBytes
			v.cg.AddTick(dg.Ops, dg.Bytes, dg.WaitMs, s.cpuGrants[i].Seconds,
				mr.Cycles, mr.Instructions, mr.LLCRefs, mr.LLCMisses)
		}
		return
	}
	s.fused = false
	// Quiescence fast path: when every VM is idle the full pipeline below
	// grants nothing — zero demands produce zero grants and cgroup
	// counters accumulate zeros. Its only lasting effect is the disk's
	// per-client idle jitter draws, which catchUp can replay later. The
	// first idle tick still runs the pipeline (it zeroes lastGrant and
	// settles the models' keep/GC state); every subsequent idle tick is
	// skipped until a workload wakes up or MarkDirty reports an external
	// change. Skipping is bit-for-bit invisible: enabling or disabling it
	// cannot change any simulation output (see DESIGN.md §5.2 and
	// TestQuiescenceMatchesFullPipeline).
	idle := true
	if cap(s.idleFlags) < n {
		s.idleFlags = make([]bool, n)
	}
	s.idleFlags = s.idleFlags[:n]
	for i, v := range s.vms {
		vi := v.Idle()
		s.idleFlags[i] = vi
		if !vi {
			idle = false
		}
	}
	if idle && s.quiescent && quiesce {
		if s.skipped == 0 {
			s.skipIDs = s.skipIDs[:0]
			for _, v := range s.vms {
				s.skipIDs = append(s.skipIDs, v.id)
			}
		}
		s.skipped++
		s.statSkipped++
		return
	}
	s.catchUp()

	// Steady-state reuse: when every VM's demand epoch (and throttle, and
	// the tick length) matches the snapshot taken after the last full
	// rebuild, the demand and request vectors below already describe this
	// tick, so the Demand calls and the three rebuild loops are skipped.
	// The allocators still run — the disk draws fresh queueing-delay
	// jitter every tick — but on identical inputs the CPU and memory
	// allocators return their cached grants and the disk reuses its solved
	// shares. Like quiescence, reuse is bit-for-bit invisible (see
	// TestMemoizationMatchesFullPipeline).
	steady := reuse && s.steadyUsable(tickSec, n)
	if steady {
		s.statSteady++
	} else {
		s.statRebuilds++
		s.demands = s.demands[:0]
		for _, v := range s.vms {
			var d Demand
			if !v.Idle() {
				d = v.workload.Demand(tickSec)
			}
			s.demands = append(s.demands, d)
		}

		// CPU.
		s.cpuReqs = s.cpuReqs[:0]
		for i, v := range s.vms {
			s.cpuReqs = append(s.cpuReqs, cpu.Request{
				ClientID: v.id,
				Seconds:  s.demands[i].CPUSeconds,
				VCPUs:    v.vcpus,
				CapCores: v.throttle().CPUCores,
			})
		}
	}
	s.cpuGrants = s.cpu.AllocateInto(s.cpuGrants[:0], tickSec, s.cpuReqs)

	// Memory system.
	if !steady {
		s.memReqs = s.memReqs[:0]
		for i, v := range s.vms {
			s.memReqs = append(s.memReqs, memsys.Request{
				ClientID:        v.id,
				CPUSeconds:      s.cpuGrants[i].Seconds,
				CoreCPI:         s.demands[i].CoreCPI,
				LLCRefsPerInstr: s.demands[i].LLCRefsPerInstr,
				BytesPerInstr:   s.demands[i].BytesPerInstr,
				WorkingSetBytes: s.demands[i].WorkingSetBytes,
			})
		}
	}
	s.memResults = s.mem.ComputeInto(s.memResults[:0], tickSec, s.memReqs)

	// Disk.
	if !steady {
		s.diskReqs = s.diskReqs[:0]
		for i, v := range s.vms {
			th := v.throttle()
			s.diskReqs = append(s.diskReqs, disk.Request{
				ClientID: v.id,
				Ops:      s.demands[i].IOOps,
				Bytes:    s.demands[i].IOBytes,
				CapIOPS:  th.ReadIOPS,
				CapBPS:   th.ReadBPS,
			})
		}
	}
	s.diskGrants = s.disk.AllocateInto(s.diskGrants[:0], tickSec, s.diskReqs)

	// Account.
	for i, v := range s.vms {
		g := Grant{
			CPUSeconds:   s.cpuGrants[i].Seconds,
			Instructions: s.memResults[i].Instructions,
			CPI:          s.memResults[i].CPI,
			IOOps:        s.diskGrants[i].Ops,
			IOBytes:      s.diskGrants[i].Bytes,
			IOWaitMs:     s.diskGrants[i].WaitMs,
			MemBytes:     s.memResults[i].MemBytes,
		}
		v.lastGrant = g
		v.cg.AddTick(g.IOOps, g.IOBytes, g.IOWaitMs, g.CPUSeconds,
			s.memResults[i].Cycles, s.memResults[i].Instructions,
			s.memResults[i].LLCRefs, s.memResults[i].LLCMisses)
	}

	// A fully processed all-idle tick proves the next one is skippable.
	s.quiescent = idle
	// After a rebuild, snapshot each VM's demand epoch to arm reuse for
	// the next tick; a reused tick leaves the snapshot untouched (it
	// matched by definition).
	if !steady {
		s.snapshotEpochs(tickSec)
	}
	// Arm the fused steady tick for the next round: the server is busy,
	// reuse is armed, and every allocator just primed (or re-hit) its memo
	// for the request vectors now in the buffers. Idle servers arm the
	// quiescence path instead — the two fast paths are mutually exclusive.
	s.fused = !idle && s.steadyValid &&
		s.cpu.SteadyReady(tickSec) && s.mem.SteadyReady(tickSec) && s.disk.SteadyReady(tickSec)
}

// steadyUsable reports whether the request vectors cached from the last
// full rebuild still describe a tick of length tickSec: the reuse state
// is armed, every VM's demand epoch matches the snapshot, and every
// cgroup's throttle sequence is unchanged — the caps baked into the
// cached requests are still in force. The throttle check makes reuse
// self-validating against cap changes applied directly through a Cgroup
// without a MarkDirty call, at the cost of one atomic load per VM.
func (s *Server) steadyUsable(tickSec float64, n int) bool {
	if !s.steadyValid || tickSec != s.lastTickSec ||
		len(s.epochs) != n || len(s.throttleSeqs) != n ||
		len(s.cpuReqs) != n || len(s.memReqs) != n || len(s.diskReqs) != n {
		return false
	}
	for i, v := range s.vms {
		ep, ok := v.demandEpoch()
		if !ok || ep != s.epochs[i] || v.cg.ThrottleSeq() != s.throttleSeqs[i] {
			return false
		}
	}
	return true
}

// snapshotEpochs records the demand epochs and throttle sequences backing
// the just-rebuilt request vectors. A VM whose workload does not report
// epochs disarms reuse for the whole server — its demand could change
// silently.
func (s *Server) snapshotEpochs(tickSec float64) {
	s.lastTickSec = tickSec
	s.epochs = s.epochs[:0]
	s.throttleSeqs = s.throttleSeqs[:0]
	for _, v := range s.vms {
		ep, ok := v.demandEpoch()
		if !ok {
			s.steadyValid = false
			return
		}
		s.epochs = append(s.epochs, ep)
		s.throttleSeqs = append(s.throttleSeqs, v.cg.ThrottleSeq())
	}
	s.steadyValid = true
}

// catchUp replays the random draws of any skipped idle ticks before a
// full grant phase runs, so the disk's seeded stream sits exactly where
// a non-skipping run would have left it. It uses the VM set snapshotted
// when the skipped stretch began: placement changes dirty the server and
// end the stretch, so the snapshot is the set present throughout it.
func (s *Server) catchUp() {
	if s.skipped == 0 {
		return
	}
	s.disk.AdvanceIdle(s.skipped, s.skipIDs)
	s.skipped = 0
}

// advancePhase hands every VM its granted resources. Run sequentially in
// placement order across all servers after every grant phase finished, so
// Advance implementations may mutate cross-server state (a task shared
// between executors, a framework's bookkeeping) without synchronization
// and with a deterministic ordering.
func (s *Server) advancePhase(tickSec float64) {
	if len(s.idleFlags) != len(s.vms) {
		// No grant phase has classified this VM set yet (placement changed
		// with ticks suppressed); fall back to asking each workload.
		for _, v := range s.vms {
			if !v.Idle() {
				v.workload.Advance(tickSec, v.lastGrant)
			}
		}
		return
	}
	for i, v := range s.vms {
		if !s.idleFlags[i] {
			v.workload.Advance(tickSec, v.lastGrant)
		}
	}
}

// Cluster is the set of servers plus a VM registry. It implements
// sim.Tickable; register it with the engine at the resource-pipeline
// priority (after frameworks schedule, before controllers observe).
type Cluster struct {
	servers []*Server
	srvByID map[string]*Server
	vmsByID map[string]*VM

	// placeSeq counts placement mutations (server add, VM add/remove/
	// migrate). External indexes over the cluster (the cloud manager's
	// load heap) revalidate against it instead of rescanning.
	placeSeq uint64

	// workers bounds the goroutines used for the parallel grant phase:
	// 1 forces the sequential mode, 0 defers to the package default.
	workers int

	// ticks counts Tick invocations on the sharded path. It is the time
	// base for O(1) skipped-tick accounting: a server deactivated at tick
	// k and woken while the counter reads w missed exactly w-1-k grant
	// phases.
	ticks uint64

	// Sharded-tick state (DESIGN.md §5.7): the shard partition over the
	// server slice, the active bitset it indexes, the wake queue drained
	// at each tick boundary, and the cluster-wide inactive count.
	shards      []shard
	activeBits  []uint64
	shardBits   []uint64 // bit per shard, set while the shard has active servers
	wakes       []*Server
	inactive    int
	liveShards  []int // per-tick scratch: indices of shards with active servers
	partServers int   // len(servers) at the last partition build
	partSetting int   // shard setting at the last partition build
	shardBase   int   // partition arithmetic: base shard size ...
	shardRem    int   // ... and how many leading shards hold one extra

	// shardsVal/shardsSet are the per-cluster shard-count override:
	// unset defers to the package default (see SetDefaultShards).
	shardsVal int
	shardsSet bool

	// quiesce selects the quiescence fast path for this cluster:
	// 0 defers to the package default, 1 forces it on, 2 forces it off.
	quiesce int8

	// reuse selects the steady-state demand-reuse fast path, with the
	// same encoding as quiesce.
	reuse int8

	// statShardSkips counts shards skipped wholesale — per tick, per
	// shard whose every server was inactive.
	statShardSkips uint64

	// Engine self-profiling (wall-clock, non-deterministic, never in sim
	// outputs): sampled phase timers for the grant fan-out and the advance
	// sweep. Nil — one branch per phase — until SetHealth attaches a
	// health layer.
	health   *obs.Health
	tGrant   *obs.PhaseTimer
	tAdvance *obs.PhaseTimer
}

// defaultTickWorkers is the package-wide worker default for clusters that
// never called SetTickWorkers; 0 means GOMAXPROCS. It is atomic so tests
// and tools can flip modes without racing live clusters.
var defaultTickWorkers atomic.Int64

// SetDefaultTickWorkers sets the package-wide default worker count for
// Cluster.Tick and returns the previous setting. n == 1 makes every
// cluster tick sequentially, n <= 0 restores the automatic (GOMAXPROCS)
// default. Per-cluster SetTickWorkers overrides it.
func SetDefaultTickWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultTickWorkers.Swap(int64(n)))
}

// defaultQuiescenceOff disables the quiescence fast path package-wide
// when set; the zero value (enabled) is the normal operating mode. It is
// atomic so tests can flip modes without racing live clusters.
var defaultQuiescenceOff atomic.Bool

// SetDefaultQuiescence toggles the package-wide default for the
// quiescence fast path (skipping the grant phase of servers whose VMs
// are all idle) and returns the previous setting. The fast path is
// enabled by default; both settings produce bit-for-bit identical
// simulations — the toggle exists so tests can prove exactly that.
// Per-cluster SetQuiescence overrides it.
func SetDefaultQuiescence(enabled bool) bool {
	return !defaultQuiescenceOff.Swap(!enabled)
}

// defaultDemandReuseOff disables the steady-state demand-reuse fast path
// package-wide when set; the zero value (enabled) is the normal
// operating mode. It is atomic so tests can flip modes without racing
// live clusters.
var defaultDemandReuseOff atomic.Bool

// SetDefaultDemandReuse toggles the package-wide default for the
// steady-state demand-reuse fast path (reusing a server's demand and
// request vectors while no VM's demand epoch moved) and returns the
// previous setting. The fast path is enabled by default; both settings
// produce bit-for-bit identical simulations — the toggle exists so tests
// can prove exactly that. Per-cluster SetDemandReuse overrides it.
func SetDefaultDemandReuse(enabled bool) bool {
	return !defaultDemandReuseOff.Swap(!enabled)
}

// New creates an empty cluster.
func New() *Cluster {
	return &Cluster{
		srvByID: make(map[string]*Server),
		vmsByID: make(map[string]*VM),
	}
}

// SetTickWorkers bounds the worker pool used to run the per-server grant
// phase: 1 selects the deterministic sequential mode, 0 (the default)
// defers to SetDefaultTickWorkers / GOMAXPROCS. Both modes produce
// bit-for-bit identical simulations; see DESIGN.md §5.1.
func (c *Cluster) SetTickWorkers(n int) {
	if n < 0 {
		n = 0
	}
	c.workers = n
}

// TickWorkers returns the effective worker bound for this cluster's tick.
func (c *Cluster) TickWorkers() int {
	w := c.workers
	if w == 0 {
		w = int(defaultTickWorkers.Load())
	}
	return sim.Workers(w)
}

// SetQuiescence overrides the package-wide quiescence default for this
// cluster (see SetDefaultQuiescence).
func (c *Cluster) SetQuiescence(enabled bool) {
	if enabled {
		c.quiesce = 1
	} else {
		c.quiesce = 2
	}
}

// QuiescenceEnabled returns the effective quiescence setting for this
// cluster's tick.
func (c *Cluster) QuiescenceEnabled() bool {
	switch c.quiesce {
	case 1:
		return true
	case 2:
		return false
	}
	return !defaultQuiescenceOff.Load()
}

// SetDemandReuse overrides the package-wide demand-reuse default for
// this cluster (see SetDefaultDemandReuse).
func (c *Cluster) SetDemandReuse(enabled bool) {
	if enabled {
		c.reuse = 1
	} else {
		c.reuse = 2
	}
}

// DemandReuseEnabled returns the effective demand-reuse setting for this
// cluster's tick.
func (c *Cluster) DemandReuseEnabled() bool {
	switch c.reuse {
	case 1:
		return true
	case 2:
		return false
	}
	return !defaultDemandReuseOff.Load()
}

// SetHealth attaches an engine self-profiling layer: sampled wall-clock
// timers around the grant fan-out and the advance sweep.
// The timers measure the simulator's own execution — they never touch
// simulation state or outputs — and nil detaches them, restoring the
// single-branch no-op fast path.
func (c *Cluster) SetHealth(h *obs.Health) {
	c.health = h
	c.tGrant = h.Timer("cluster.grant")
	c.tAdvance = h.Timer("cluster.advance")
}

// AddServer creates a server with the given id and configuration.
// The rng factory seeds the server's stochastic resource models.
func (c *Cluster) AddServer(id string, cfg ServerConfig, rng *sim.RNG) *Server {
	if c.FindServer(id) != nil {
		panic(fmt.Sprintf("cluster: duplicate server %q", id))
	}
	// The per-server RNG streams are named by server id alone, so they
	// depend only on (master seed, id) — never on which shard the server
	// lands in or how many shards exist. Any repartition of the cluster
	// therefore sees bit-identical random sequences.
	s := &Server{
		id:     id,
		cfg:    cfg,
		disk:   disk.New(cfg.Disk, rng.Streamf("disk/%s", id)),
		cpu:    cpu.New(cfg.CPU),
		mem:    memsys.New(cfg.Mem, rng.Streamf("memsys/%s", id)),
		cache:  NewContentCache(16<<30, 120),
		clus:   c,
		index:  len(c.servers),
		active: true,
	}
	c.servers = append(c.servers, s)
	c.srvByID[id] = s
	c.placeSeq++
	return s
}

// AddVM creates a VM on the given server.
func (c *Cluster) AddVM(server *Server, id string, vcpus, memBytes float64, prio Priority, appID string) *VM {
	if _, dup := c.vmsByID[id]; dup {
		panic(fmt.Sprintf("cluster: duplicate VM %q", id))
	}
	v := &VM{
		id:       id,
		vcpus:    vcpus,
		memBytes: memBytes,
		priority: prio,
		appID:    appID,
		cg:       cgroup.New(id),
		server:   server,
	}
	server.vms = append(server.vms, v)
	server.bumpEpoch()
	c.vmsByID[id] = v
	c.placeSeq++
	return v
}

// MoveVM live-migrates a VM to another server, preserving the VM object
// (and thus its cgroup, workload and any references frameworks hold to
// it). Returns an error for unknown ids; moving to the current server is
// a no-op.
func (c *Cluster) MoveVM(vmID, serverID string) error {
	v, ok := c.vmsByID[vmID]
	if !ok {
		return fmt.Errorf("cluster: no VM %q", vmID)
	}
	dst := c.FindServer(serverID)
	if dst == nil {
		return fmt.Errorf("cluster: no server %q", serverID)
	}
	if v.server == dst {
		return nil
	}
	src := v.server
	for i, u := range src.vms {
		if u == v {
			src.vms = append(src.vms[:i], src.vms[i+1:]...)
			break
		}
	}
	dst.vms = append(dst.vms, v)
	v.server = dst
	src.bumpEpoch()
	dst.bumpEpoch()
	c.placeSeq++
	return nil
}

// RemoveVM detaches a VM from its server and the registry (used by the
// cloud manager for termination/migration). Removing an unknown VM is a
// no-op.
func (c *Cluster) RemoveVM(id string) {
	v, ok := c.vmsByID[id]
	if !ok {
		return
	}
	delete(c.vmsByID, id)
	srv := v.server
	for i, u := range srv.vms {
		if u == v {
			srv.vms = append(srv.vms[:i], srv.vms[i+1:]...)
			break
		}
	}
	srv.bumpEpoch()
	c.placeSeq++
}

// PlacementSeq returns a counter that increments on every placement
// mutation: server provisioning and VM add, remove or migrate. External
// indexes built over the cluster (the cloud manager's load heap) compare
// it against the value at their last sync to detect out-of-band changes.
func (c *Cluster) PlacementSeq() uint64 { return c.placeSeq }

// FastPathStats sums the fast-path accounting of every server in the
// cluster and adds the cluster-level shard counter. Call it
// between ticks (see Server.FastPathStats). With a current shard
// partition the sum is assembled in O(active servers + shards) from the
// per-shard aggregates; otherwise it falls back to the full sweep.
func (c *Cluster) FastPathStats() obs.FastPathSnapshot {
	fp := obs.FastPathSnapshot{ShardSkips: c.statShardSkips}
	if !c.partitionCurrent() {
		for _, s := range c.servers {
			fp.Add(s.FastPathStats())
		}
		return fp
	}
	// Pull the still-active servers' fresh counter deltas into their
	// shards (inactive servers were pulled when they deactivated), then
	// sum the shard aggregates plus each shard's pending elided ticks.
	c.eachActive(func(s *Server) { c.shards[c.shardIndex(s.index)].pull(s) })
	for i := range c.shards {
		sh := &c.shards[i]
		fp.Add(sh.agg)
		fp.QuiescentSkips += uint64(sh.inactive)*c.ticks - sh.sumSkipFrom
	}
	return fp
}

// Servers returns all servers in creation order (a copy). Iteration-only
// callers should prefer EachServer, which does not allocate.
func (c *Cluster) Servers() []*Server { return append([]*Server(nil), c.servers...) }

// EachServer calls fn for every server in creation order without copying
// the server slice. fn must not add servers.
func (c *Cluster) EachServer(fn func(*Server)) {
	for _, s := range c.servers {
		fn(s)
	}
}

// NumServers returns the number of servers in the cluster.
func (c *Cluster) NumServers() int { return len(c.servers) }

// NumVMs returns the number of VMs across all servers.
func (c *Cluster) NumVMs() int { return len(c.vmsByID) }

// ActiveServers returns how many servers are currently in the active set
// (visited by the sharded tick path). With sharding disabled every server
// counts as active.
func (c *Cluster) ActiveServers() int { return len(c.servers) - c.inactive }

// FindServer returns the server with the given id, or nil.
func (c *Cluster) FindServer(id string) *Server { return c.srvByID[id] }

// FindVM returns the VM with the given id, or nil.
func (c *Cluster) FindVM(id string) *VM { return c.vmsByID[id] }

// VMs returns all VMs across all servers in placement order.
func (c *Cluster) VMs() []*VM {
	var out []*VM
	for _, s := range c.servers {
		out = append(out, s.vms...)
	}
	return out
}

// EachVM calls fn for every VM across all servers in placement order
// without building the copy VMs() returns. fn must not add, remove or
// migrate VMs.
func (c *Cluster) EachVM(fn func(*VM)) {
	for _, s := range c.servers {
		for _, v := range s.vms {
			fn(v)
		}
	}
}

// AppVMs returns the VMs belonging to the given application id, across
// all servers.
func (c *Cluster) AppVMs(appID string) []*VM {
	var out []*VM
	c.EachAppVM(appID, func(v *VM) { out = append(out, v) })
	return out
}

// EachAppVM calls fn for every VM of the given application in placement
// order, without copying. fn must not add, remove or migrate VMs.
func (c *Cluster) EachAppVM(appID string, fn func(*VM)) {
	for _, s := range c.servers {
		for _, v := range s.vms {
			if v.appID == appID {
				fn(v)
			}
		}
	}
}

// Tick advances every server's resource pipeline by one tick: the
// server-local grant phases fan out across workers drawn from the
// process-wide shared slot pool (every server's state — resource models,
// RNG streams, cgroups — is goroutine-private, so any interleaving yields
// the same result), then the advance phase hands grants to workloads
// sequentially in placement order, because framework executors may mutate
// task state shared across servers (speculative and cloned attempts of
// one task run on several machines). Drawing from the shared pool keeps
// nested fan-outs — concurrent experiment repetitions each ticking their
// own cluster — from oversubscribing GOMAXPROCS.
func (c *Cluster) Tick(clk *sim.Clock) {
	tickSec := clk.TickSeconds()
	quiesce := c.QuiescenceEnabled()
	reuse := c.DemandReuseEnabled()
	if c.ShardSetting() < 0 {
		c.flatTick(tickSec, quiesce, reuse)
		return
	}
	c.shardedTick(tickSec, quiesce, reuse)
}

// flatTick is the pre-shard tick path: every server is visited every
// tick. Kept verbatim behind SetDefaultShards(-1)/SetShards(-1) so the
// equivalence tests can compare the sharded path against it.
func (c *Cluster) flatTick(tickSec float64, quiesce, reuse bool) {
	if c.inactive > 0 {
		// Sharding was just disabled with servers still parked in the
		// inactive set; settle their pending elided ticks so the flat
		// sweep below sees ordinary quiescent servers.
		c.wakeAll(c.ticks)
	}
	tg := c.tGrant.Begin()
	sim.ForEachShared(len(c.servers), c.TickWorkers(), func(i int) {
		c.servers[i].grantPhase(tickSec, quiesce, reuse)
	})
	c.tGrant.End(tg)
	ta := c.tAdvance.Begin()
	for _, s := range c.servers {
		s.advancePhase(tickSec)
	}
	c.tAdvance.End(ta)
}
