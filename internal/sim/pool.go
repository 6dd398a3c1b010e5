package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// SlotPool is a weighted pool of worker slots shared by every parallel
// layer of the process. Each slot licenses one extra goroutine beyond
// the caller's own; layers that fan out (experiment repetitions,
// per-cluster tick workers) acquire slots before spawning and release
// them as workers retire, so nested fan-outs cannot multiply into more
// runnable goroutines than the machine has processors.
//
// Acquisition is non-blocking and partial: a caller asking for k slots
// receives between 0 and k, weighted by what is free right now. A caller
// granted zero slots simply runs its work inline on its own goroutine —
// it never waits — which is what makes nested use deadlock-free: an
// inner layer that finds the pool drained degrades to sequential
// execution instead of parking a worker the outer layer is counting on.
type SlotPool struct {
	capacity int64
	used     atomic.Int64
	peak     atomic.Int64

	// Contention accounting for the health layer: how often callers asked
	// for slots, how often they were turned away empty-handed, and how
	// many slots were granted in total. Updated once per fan-out, not per
	// iteration, so the counters cost nothing on the simulation hot path.
	tryAcquires atomic.Uint64
	denied      atomic.Uint64
	granted     atomic.Uint64
}

// NewSlotPool creates a pool with the given number of slots. Capacity 0
// is valid: every TryAcquire returns 0 and all work runs inline.
func NewSlotPool(capacity int) *SlotPool {
	if capacity < 0 {
		capacity = 0
	}
	return &SlotPool{capacity: int64(capacity)}
}

// TryAcquire claims up to want slots without blocking and returns how
// many were granted (possibly zero).
func (p *SlotPool) TryAcquire(want int) int {
	if want <= 0 {
		return 0
	}
	p.tryAcquires.Add(1)
	for {
		used := p.used.Load()
		free := p.capacity - used
		if free <= 0 {
			p.denied.Add(1)
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if p.used.CompareAndSwap(used, used+n) {
			p.notePeak(used + n)
			p.granted.Add(uint64(n))
			return int(n)
		}
	}
}

// Release returns n slots to the pool.
func (p *SlotPool) Release(n int) {
	if n > 0 {
		p.used.Add(-int64(n))
	}
}

// Capacity returns the total number of slots.
func (p *SlotPool) Capacity() int { return int(p.capacity) }

// InUse returns the number of slots currently held.
func (p *SlotPool) InUse() int { return int(p.used.Load()) }

// PeakInUse returns the high-water mark of held slots since the last
// ResetPeak. Tests assert it stays at or below Capacity, which — with
// one root goroutine driving the work — bounds the process's concurrent
// workers at Capacity+1.
func (p *SlotPool) PeakInUse() int { return int(p.peak.Load()) }

// ResetPeak clears the high-water mark (down to the current usage).
func (p *SlotPool) ResetPeak() { p.peak.Store(p.used.Load()) }

// PoolStats is a snapshot of the pool's capacity and contention
// counters, for the health layer.
type PoolStats struct {
	Capacity int
	InUse    int
	Peak     int
	// TryAcquires counts TryAcquire calls with want > 0; Denied counts
	// those that returned 0 because the pool was drained; GrantedSlots
	// sums the slots handed out.
	TryAcquires  uint64
	Denied       uint64
	GrantedSlots uint64
}

// Stats snapshots the pool (counters are read independently, so a
// snapshot taken mid-fan-out may be momentarily inconsistent — fine for
// health reporting).
func (p *SlotPool) Stats() PoolStats {
	return PoolStats{
		Capacity:     p.Capacity(),
		InUse:        p.InUse(),
		Peak:         p.PeakInUse(),
		TryAcquires:  p.tryAcquires.Load(),
		Denied:       p.denied.Load(),
		GrantedSlots: p.granted.Load(),
	}
}

func (p *SlotPool) notePeak(used int64) {
	for {
		peak := p.peak.Load()
		if used <= peak || p.peak.CompareAndSwap(peak, used) {
			return
		}
	}
}

// sharedPool is the process-wide pool every ForEachShared call draws
// from. Its capacity is GOMAXPROCS-1 (at init): the root goroutine that
// drives a simulation is itself a worker, so granting up to P-1 extras
// keeps the total at P even when layers nest — an outer repetition
// worker that fans a cluster tick out further is idle (blocked in
// ForEachShared) only after its own loop body returned, and while it
// participates inline it holds no extra slot.
var sharedPool = NewSlotPool(runtime.GOMAXPROCS(0) - 1)

// SharedPool returns the process-wide worker slot pool.
func SharedPool() *SlotPool { return sharedPool }

// ForEachShared invokes fn(i) for every i in [0, n) with at most want
// workers, drawing the extra goroutines from the process-wide SharedPool
// instead of spawning unconditionally. The caller's goroutine always
// participates as one worker; up to want-1 additional workers run while
// slots are available, each returning its slot as it retires. When the
// pool is drained (or want <= 1, or n <= 1) the loop runs inline —
// sequentially — on the caller's goroutine.
//
// The iteration indices are handed out through an atomic counter, so the
// assignment of indices to goroutines (and their completion order) is
// nondeterministic; callers must make fn(i) independent of fn(j) for
// i != j and must write results only to index-i-owned locations. Under
// that contract every schedule is bit-for-bit identical to the
// sequential mode.
//
// A panic in fn stops further scheduling and is re-raised on the
// caller's goroutine after in-flight work drains, as an *IterationPanic
// carrying the iteration index and the stack of the goroutine that
// panicked — on a worker goroutine that stack is otherwise lost.
func ForEachShared(n, want int, fn func(i int)) {
	if want > n {
		want = n
	}
	extra := 0
	if want > 1 && n > 1 {
		extra = sharedPool.TryAcquire(want - 1)
	}
	if extra == 0 {
		i := 0
		defer func() {
			if r := recover(); r != nil {
				panic(newIterationPanic(i, r))
			}
		}()
		for ; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked *IterationPanic
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						stop.Store(true)
						panicMu.Lock()
						if panicked == nil {
							panicked = newIterationPanic(i, r)
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sharedPool.Release(1)
			work()
		}()
	}
	work() // the caller is a worker too; it holds no slot
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// IterationPanic is the value ForEachShared re-raises when fn panics: the
// failing iteration, the original panic value and the stack of the
// goroutine fn panicked on.
type IterationPanic struct {
	Index int
	Value any
	Stack []byte
}

// newIterationPanic captures the stack of the panicking goroutine; call it
// from the deferred recover, before the stack unwinds.
func newIterationPanic(i int, r any) *IterationPanic {
	return &IterationPanic{Index: i, Value: r, Stack: debug.Stack()}
}

func (p *IterationPanic) Error() string {
	return fmt.Sprintf("sim: iteration %d panicked: %v\n\n%s", p.Index, p.Value, p.Stack)
}
