package sim

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestSlotPoolAcquireRelease(t *testing.T) {
	p := NewSlotPool(4)
	if got := p.TryAcquire(3); got != 3 {
		t.Fatalf("TryAcquire(3) on empty pool = %d", got)
	}
	if got := p.TryAcquire(3); got != 1 {
		t.Fatalf("TryAcquire(3) with 1 free = %d, want partial grant 1", got)
	}
	if got := p.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on drained pool = %d, want 0", got)
	}
	if p.InUse() != 4 || p.PeakInUse() != 4 {
		t.Fatalf("InUse = %d, PeakInUse = %d, want 4, 4", p.InUse(), p.PeakInUse())
	}
	p.Release(4)
	if p.InUse() != 0 {
		t.Fatalf("InUse after release = %d", p.InUse())
	}
	if p.PeakInUse() != 4 {
		t.Fatalf("PeakInUse forgot the high-water mark: %d", p.PeakInUse())
	}
	p.ResetPeak()
	if p.PeakInUse() != 0 {
		t.Fatalf("PeakInUse after reset = %d", p.PeakInUse())
	}
}

func TestSlotPoolZeroCapacity(t *testing.T) {
	p := NewSlotPool(0)
	if got := p.TryAcquire(5); got != 0 {
		t.Fatalf("TryAcquire on zero-capacity pool = %d", got)
	}
}

func TestForEachSharedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ForEachShared(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSharedZeroAndOne(t *testing.T) {
	ForEachShared(0, 4, func(int) { t.Error("fn called for n=0") })
	calls := 0
	ForEachShared(1, 4, func(i int) { calls++ })
	if calls != 1 {
		t.Errorf("n=1 calls = %d", calls)
	}
}

func TestForEachSharedReleasesSlots(t *testing.T) {
	before := SharedPool().InUse()
	ForEachShared(100, 8, func(i int) {})
	if after := SharedPool().InUse(); after != before {
		t.Fatalf("slots leaked: InUse %d -> %d", before, after)
	}
}

func TestForEachSharedPeakWithinCapacity(t *testing.T) {
	SharedPool().ResetPeak()
	// Nest fan-outs the way the experiment suite does: an outer repetition
	// layer whose workers each fan out an inner tick layer.
	ForEachShared(8, 8, func(i int) {
		ForEachShared(16, 16, func(j int) {})
	})
	if peak, capacity := SharedPool().PeakInUse(), SharedPool().Capacity(); peak > capacity {
		t.Fatalf("peak slot usage %d exceeds pool capacity %d", peak, capacity)
	}
}

func TestForEachSharedPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := SharedPool().InUse()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic in fn was swallowed", workers)
				}
				p, ok := r.(*IterationPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *IterationPanic", workers, r)
				}
				if p.Index != 7 || p.Value != "boom" {
					t.Errorf("workers=%d: index %d value %v, want 7 boom", workers, p.Index, p.Value)
				}
				msg := p.Error()
				if !strings.Contains(msg, "iteration 7") {
					t.Errorf("workers=%d: message does not name the failing index:\n%s", workers, msg)
				}
				if !strings.Contains(msg, "sim.panicAtSeven") {
					t.Errorf("workers=%d: message lacks the panicking function's frame:\n%s", workers, msg)
				}
			}()
			ForEachShared(64, workers, panicAtSeven)
		}()
		if after := SharedPool().InUse(); after != before {
			t.Fatalf("workers=%d: slots leaked across panic: InUse %d -> %d", workers, before, after)
		}
	}
}

// panicAtSeven is a named loop body so the re-raised stack can be
// checked for its frame.
func panicAtSeven(i int) {
	if i == 7 {
		panic("boom")
	}
}

func TestForEachSharedSequentialWhenDrained(t *testing.T) {
	grabbed := SharedPool().TryAcquire(SharedPool().Capacity())
	defer SharedPool().Release(grabbed)
	// With the pool drained the loop must still complete, inline.
	var sum int // no synchronization: inline execution is single-goroutine
	ForEachShared(50, 8, func(i int) { sum += i })
	if sum != 50*49/2 {
		t.Fatalf("sum = %d", sum)
	}
}
