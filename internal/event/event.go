// Package event is the deterministic discrete-event kernel the
// simulators schedule overlapping work on: DMA fills, pin/reclaim
// upcalls and interrupt service become events with integer
// units.Time timestamps instead of strictly sequential clock charges.
//
// Determinism is the package's whole contract. The run queue is a
// binary min-heap ordered by (time, seq): seq is a dense counter
// assigned at scheduling, so events with equal timestamps dispatch in
// FIFO scheduling order — never in heap-internal or map order. A
// kernel is confined to one goroutine (each simulation run owns its
// own), so draining the same schedule produces byte-identical
// dispatch order at any -parallel experiment width.
package event

import (
	"fmt"

	"utlb/internal/units"
)

// Handler is one scheduled event's action, invoked with the kernel's
// current time (the event's timestamp). Handlers may schedule further
// events, at or after the current time.
type Handler func(now units.Time)

// item is one heap slot.
type item struct {
	at  units.Time
	seq uint64
	fn  Handler
}

// before is the (time, seq) ordering: earlier time first, FIFO
// scheduling order among equal timestamps.
func (it item) before(other item) bool {
	if it.at != other.at {
		return it.at < other.at
	}
	return it.seq < other.seq
}

// Kernel is the event queue of one simulated node (or one run). The
// zero value is ready to use; NewKernel exists for symmetry with the
// rest of the tree.
type Kernel struct {
	heap []item
	seq  uint64
	now  units.Time
	// dispatched counts events run, for tests and progress reporting.
	dispatched int64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Reset returns the kernel to time zero with nothing scheduled — events
// still pending are dropped unrun, their handlers released — and keeps
// the queue's capacity for the next run.
func (k *Kernel) Reset() {
	clear(k.heap)
	*k = Kernel{heap: k.heap[:0]}
}

// Now reports the kernel's current time: the timestamp of the last
// dispatched event (zero before the first dispatch).
func (k *Kernel) Now() units.Time { return k.now }

// Pending reports how many events are scheduled but not yet run.
func (k *Kernel) Pending() int { return len(k.heap) }

// Dispatched reports how many events have run since construction.
func (k *Kernel) Dispatched() int64 { return k.dispatched }

// At schedules fn at absolute time t. Scheduling into the past (t
// earlier than the event being dispatched) clamps to the current
// time — the event still runs, after everything already queued there,
// because its seq is newer. A nil handler panics at scheduling time,
// where the bug is, not at dispatch.
func (k *Kernel) At(t units.Time, fn Handler) {
	if fn == nil {
		panic("event: nil handler scheduled")
	}
	if t < k.now {
		t = k.now
	}
	k.push(item{at: t, seq: k.seq, fn: fn})
	k.seq++
}

// After schedules fn d after the kernel's current time. Negative
// delays clamp to zero.
func (k *Kernel) After(d units.Time, fn Handler) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// Step dispatches the single earliest event and reports whether one
// was run.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	it := k.pop()
	k.now = it.at
	k.dispatched++
	it.fn(k.now)
	return true
}

// Run drains the queue — including events scheduled by handlers while
// draining — and reports how many events were dispatched by this
// call.
func (k *Kernel) Run() int64 {
	start := k.dispatched
	for k.Step() {
	}
	return k.dispatched - start
}

// push/pop are a hand-rolled binary heap over (time, seq): no
// interface boxing, no container/heap indirection, and the ordering
// is exactly the documented one.

func (k *Kernel) push(it item) {
	k.heap = append(k.heap, it)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.heap[i].before(k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *Kernel) pop() item {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = item{} // release the handler
	k.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && k.heap[l].before(k.heap[smallest]) {
			smallest = l
		}
		if r < last && k.heap[r].before(k.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
	return top
}

// String summarises the kernel state for debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("event.Kernel{now: %v, pending: %d, dispatched: %d}",
		k.now, len(k.heap), k.dispatched)
}
