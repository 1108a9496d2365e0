// Package event is the overlap engine's deterministic ordering: DMA
// completions and recorded events posted with units.Time timestamps
// while a run executes are delivered, when it closes its books, in
// (time, post order). Each run owns its kernel, so the same posts
// drain byte-identically at any -parallel width.
package event

import (
	"cmp"
	"slices"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// Handler is a posted event's action, invoked with its timestamp.
type Handler func(now units.Time)

// stamped is one posted item and the time it is delivered at.
type stamped[T any] struct {
	at units.Time
	v  T
}

// timed is a list of posted items in post order; drain sorts it stably
// by time, so equal timestamps keep their post order.
type timed[T any] []stamped[T]

// post appends v at time at, clamped to k's Now. Posting while k
// drains panics: the item would land at an instant already passed.
func (l *timed[T]) post(k *Kernel, at units.Time, v T) {
	if k.draining {
		panic("event: posted while draining")
	}
	if len(*l) == cap(*l) {
		// Double: append grows a large slice by a quarter, copying 5× over.
		*l = slices.Grow(*l, max(len(*l), 256))
	}
	*l = append(*l, stamped[T]{max(at, k.now), v})
}

// drain delivers l's items in (time, post order), each moving k's Now
// up to its time, then empties l, keeping its capacity.
func drain[T any](k *Kernel, l *timed[T], deliver func(now units.Time, v T)) int64 {
	items := *l
	slices.SortStableFunc(items, func(a, b stamped[T]) int { return cmp.Compare(a.at, b.at) })
	k.draining = true
	for _, it := range items {
		k.now = max(k.now, it.at)
		deliver(k.now, it.v)
	}
	k.draining = false
	clear(items)
	*l = items[:0]
	return int64(len(items))
}

// Kernel is one run's posted handlers and the clock they drain along;
// its zero value is ready to use.
type Kernel struct {
	handlers timed[Handler]
	now      units.Time
	draining bool
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Reset returns the kernel to time zero with nothing posted, dropping
// and releasing handlers not yet run, and keeps the list's capacity.
func (k *Kernel) Reset() {
	clear(k.handlers)
	*k = Kernel{handlers: k.handlers[:0]}
}

// Now reports the time of the last delivered item (zero before one).
func (k *Kernel) Now() units.Time { return k.now }

// At posts fn at time t, clamped to Now (a late post runs at Now, after
// all posted there). A nil handler panics here, where the bug is.
func (k *Kernel) At(t units.Time, fn Handler) {
	if fn == nil {
		panic("event: nil handler scheduled")
	}
	k.handlers.post(k, t, fn)
}

// Run dispatches every posted handler in (time, post order) and
// reports how many it ran. A handler that calls At panics. The literal
// captures nothing, so Run inlined into a caller allocates nothing.
func (k *Kernel) Run() int64 {
	return drain(k, &k.handlers, func(now units.Time, fn Handler) { fn(now) })
}

// Sequencer is an obs.Recorder that holds events back and, at Drain,
// delivers them to the wrapped recorder in (time, record order): under
// overlap a DMA tail is recorded after the host has moved on, so virtual
// time, not call order, orders what the analyzers see. It runs on its
// kernel's clock and drops everything over a nil recorder.
type Sequencer struct {
	k    *Kernel
	sink obs.Recorder
	held timed[obs.Event]
}

// NewSequencer returns a Sequencer on k's clock delivering to sink. A
// nil kernel panics.
func NewSequencer(k *Kernel, sink obs.Recorder) *Sequencer {
	s := &Sequencer{}
	s.Reset(k, sink)
	return s
}

// Reset rebinds the Sequencer to k and sink, dropping undelivered what
// a run left held, and keeps the slice's capacity.
func (s *Sequencer) Reset(k *Kernel, sink obs.Recorder) {
	if k == nil {
		panic("event: Sequencer with nil kernel")
	}
	*s = Sequencer{k: k, sink: sink, held: s.held[:0]}
}

// Record holds e for delivery at e.Time, clamped to the kernel's Now.
// A sink that records into its Sequencer while it drains panics.
func (s *Sequencer) Record(e obs.Event) {
	if s.sink != nil {
		s.held.post(s.k, e.Time, e)
	}
}

// Drain runs the kernel, then delivers every held event in (time,
// record order), and reports how many handlers and events it delivered.
func (s *Sequencer) Drain() int64 {
	n := s.k.Run()
	if s.sink != nil {
		n += drain(s.k, &s.held, func(_ units.Time, e obs.Event) { s.sink.Record(e) })
	}
	return n
}
