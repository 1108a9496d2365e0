package event

import (
	"cmp"
	"slices"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// Sequencer is an obs.Recorder that holds events back and delivers
// them to the wrapped recorder, at Drain, in the order a kernel
// dispatching each one at its own timestamp would: by (time, seq),
// seq being record order. Under overlapping execution the layers no
// longer record in timestamp order — a DMA tail completes after the
// host has moved on — so virtual time, not the call order, defines
// the emission order the analyzers see.
//
// The events wait in a typed slice, not on the kernel's heap: a run
// records tens of thousands and drains once, and one stable sort at
// the drain replaces a closure and a heap sift per event. The kernel
// supplies the clock — Record clamps against its Now, Drain advances
// it — so the two stay one timeline.
//
// The Sequencer is single-goroutine, like the Buffer it usually
// wraps, and nil-transparent: a Sequencer over a nil recorder drops
// everything.
type Sequencer struct {
	k    *Kernel
	sink obs.Recorder
	// held is in record order outside a drain; Drain sorts it by
	// delivery time, and while it delivers, held[next:] is the sorted
	// undelivered tail.
	held     []heldEvent
	next     int
	draining bool
}

type heldEvent struct {
	at units.Time // delivery time: the event's own, clamped to the clock
	ev obs.Event
}

// NewSequencer returns a Sequencer on k's timeline delivering to
// sink. A nil kernel panics — the Sequencer exists to use one.
func NewSequencer(k *Kernel, sink obs.Recorder) *Sequencer {
	s := &Sequencer{}
	s.Reset(k, sink)
	return s
}

// Reset rebinds the Sequencer to k's timeline and to sink, dropping
// undelivered whatever a run that never reached its Drain left held,
// and keeps the holding slice's capacity for the next run.
func (s *Sequencer) Reset(k *Kernel, sink obs.Recorder) {
	if k == nil {
		panic("event: Sequencer with nil kernel")
	}
	*s = Sequencer{k: k, sink: sink, held: s.held[:0]}
}

// Record holds e for delivery at e.Time. Events timestamped before
// the kernel's current time (possible only if Record is called
// mid-drain) are delivered at the current time, preserving FIFO order
// among themselves.
func (s *Sequencer) Record(e obs.Event) {
	if s.sink == nil {
		return
	}
	if len(s.held) == cap(s.held) {
		// Double: append's policy for large slices adds a quarter,
		// which copies a run's events five times over.
		s.held = slices.Grow(s.held, max(len(s.held), 256))
	}
	h := heldEvent{at: max(e.Time, s.k.now), ev: e}
	s.held = append(s.held, h)
	if s.draining {
		// Recorded by the sink mid-drain: the newest seq goes after
		// every undelivered event at or before its time.
		i := len(s.held) - 1
		for ; i > s.next && s.held[i-1].at > h.at; i-- {
			s.held[i] = s.held[i-1]
		}
		s.held[i] = h
	}
}

// Drain runs the kernel until empty, then delivers every held event
// in (time, seq) order — events the sink records while it drains
// included — and reports how many events were dispatched in all.
func (s *Sequencer) Drain() int64 {
	n := s.k.Run()
	if s.sink == nil {
		return n
	}
	slices.SortStableFunc(s.held, func(a, b heldEvent) int { return cmp.Compare(a.at, b.at) })
	s.draining = true
	for s.next = 0; s.next < len(s.held); s.next++ {
		h := s.held[s.next]
		s.k.now = max(s.k.now, h.at)
		s.k.dispatched++
		s.sink.Record(h.ev)
	}
	n += int64(s.next)
	s.held, s.draining = s.held[:0], false
	return n
}
