// Package event shows the Sequencer entry of allocstatic: one closure
// per recorded event, the shape a typed slice of held events replaced.
package event

import "utlb/internal/obs"

type Kernel struct{ pending []func() }

func (k *Kernel) At(t int64, fn func()) { k.pending = append(k.pending, fn) }

type Sequencer struct {
	k    *Kernel
	sink obs.Recorder
	held []obs.Event
}

// Record is a hot entry point; the closure scheduled per event is the
// positive.
func (s *Sequencer) Record(e obs.Event) {
	if s.sink == nil {
		return
	}
	s.k.At(e.Time, func() { s.sink.Record(e) })
	s.held = append(s.held, e)
}
