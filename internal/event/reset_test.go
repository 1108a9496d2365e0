package event

import (
	"reflect"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// TestKernelReset: a kernel reset with a run behind it and handlers
// still posted is a fresh kernel with a grown list: nothing posted, no
// handler kept alive in the slots it no longer uses, time back at zero,
// so the same posts dispatch in the same order, FIFO among equal
// timestamps, and the dropped handlers never run.
func TestKernelReset(t *testing.T) {
	script := func(k *Kernel) (order []int) {
		for i, at := range []units.Time{30, 10, 30, 10, 20, 10} {
			k.At(at, func(units.Time) { order = append(order, i) })
		}
		k.Run()
		return order
	}
	want := script(NewKernel())

	k := NewKernel()
	k.At(50, func(units.Time) {})
	k.Run()
	dropped := 0
	for i := 0; i < 100; i++ {
		k.At(units.Time(1000-i), func(units.Time) { dropped++ })
	}
	k.Reset()
	if len(k.handlers) != 0 || k.Now() != 0 || k.draining {
		t.Fatalf("after Reset: %d posted, now %v, draining %v", len(k.handlers), k.Now(), k.draining)
	}
	if cap(k.handlers) < 100 {
		t.Errorf("Reset dropped the list's capacity: %d", cap(k.handlers))
	}
	for i, it := range k.handlers[:cap(k.handlers)] {
		if it.v != nil {
			t.Fatalf("list slot %d still holds a handler", i)
		}
	}
	if got := script(k); !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order after Reset %v, fresh kernel %v", got, want)
	}
	if dropped != 0 || k.Now() != 30 {
		t.Errorf("after the rerun: %d dropped handlers ran, now %v", dropped, k.Now())
	}
}

// TestPoolReset: Reset changes the channel count either way and leaves
// every channel idle, the ones a smaller pool had hidden included.
func TestPoolReset(t *testing.T) {
	p := NewPool(3)
	for i := 0; i < 3; i++ {
		p.Reserve(0, 100)
	}
	for _, n := range []int{1, 3, 0, 8} {
		p.Reset(n)
		if p.Busy() != 0 || p.Horizon() != 0 {
			t.Fatalf("Reset(%d): busy %v horizon %v", n, p.Busy(), p.Horizon())
		}
		size := max(n, 1)
		for i := 0; i < size; i++ {
			if s, _, ch := p.Reserve(5, 100); s != 5 || ch != i {
				t.Fatalf("Reset(%d): reservation %d starts at %v on channel %d, want an idle channel %d", n, i, s, ch, i)
			}
		}
		// Every channel is now busy: one more queues on channel 0.
		if s, _, ch := p.Reserve(5, 100); s != 105 || ch != 0 {
			t.Fatalf("Reset(%d): reservation past %d channels starts at %v on channel %d, want 105 on channel 0", n, size, s, ch)
		}
	}
}

// TestSequencerReset: events a run held and never drained are not
// delivered to the next run's sink, and the Sequencer follows the
// kernel it is rebound to.
func TestSequencerReset(t *testing.T) {
	var first, second obs.Buffer
	s := NewSequencer(NewKernel(), &first)
	for i := 0; i < 1000; i++ {
		s.Record(obs.Event{Time: units.Time(1000 - i), Kind: obs.KindDMARead})
	}
	k := NewKernel()
	s.Reset(k, &second)
	if cap(s.held) < 1000 {
		t.Errorf("Reset dropped the holding slice's capacity: %d", cap(s.held))
	}
	s.Record(obs.Event{Time: 20, Kind: obs.KindPin})
	s.Record(obs.Event{Time: 10, Kind: obs.KindUnpin})
	if n := s.Drain(); n != 2 || first.Len() != 0 || k.Now() != 20 {
		t.Fatalf("Drain dispatched %d, %d events reached the old sink, kernel at %v", n, first.Len(), k.Now())
	}
	if evs := second.Events(); len(evs) != 2 || evs[0].Kind != obs.KindUnpin || evs[1].Kind != obs.KindPin {
		t.Errorf("delivered %+v, want the unpin then the pin", evs)
	}
}
