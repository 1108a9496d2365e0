package event

import (
	"reflect"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// TestKernelReset: a kernel reset mid-run — events dispatched, more
// still queued — is a fresh kernel with a grown queue: nothing pending,
// no handler kept alive in the slots it no longer uses, time, seq and
// the dispatch count back at zero, so the same schedule dispatches in
// the same order, FIFO among equal timestamps.
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
	dropped := 0
	for i := 0; i < 100; i++ {
		k.At(units.Time(1000-i), func(units.Time) { dropped++ })
	}
	for i := 0; i < 40; i++ {
		k.Step()
	}
	ran := dropped
	k.Reset()
	if k.Pending() != 0 || k.Now() != 0 || k.Dispatched() != 0 || k.seq != 0 {
		t.Fatalf("after Reset: %v, seq %d", k, k.seq)
	}
	if cap(k.heap) < 100 {
		t.Errorf("Reset dropped the queue's capacity: %d", cap(k.heap))
	}
	for i, it := range k.heap[:cap(k.heap)] {
		if it.fn != nil {
			t.Fatalf("heap slot %d still holds a handler", i)
		}
	}
	if got := script(k); !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order after Reset %v, fresh kernel %v", got, want)
	}
	if dropped != ran || k.Dispatched() != int64(len(want)) || k.Now() != 30 {
		t.Errorf("after the rerun: %d dropped handlers ran, %v", dropped-ran, k)
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
		if p.Size() != max(n, 1) || p.Busy() != 0 || p.Horizon() != 0 {
			t.Fatalf("Reset(%d): size %d busy %v horizon %v", n, p.Size(), p.Busy(), p.Horizon())
		}
		for i := 0; i < p.Size(); i++ {
			if s, _, ch := p.Reserve(5, 100); s != 5 || ch != i {
				t.Fatalf("Reset(%d): reservation %d starts at %v on channel %d, want an idle channel %d", n, i, s, ch, i)
			}
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
