package event_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"utlb/internal/event"
	"utlb/internal/obs"
	"utlb/internal/parallel"
	"utlb/internal/units"
)

// drainOrder builds a kernel from a generated event set and returns
// the dispatch order as "time/tag" strings.
func drainOrder(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	k := event.NewKernel()
	var order []string
	for i := 0; i < n; i++ {
		t := units.Time(rng.Intn(50)) // small range forces timestamp collisions
		tag := i
		k.At(t, func(now units.Time) {
			order = append(order, fmt.Sprintf("%d/%d", now, tag))
			// A third of handlers reschedule, exercising scheduling
			// while draining (including same-instant follow-ups).
			if tag%3 == 0 {
				k.After(units.Time(tag%5), func(now units.Time) {
					order = append(order, fmt.Sprintf("%d/f%d", now, tag))
				})
			}
		})
	}
	k.Run()
	return order
}

// TestDeterminismAcrossWidths is the property test from the issue:
// the same random event sets must drain in identical order whether
// the enclosing runner uses 1 worker or 8. Each trial owns its own
// kernel (the kernel's contract is goroutine confinement, not
// sharing), mirroring how each simulation run owns one.
func TestDeterminismAcrossWidths(t *testing.T) {
	const trials = 32
	run := func(width int) [][]string {
		parallel.SetWorkers(width)
		defer parallel.SetWorkers(0)
		out, err := parallel.Map(trials, func(i int) ([]string, error) {
			return drainOrder(200, int64(i)*7919+1), nil
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return out
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		for i := range seq {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Fatalf("trial %d drain order diverged between widths:\nw1: %v\nw8: %v",
					i, seq[i], par[i])
			}
		}
		t.Fatal("drain orders diverged but no trial differs (shape change?)")
	}
}

// TestTieBreakFIFO is the white-box check on the (time, seq)
// ordering: events scheduled at the same timestamp dispatch in
// scheduling order, regardless of the interleaving with other
// timestamps, and follow-ups scheduled mid-drain at the current
// instant run after everything already queued there.
func TestTieBreakFIFO(t *testing.T) {
	k := event.NewKernel()
	var got []string
	log := func(s string) event.Handler {
		return func(units.Time) { got = append(got, s) }
	}
	k.At(10, log("a10-first"))
	k.At(5, log("b5-first"))
	k.At(10, log("c10-second"))
	k.At(5, log("d5-second"))
	k.At(10, func(units.Time) {
		got = append(got, "e10-third")
		// Scheduled at the current instant mid-drain: runs after
		// every event already queued at t=10.
		k.After(0, log("g10-followup"))
	})
	k.At(0, log("f0"))
	if n := k.Run(); n != 7 {
		t.Fatalf("dispatched %d events, want 7", n)
	}
	want := []string{"f0", "b5-first", "d5-second", "a10-first", "c10-second", "e10-third", "g10-followup"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	k := event.NewKernel()
	var got []string
	k.At(20, func(now units.Time) {
		// t=5 is in the past once we are dispatching at t=20.
		k.At(5, func(now units.Time) {
			got = append(got, fmt.Sprintf("clamped@%d", now))
		})
		got = append(got, fmt.Sprintf("first@%d", now))
	})
	k.Run()
	want := []string{"first@20", "clamped@20"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if k.Now() != 20 {
		t.Errorf("kernel time %v, want 20", k.Now())
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling a nil handler did not panic")
		}
	}()
	event.NewKernel().At(1, nil)
}

func TestStepAndCounters(t *testing.T) {
	k := event.NewKernel()
	if k.Step() {
		t.Fatal("Step on an empty kernel reported work")
	}
	k.At(3, func(units.Time) {})
	k.At(1, func(units.Time) {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	if !k.Step() || k.Now() != 1 {
		t.Fatalf("first Step: now = %v, want 1", k.Now())
	}
	if !k.Step() || k.Now() != 3 {
		t.Fatalf("second Step: now = %v, want 3", k.Now())
	}
	if k.Dispatched() != 2 || k.Pending() != 0 {
		t.Fatalf("dispatched %d pending %d, want 2 and 0", k.Dispatched(), k.Pending())
	}
	if !strings.Contains(k.String(), "dispatched: 2") {
		t.Errorf("String() = %q", k.String())
	}
}

func TestTimelineReserve(t *testing.T) {
	var tl event.Timeline
	// Idle resource: starts at ready.
	if s, e := tl.Reserve(10, 5); s != 10 || e != 15 {
		t.Fatalf("first Reserve = [%v,%v), want [10,15)", s, e)
	}
	// Busy resource: queues behind the horizon.
	if s, e := tl.Reserve(12, 3); s != 15 || e != 18 {
		t.Fatalf("queued Reserve = [%v,%v), want [15,18)", s, e)
	}
	// Late arrival after the horizon: starts at ready again.
	if s, e := tl.Reserve(30, 2); s != 30 || e != 32 {
		t.Fatalf("late Reserve = [%v,%v), want [30,32)", s, e)
	}
	// Negative duration clamps but still orders against the horizon.
	if s, e := tl.Reserve(0, -4); s != 32 || e != 32 {
		t.Fatalf("negative-dur Reserve = [%v,%v), want [32,32)", s, e)
	}
	if tl.Free() != 32 || tl.Busy() != 10 {
		t.Errorf("Free %v Busy %v, want 32 and 10", tl.Free(), tl.Busy())
	}
}

func TestPoolPicksEarliestChannel(t *testing.T) {
	p := event.NewPool(2)
	// Both idle: lowest index wins.
	if s, e, ch := p.Reserve(0, 10); s != 0 || e != 10 || ch != 0 {
		t.Fatalf("Reserve 1 = [%v,%v) ch%d, want [0,10) ch0", s, e, ch)
	}
	// Channel 0 busy until 10: channel 1 takes the overlap.
	if s, e, ch := p.Reserve(2, 10); s != 2 || e != 12 || ch != 1 {
		t.Fatalf("Reserve 2 = [%v,%v) ch%d, want [2,12) ch1", s, e, ch)
	}
	// Both busy: earliest-free (channel 0 at 10) wins.
	if s, e, ch := p.Reserve(4, 1); s != 10 || e != 11 || ch != 0 {
		t.Fatalf("Reserve 3 = [%v,%v) ch%d, want [10,11) ch0", s, e, ch)
	}
	if p.Horizon() != 12 {
		t.Errorf("Horizon = %v, want 12", p.Horizon())
	}
	if p.Busy() != 21 {
		t.Errorf("Busy = %v, want 21", p.Busy())
	}
	if p.Size() != 2 {
		t.Errorf("Size = %d, want 2", p.Size())
	}
	if NewPoolSizeOf(0) != 1 {
		t.Errorf("NewPool(0) size = %d, want 1 (clamped)", NewPoolSizeOf(0))
	}
}

func NewPoolSizeOf(n int) int { return event.NewPool(n).Size() }

// TestSequencerOrdersEmission: events recorded out of timestamp order
// (the whole point of overlap) reach the wrapped recorder sorted by
// (time, scheduling seq) once the kernel drains.
func TestSequencerOrdersEmission(t *testing.T) {
	k := event.NewKernel()
	var buf obs.Buffer
	s := event.NewSequencer(k, &buf)
	s.Record(obs.Event{Time: 30, Kind: obs.KindDMARead})
	s.Record(obs.Event{Time: 10, Kind: obs.KindPin})
	s.Record(obs.Event{Time: 30, Kind: obs.KindDMAWrite}) // ties with the first by time; loses by seq
	s.Record(obs.Event{Time: 20, Kind: obs.KindInterrupt})
	if n := s.Drain(); n != 4 {
		t.Fatalf("Drain dispatched %d, want 4", n)
	}
	events := buf.Events()
	want := []obs.Kind{obs.KindPin, obs.KindInterrupt, obs.KindDMARead, obs.KindDMAWrite}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e.Kind != want[i] {
			t.Errorf("event %d kind %v, want %v", i, e.Kind, want[i])
		}
	}
}

func TestSequencerNilSinkDropsQuietly(t *testing.T) {
	k := event.NewKernel()
	s := event.NewSequencer(k, nil)
	s.Record(obs.Event{Time: 5, Kind: obs.KindPin})
	if k.Pending() != 0 {
		t.Fatalf("nil-sink Record scheduled an event")
	}
	if s.Drain() != 0 {
		t.Fatal("nil-sink Drain dispatched events")
	}
}

// kernelSequencer is the Sequencer as it was first built — every
// Record a closure on the kernel's heap at the event's timestamp —
// kept as the reference for the order the slice-backed one delivers
// in.
type kernelSequencer struct {
	k    *event.Kernel
	sink obs.Recorder
}

func (s *kernelSequencer) Record(e obs.Event) {
	s.k.At(e.Time, func(units.Time) { s.sink.Record(e) })
}

func (s *kernelSequencer) Drain() int64 { return s.k.Run() }

// echoSink logs what it is handed and, for every event whose Arg2 is
// set, records that many follow-ups back into the sequencer mid-drain:
// one in the past (which must clamp to now), the rest ahead.
type echoSink struct {
	seq interface{ Record(obs.Event) }
	got []obs.Event
}

func (s *echoSink) Record(e obs.Event) {
	s.got = append(s.got, e)
	for i := uint32(0); i < e.Arg2; i++ {
		s.seq.Record(obs.Event{Time: e.Time - 7 + units.Time(i)*5, Arg: e.Arg*100 + i, Kind: obs.KindCacheFill})
	}
}

// TestSequencerMatchesKernelOrder is the property the rewrite must
// keep: random out-of-order timestamps — collisions, negatives, a
// second batch recorded behind the clock after a first drain, events
// recorded by the sink mid-drain — reach the sink in exactly the order
// the kernel-scheduled Sequencer delivered them, and both report the
// same dispatch counts and leave the kernel at the same time.
func TestSequencerMatchesKernelOrder(t *testing.T) {
	type sequencer interface {
		Record(obs.Event)
		Drain() int64
	}
	run := func(seed int64, build func(*event.Kernel, obs.Recorder) sequencer) (got []obs.Event, counts []int64, now units.Time) {
		rng := rand.New(rand.NewSource(seed))
		k := event.NewKernel()
		sink := &echoSink{}
		seq := build(k, sink)
		sink.seq = seq
		id := uint32(1)
		for batch := 0; batch < 3; batch++ {
			for n := rng.Intn(300); n > 0; n-- {
				e := obs.Event{Time: units.Time(rng.Intn(60) - 5), Arg: id, Kind: obs.KindDMARead}
				if batch > 0 {
					e.Time += units.Time(rng.Intn(40)) // straddles the clock the last drain left
				}
				if rng.Intn(10) == 0 {
					e.Arg2 = uint32(1 + rng.Intn(3))
				}
				id++
				seq.Record(e)
			}
			counts = append(counts, seq.Drain(), k.Dispatched())
		}
		return sink.got, counts, k.Now()
	}
	for seed := int64(0); seed < 50; seed++ {
		want, wantCounts, wantNow := run(seed, func(k *event.Kernel, sink obs.Recorder) sequencer {
			return &kernelSequencer{k, sink}
		})
		got, gotCounts, gotNow := run(seed, func(k *event.Kernel, sink obs.Recorder) sequencer {
			return event.NewSequencer(k, sink)
		})
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: delivery %d of %d differs: got %+v, want %+v", seed, i, len(want), got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("seed %d: delivered %d events, want %d", seed, len(got), len(want))
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) || gotNow != wantNow {
			t.Errorf("seed %d: counts %v now %v, want %v now %v", seed, gotCounts, gotNow, wantCounts, wantNow)
		}
	}
}
