package event_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"utlb/internal/event"
	"utlb/internal/obs"
	"utlb/internal/parallel"
	"utlb/internal/units"
)

// post is one item handed to a kernel or a Sequencer: its timestamp
// and a tag naming it.
type post struct {
	at  units.Time
	tag int
}

// reference is the order the package promises, computed the slow way:
// batch by batch (a drain separates two batches), each post's time is
// clamped to the clock the previous batches left, and each step picks
// the earliest remaining post, the first posted among equal times.
func reference(batches [][]post) (order []post) {
	var now units.Time
	for _, batch := range batches {
		left := make([]post, len(batch))
		for i, p := range batch {
			left[i] = post{max(p.at, now), p.tag}
		}
		for len(left) > 0 {
			best := 0
			for i := range left {
				if left[i].at < left[best].at {
					best = i
				}
			}
			order = append(order, left[best])
			now = left[best].at
			left = append(left[:best], left[best+1:]...)
		}
	}
	return order
}

// randomBatches draws three batches of posts over a small time range,
// forcing timestamp collisions, negatives included; the later batches
// straddle the clock the earlier ones leave, exercising the clamp.
func randomBatches(seed int64) [][]post {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]post, 3)
	tag := 0
	for b := range batches {
		for n := rng.Intn(300); n > 0; n-- {
			at := units.Time(rng.Intn(60) - 5 + b*rng.Intn(40))
			batches[b] = append(batches[b], post{at, tag})
			tag++
		}
	}
	return batches
}

// runKernel posts each batch to a fresh kernel, one Run per batch, and
// returns what the handlers saw: their time and tag, in dispatch order.
func runKernel(batches [][]post) (order []post) {
	k := event.NewKernel()
	for _, batch := range batches {
		for _, p := range batch {
			tag := p.tag
			k.At(p.at, func(now units.Time) { order = append(order, post{now, tag}) })
		}
		if n := k.Run(); n != int64(len(batch)) {
			panic(fmt.Sprintf("Run dispatched %d of %d", n, len(batch)))
		}
	}
	return order
}

// TestSequencerMatchesKernelOrder: over random batches, the kernel
// dispatches and the Sequencer delivers in exactly the reference's
// (time, post order), and each leaves the clock at the last time.
func TestSequencerMatchesKernelOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		batches := randomBatches(seed)
		want := reference(batches)
		if got := runKernel(batches); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: kernel dispatched %v, want %v", seed, got, want)
		}
		k := event.NewKernel()
		var buf obs.Buffer
		s := event.NewSequencer(k, &buf)
		for _, batch := range batches {
			for _, p := range batch {
				s.Record(obs.Event{Time: p.at, Arg: uint32(p.tag)})
			}
			if n := s.Drain(); n != int64(len(batch)) {
				t.Fatalf("seed %d: Drain delivered %d of %d", seed, n, len(batch))
			}
		}
		events := buf.Events()
		if len(events) != len(want) {
			t.Fatalf("seed %d: delivered %d events, want %d", seed, len(events), len(want))
		}
		for i, e := range events {
			if int(e.Arg) != want[i].tag {
				t.Fatalf("seed %d: delivery %d is post %d, want %d", seed, i, e.Arg, want[i].tag)
			}
		}
		if len(want) > 0 && k.Now() != want[len(want)-1].at {
			t.Errorf("seed %d: clock at %v, want %v", seed, k.Now(), want[len(want)-1].at)
		}
	}
}

// TestDeterminismAcrossWidths: the same random batches dispatch in
// identical order whether the enclosing runner uses 1 worker or 8. Each
// trial owns its own kernel, as each simulation run does.
func TestDeterminismAcrossWidths(t *testing.T) {
	const trials = 32
	run := func(width int) [][]post {
		parallel.SetWorkers(width)
		defer parallel.SetWorkers(0)
		out, err := parallel.Map(trials, func(i int) ([]post, error) {
			return runKernel(randomBatches(int64(i)*7919 + 1)), nil
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return out
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Fatal("dispatch orders diverged between widths 1 and 8")
	}
}

// TestTieBreakFIFO: events posted at the same timestamp dispatch in
// post order, whatever their interleaving with other timestamps.
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
	k.At(10, log("e10-third"))
	k.At(0, log("f0"))
	if n := k.Run(); n != 6 {
		t.Fatalf("dispatched %d events, want 6", n)
	}
	want := []string{"f0", "b5-first", "d5-second", "a10-first", "c10-second", "e10-third"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
}

// TestPastSchedulingClamps: once a Run has moved the clock to 20, a
// post at 5 runs at 20, after the ones already posted there.
func TestPastSchedulingClamps(t *testing.T) {
	k := event.NewKernel()
	k.At(20, func(units.Time) {})
	k.Run()
	var got []string
	log := func(s string) event.Handler {
		return func(now units.Time) { got = append(got, fmt.Sprintf("%s@%d", s, now)) }
	}
	k.At(20, log("on-time"))
	k.At(5, log("clamped"))
	k.At(25, log("later"))
	k.Run()
	want := []string{"on-time@20", "clamped@20", "later@25"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if k.Now() != 25 {
		t.Errorf("kernel time %v, want 25", k.Now())
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestNilHandlerPanics(t *testing.T) {
	mustPanic(t, "scheduling a nil handler", func() { event.NewKernel().At(1, nil) })
}

// TestAtWhileRunningPanics: a handler cannot post — its post would land
// behind the drain.
func TestAtWhileRunningPanics(t *testing.T) {
	k := event.NewKernel()
	k.At(1, func(units.Time) { k.At(2, func(units.Time) {}) })
	mustPanic(t, "At from a running handler", func() { k.Run() })
}

// recorderFunc adapts a function to obs.Recorder.
type recorderFunc func(obs.Event)

func (f recorderFunc) Record(e obs.Event) { f(e) }

// recordBack records every event it is handed back into seq.
type recordBack struct{ seq *event.Sequencer }

func (r *recordBack) Record(e obs.Event) { r.seq.Record(e) }

func TestRecordFromDrainingSinkPanics(t *testing.T) {
	sink := &recordBack{}
	sink.seq = event.NewSequencer(event.NewKernel(), sink)
	sink.seq.Record(obs.Event{Time: 1, Kind: obs.KindPin})
	mustPanic(t, "Record from a draining sink", func() { sink.seq.Drain() })
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
}

// TestPoolTiesGoToLowestIndex: among channels free at the same instant
// the lowest index wins, however the others got there.
func TestPoolTiesGoToLowestIndex(t *testing.T) {
	p := event.NewPool(3)
	p.Reserve(0, 7) // ch0 until 7
	p.Reserve(0, 5) // ch1 until 5
	p.Reserve(0, 2) // ch2 until 2
	p.Reserve(2, 3) // ch2 until 5: now ch1 and ch2 tie at 5
	if s, _, ch := p.Reserve(0, 1); s != 5 || ch != 1 {
		t.Errorf("tied Reserve starts at %v on channel %d, want 5 on channel 1", s, ch)
	}
	if s, _, ch := p.Reserve(0, 1); s != 5 || ch != 2 {
		t.Errorf("next Reserve starts at %v on channel %d, want 5 on channel 2", s, ch)
	}
}

// TestPoolClampsNegativeDuration: on one channel, requests queue behind
// the horizon or start at ready once it has passed, and a negative
// duration books nothing but still orders against the horizon. A pool
// asked for no channels has one.
func TestPoolClampsNegativeDuration(t *testing.T) {
	for _, n := range []int{1, 0} {
		p := event.NewPool(n)
		for _, r := range []struct{ ready, dur, start, end units.Time }{
			{10, 5, 10, 15}, // idle: starts at ready
			{12, 3, 15, 18}, // busy: queues behind the horizon
			{30, 2, 30, 32}, // late: starts at ready again
			{0, -4, 32, 32}, // negative: clamped, still after the horizon
		} {
			if s, e, ch := p.Reserve(r.ready, r.dur); s != r.start || e != r.end || ch != 0 {
				t.Fatalf("NewPool(%d).Reserve(%v, %v) = [%v,%v) ch%d, want [%v,%v) ch0",
					n, r.ready, r.dur, s, e, ch, r.start, r.end)
			}
		}
		if p.Horizon() != 32 || p.Busy() != 10 {
			t.Errorf("NewPool(%d): Horizon %v Busy %v, want 32 and 10", n, p.Horizon(), p.Busy())
		}
	}
}

// TestSequencerOrdersEmission: events recorded out of timestamp order
// (the whole point of overlap) reach the wrapped recorder sorted by
// (time, record order) at the drain, after the kernel's own handlers,
// and delivering an event behind the clock does not move it back.
func TestSequencerOrdersEmission(t *testing.T) {
	k := event.NewKernel()
	var buf obs.Buffer
	var clocks []units.Time
	s := event.NewSequencer(k, recorderFunc(func(e obs.Event) {
		clocks = append(clocks, k.Now())
		buf.Record(e)
	}))
	k.At(40, func(units.Time) {})
	s.Record(obs.Event{Time: 30, Kind: obs.KindDMARead})
	s.Record(obs.Event{Time: 10, Kind: obs.KindPin})
	s.Record(obs.Event{Time: 30, Kind: obs.KindDMAWrite}) // ties with the first by time; recorded later
	s.Record(obs.Event{Time: 20, Kind: obs.KindInterrupt})
	if n := s.Drain(); n != 5 {
		t.Fatalf("Drain dispatched %d, want 5", n)
	}
	if want := []units.Time{40, 40, 40, 40}; !reflect.DeepEqual(clocks, want) || k.Now() != 40 {
		t.Errorf("clock during delivery %v and after %v, want %v and 40", clocks, k.Now(), want)
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
	if n := s.Drain(); n != 0 || k.Now() != 0 {
		t.Fatalf("nil-sink Drain delivered %d events and moved the clock to %v", n, k.Now())
	}
}
