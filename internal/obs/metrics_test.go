package obs

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"utlb/internal/units"
)

// TestBucketIndex pins the bits.Len64 bucket computation against the
// definition: index of the smallest boundary 2^(BucketLow+i) >= d.
func TestBucketIndex(t *testing.T) {
	naive := func(d uint64) int {
		for i := 0; i < NumBuckets; i++ {
			if d <= 1<<(BucketLow+i) {
				return i
			}
		}
		return NumBuckets
	}
	cases := []uint64{0, 1, 127, 128, 129, 255, 256, 257, 1000,
		1 << 20, 1<<20 + 1, 1<<26 - 1, 1 << 26, 1<<26 + 1, 1 << 28, 1 << 40}
	clamp := func(i int) int { // overflow contract: anything >= NumBuckets is +Inf-only
		if i > NumBuckets {
			return NumBuckets
		}
		return i
	}
	for _, d := range cases {
		if got, want := clamp(BucketIndex(d)), naive(d); got != want {
			t.Errorf("BucketIndex(%d) = %d, want %d", d, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		d := uint64(rng.Int63()) >> uint(rng.Intn(40))
		if got, want := clamp(BucketIndex(d)), naive(d); got != want {
			t.Fatalf("BucketIndex(%d) = %d, want %d", d, got, want)
		}
	}
}

// randomRuns builds a deterministic pseudo-random event set big enough
// to exercise every bucket and kind.
func randomRuns(events int) []Run {
	rng := rand.New(rand.NewSource(1998))
	buf := NewBuffer("bench/random")
	for i := 0; i < events; i++ {
		k := Kind(1 + rng.Intn(NumKinds-1))
		ev := Event{
			Time: units.Time(i),
			Arg:  uint32(rng.Intn(4096)),
			PID:  units.ProcID(rng.Intn(8)),
			Kind: k,
		}
		if k.IsSpan() {
			// Spread durations across the full bucket range and beyond.
			ev.Dur = units.Time(rng.Int63n(1 << uint(6+rng.Intn(24))))
		}
		buf.Record(ev)
	}
	return []Run{buf.Run()}
}

// aggregateReference is the pre-optimisation Aggregate, kept as the
// oracle for TestAggregateMatchesReference: it compares every span
// duration against every bucket boundary and accumulates cumulative
// counts, then differences them into the per-bucket representation
// Metrics carries.
func aggregateReference(runs []Run) *Metrics {
	m := &Metrics{}
	for _, run := range runs {
		for _, ev := range flat(run) {
			if int(ev.Kind) >= NumKinds {
				continue
			}
			m.Count[ev.Kind]++
			if !ev.Kind.IsSpan() {
				continue
			}
			m.SumDur[ev.Kind] += int64(ev.Dur)
			m.HistN[ev.Kind]++
			for i := 0; i < NumBuckets; i++ {
				if int64(ev.Dur) <= 1<<(BucketLow+i) {
					m.Hist[ev.Kind][i]++
				}
			}
		}
	}
	for k := range m.Hist {
		for i := NumBuckets - 1; i > 0; i-- {
			m.Hist[k][i] -= m.Hist[k][i-1]
		}
	}
	return m
}

// TestAggregateMatchesReference proves the single-bucket Aggregate and
// the full-scan reference produce identical Metrics — and therefore
// identical Prometheus output.
func TestAggregateMatchesReference(t *testing.T) {
	outside := []Run{NewRun("r", []Event{{Kind: KindPin, Dur: 500}, {Kind: Kind(NumKinds), Dur: 500}})}
	for _, runs := range [][]Run{sortedFixture(), randomRuns(20000), outside} {
		got, want := Aggregate(runs), aggregateReference(runs)
		if *got != *want {
			t.Fatalf("Aggregate diverged from reference.\ngot:  %+v\nwant: %+v", got, want)
		}
		var a, b bytes.Buffer
		if err := WritePrometheus(&a, got); err != nil {
			t.Fatal(err)
		}
		if err := WritePrometheus(&b, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("Prometheus output diverged between Aggregate and reference")
		}
	}
}

// TestChromeXferArg checks the transfer id is emitted as an "xfer" arg
// exactly when non-zero.
func TestChromeXferArg(t *testing.T) {
	buf := NewBuffer("x")
	buf.Record(Event{Time: 100, Dur: 50, Arg: 1, PID: 1, Kind: KindPin, Xfer: 7})
	buf.Record(Event{Time: 200, Dur: 50, Arg: 1, PID: 1, Kind: KindPin})
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, []Run{buf.Run()}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if n := strings.Count(s, `"xfer":7`); n != 1 {
		t.Fatalf(`"xfer":7 appears %d times, want 1 in %s`, n, s)
	}
	if n := strings.Count(s, `"xfer"`); n != 1 {
		t.Fatalf(`zero-id event emitted an xfer arg: %s`, s)
	}
	tf, err := ReadChromeTrace(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if tf.Events[0].Args["xfer"] != 7 {
		t.Fatalf("decoded args = %v", tf.Events[0].Args)
	}
}

// TestXferCursor: the transfer cursor as the layers reach it, through
// a Tap — nil-safe, ids dense from 1 and never reused, shared by the
// handles of one simulation.
func TestXferCursor(t *testing.T) {
	var off *Tap
	if off.Begin() != 0 || off.ForNode(3) != nil || NewTap(nil, 0) != nil {
		t.Fatal("a nil tap must stay nil and at transfer 0")
	}
	off.Clear() // must not panic
	off.Span(KindPin, 1, 2, 3, 4, 5)
	off.Instant(KindPinRetry, 1, 2, 3, 4)
	off.InstantOn(1, KindFaultDrop, 2, 3)

	buf := NewBuffer("tap")
	x := NewTap(buf, 2)
	if x.xfer.cur != 0 {
		t.Fatal("fresh cursor not idle")
	}
	if id := x.Begin(); id != 1 || x.xfer.cur != 1 {
		t.Fatalf("first Begin = %d (cur %d)", id, x.xfer.cur)
	}
	peer := x.ForNode(5)
	if id := peer.Begin(); id != 2 || x.xfer.cur != 2 {
		t.Fatalf("second Begin, on a sibling handle = %d (cur %d)", id, x.xfer.cur)
	}
	x.Span(KindPin, 10, 4, 7, 8, 9)
	peer.Instant(KindSend, 11, 7, 64, 0)
	x.InstantOn(9, KindFaultDrop, 12, 80)
	x.Clear()
	if x.xfer.cur != 0 {
		t.Fatal("Clear did not reset")
	}
	if id := x.Begin(); id != 3 {
		t.Fatalf("Begin after Clear = %d, want 3 (ids never reused)", id)
	}
	want := []Event{
		{Time: 10, Dur: 4, Arg: 8, Arg2: 9, Xfer: 2, PID: 7, Node: 2, Kind: KindPin},
		{Time: 11, Arg: 64, Xfer: 2, PID: 7, Node: 5, Kind: KindSend},
		{Time: 12, Arg: 80, Node: 9, Kind: KindFaultDrop},
	}
	if got := buf.Events(); !slices.Equal(got, want) {
		t.Fatalf("recorded %+v\nwant %+v", got, want)
	}
}
