package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"utlb/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRuns is a small deterministic event set covering every export
// shape: spans and instants, multiple components, multiple nodes and
// pids, two runs. The golden files are rendered from it.
func fixtureRuns() []Run {
	a := NewBuffer("table4/fft/1K/utlb/n0")
	a.Record(Event{Time: 1500, Dur: 700, Arg: 2, PID: 1, Kind: KindCheckMiss})
	a.Record(Event{Time: 2200, Arg: 42, Arg2: 1, PID: 1, Kind: KindCacheMiss})
	a.Record(Event{Time: 2200, Arg: 42, PID: 1, Kind: KindMissCompulsory})
	a.Record(Event{Time: 2300, Dur: 480, Arg: 64, Kind: KindDMARead})
	a.Record(Event{Time: 2780, Arg: 42, PID: 1, Kind: KindCacheFill})
	a.Record(Event{Time: 3000, Dur: 25000, Arg: 1, PID: 1, Kind: KindPin})
	a.Record(Event{Time: 40000, Dur: 900, Arg: 8, PID: 1, Kind: KindCheckHit})
	a.Record(Event{Time: 41000, Arg: 42, Arg2: 1, PID: 1, Kind: KindCacheHit})

	b := NewBuffer("table4/fft/1K/intr/n0")
	b.Record(Event{Time: 700, Dur: 11000, Kind: KindInterrupt, Node: 1})
	b.Record(Event{Time: 1000, Dur: 8000, Arg: 1, PID: 3, Node: 1, Kind: KindKernelPin})
	b.Record(Event{Time: 15000, Arg: 4096, PID: 3, Node: 1, Kind: KindSend})
	b.Record(Event{Time: 16000, Arg: 4096, PID: 3, Node: 1, Kind: KindRecv})
	// A very long span lands beyond the largest finite bucket (+Inf only).
	b.Record(Event{Time: 20000, Dur: 1 << 28, Arg: 512, PID: 3, Node: 1, Kind: KindUnpin})

	return []Run{b.Run(), a.Run()} // caller-sorted order is the contract; use label order
}

func sortedFixture() []Run {
	col := NewCollector()
	for _, r := range fixtureRuns() {
		buf := col.Buffer(r.Label)
		for _, ev := range flat(r) {
			buf.Record(ev)
		}
	}
	return col.Runs()
}

func TestKindMetadata(t *testing.T) {
	for k := Kind(1); int(k) < NumKinds; k++ {
		if k.String() == "" || k.String() == "none" {
			t.Errorf("kind %d has no name", k)
		}
		if c := kindMetas[k].comp; c >= numComponents || componentNames[c] != k.Component() {
			t.Errorf("kind %s: component %q not registered", k, k.Component())
		}
	}
	if Kind(200).String() != "invalid" || Kind(200).Component() != "invalid" {
		t.Error("out-of-range kind not flagged invalid")
	}
	if Kind(200).IsSpan() {
		t.Error("out-of-range kind reported as span")
	}
	// Names must be unique: exporters key on them.
	seen := map[string]bool{}
	for k := Kind(1); int(k) < NumKinds; k++ {
		if seen[k.String()] {
			t.Errorf("duplicate kind name %q", k)
		}
		seen[k.String()] = true
	}
	// The Chrome tid packs the component into 3 bits.
	if numComponents > 8 {
		t.Errorf("%d components do not fit the tid's 3 bits", numComponents)
	}
}

func TestNopAndNilSemantics(t *testing.T) {
	var r Recorder = Nop{}
	r.Record(Event{Kind: KindCacheHit}) // must not panic
	b := NewBuffer("x")
	if b.Len() != 0 || b.Label() != "x" {
		t.Fatal("fresh buffer not empty")
	}
	b.Record(Event{Kind: KindCacheHit, Time: 7})
	if b.Len() != 1 || b.Events()[0].Time != 7 {
		t.Fatal("record lost")
	}
}

// TestCollectorDeterministicMerge registers buffers from many
// goroutines in scrambled orders and checks Runs() is always the same:
// label-sorted, empties dropped.
func TestCollectorDeterministicMerge(t *testing.T) {
	labels := []string{"t4/fft/n0", "t4/radix/n0", "t6/lu/n1", "t6/lu/n0", "a/first"}
	var want []string
	for _, trial := range []int64{1, 2, 3} {
		col := NewCollector()
		col.Buffer("empty/should/vanish") // never recorded into
		order := rand.New(rand.NewSource(trial)).Perm(len(labels))
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(label string, n int) {
				defer wg.Done()
				buf := col.Buffer(label)
				for j := 0; j < n; j++ {
					buf.Record(Event{Kind: KindCacheHit, Time: units.Time(j)})
				}
			}(labels[i], i+1)
		}
		wg.Wait()
		runs := col.Runs()
		got := make([]string, len(runs))
		for i, r := range runs {
			got[i] = r.Label
		}
		if want == nil {
			want = got
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: run order %v, want %v", trial, got, want)
		}
		if got[0] != "a/first" || len(got) != len(labels) {
			t.Fatalf("merge order wrong: %v", got)
		}
		if col.Events() != (1+2+3+4+5)*1 {
			t.Fatalf("Events() = %d", col.Events())
		}
	}
}

// TestCollectorBufferIdentity checks get-or-create returns the same
// buffer for the same label.
func TestCollectorBufferIdentity(t *testing.T) {
	col := NewCollector()
	if col.Buffer("a") != col.Buffer("a") {
		t.Fatal("same label returned distinct buffers")
	}
	if col.Buffer("a") == col.Buffer("b") {
		t.Fatal("distinct labels shared a buffer")
	}
}

func TestAggregate(t *testing.T) {
	m := Aggregate(sortedFixture())
	if m.Count[KindCacheHit] != 1 || m.Count[KindCacheMiss] != 1 || m.Count[KindSend] != 1 {
		t.Fatalf("counts wrong: hit=%d miss=%d send=%d",
			m.Count[KindCacheHit], m.Count[KindCacheMiss], m.Count[KindSend])
	}
	// Instants contribute no histogram samples.
	if m.HistN[KindCacheHit] != 0 {
		t.Error("instant kind has histogram samples")
	}
	// The 2^28 ns unpin exceeds every finite bucket: no finite bucket
	// counts it, +Inf (HistN) does.
	if m.HistN[KindUnpin] != 1 || m.Hist[KindUnpin] != [NumBuckets]int64{} {
		t.Errorf("overflow span misbucketed: n=%d hist=%v",
			m.HistN[KindUnpin], m.Hist[KindUnpin])
	}
	if m.SumDur[KindUnpin] != 1<<28 {
		t.Errorf("sum = %d", m.SumDur[KindUnpin])
	}
	// 700 ns check_miss lands in exactly one bucket: the first with
	// boundary >= 700, i.e. 2^10 (index 3).
	h := m.Hist[KindCheckMiss]
	if h[3] != 1 {
		t.Errorf("check_miss buckets: %v", h)
	}
	for i, n := range h {
		if i != 3 && n != 0 {
			t.Errorf("check_miss bucket %d = %d, want 0", i, n)
		}
	}
	// Aggregation commutes with run order.
	rev := sortedFixture()
	rev[0], rev[1] = rev[1], rev[0]
	if *Aggregate(rev) != *m {
		t.Error("aggregate depends on run order")
	}
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sortedFixture()); err != nil {
		t.Fatal(err)
	}
	golden(t, "chrome.golden.json", buf.Bytes())
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Aggregate(sortedFixture())); err != nil {
		t.Fatal(err)
	}
	golden(t, "metrics.golden.txt", buf.Bytes())
}

// TestChromeRoundTrip writes the fixture and reads it back, checking
// the decoded form preserves labels, track names, event counts and
// microsecond timestamps.
func TestChromeRoundTrip(t *testing.T) {
	runs := sortedFixture()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.ProcessNames) != len(runs) {
		t.Fatalf("process names = %d, want %d", len(tf.ProcessNames), len(runs))
	}
	for i, run := range runs {
		if tf.ProcessNames[i] != run.Label {
			t.Errorf("pid %d name %q, want %q", i, tf.ProcessNames[i], run.Label)
		}
	}
	total := 0
	for _, run := range runs {
		total += run.Len()
	}
	if len(tf.Events) != total {
		t.Fatalf("events = %d, want %d", len(tf.Events), total)
	}
	// Spot-check one span: intr run sorts first (pid 0); its kernel pin
	// starts at 1 µs and runs 8 µs.
	found := false
	for _, ev := range tf.Events {
		if ev.PID == 0 && ev.Name == "host_pin_intr" {
			found = true
			if ev.Ph != "X" || ev.TS != 1.0 || ev.Dur != 8.0 {
				t.Errorf("host_pin_intr ph=%q ts=%v dur=%v", ev.Ph, ev.TS, ev.Dur)
			}
			if ev.Args["pages"] != 1 {
				t.Errorf("args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Error("host_pin_intr span missing")
	}
	// Thread names identify node/pid/component.
	tid := chromeTID(1, 3, compHost)
	if name := tf.ThreadNames[[2]int{0, tid}]; name != "n1/p3/host" {
		t.Errorf("thread name = %q", name)
	}
}

// TestWriteMicros pins the fixed-point microsecond rendering.
func TestWriteMicros(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"},
		{1500, "1.500"}, {123456789, "123456.789"}, {-2500, "-2.500"},
		{1<<53 + 1, "9007199254740.993"},
		{math.MaxInt64, "9223372036854775.807"}, {math.MinInt64, "-9223372036854775.808"},
	}
	for _, c := range cases {
		b := make([]byte, 32)
		if got := string(b[:putMicros(b, 0, c.ns)]); got != c.want {
			t.Errorf("putMicros(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// flat gathers a run's events into one slice, the form the oracles and
// most assertions read.
func flat(r Run) []Event {
	var evs []Event
	for _, chunk := range r.Chunks() {
		evs = append(evs, chunk...)
	}
	return evs
}

// TestBufferGathersChunks: events recorded across several chunks come
// back as one slice in recording order, from Events and through Run; a
// slice or a Run handed out earlier stays as it was (events recorded
// later are not added: ask again), and recording carries on after
// either.
func TestBufferGathersChunks(t *testing.T) {
	b := NewBuffer("chunks")
	if b.Events() != nil || b.Run().Len() != 0 || b.Run().Chunks() != nil {
		t.Fatal("empty buffer has events")
	}
	record := func(from, to int) {
		for i := from; i < to; i++ {
			b.Record(Event{Time: units.Time(i), Kind: KindCacheHit})
		}
	}
	check := func(evs []Event, n int) {
		t.Helper()
		if len(evs) != n || b.Len() < n {
			t.Fatalf("got %d events (Len %d), want %d", len(evs), b.Len(), n)
		}
		for i, ev := range evs {
			if ev.Time != units.Time(i) {
				t.Fatalf("event %d has time %d", i, ev.Time)
			}
		}
	}
	checkRun := func(r Run, n int) {
		t.Helper()
		if r.Len() != n {
			t.Fatalf("run holds %d events, want %d", r.Len(), n)
		}
		check(flat(r), n)
		for _, i := range []int{0, n / 2, n - 1} {
			if r.At(i).Time != units.Time(i) {
				t.Fatalf("At(%d) has time %d", i, r.At(i).Time)
			}
		}
	}
	record(0, 10)
	few, fewRun := b.Events(), b.Run()
	check(few, 10)
	record(10, 2*bufferChunkEvents+7)
	many, manyRun := b.Events(), b.Run()
	check(many, 2*bufferChunkEvents+7)
	record(2*bufferChunkEvents+7, 3*bufferChunkEvents)
	check(b.Events(), 3*bufferChunkEvents)
	checkRun(b.Run(), 3*bufferChunkEvents)
	check(few, 10)
	checkRun(fewRun, 10)
	check(many, 2*bufferChunkEvents+7)
	checkRun(manyRun, 2*bufferChunkEvents+7)
	if len(b.Run().Chunks()) != 3 {
		t.Fatalf("Run copied its events: %d chunks, want the buffer's 3", len(b.Run().Chunks()))
	}
}

// TestEventLayout: an Event is 40 bytes — two 8-byte times, then every
// 4-byte field, then Kind — so a chunk of bufferChunkEvents is 80 KB.
// A field that outgrows its place, or an order that adds padding, is
// a third more memory for every recorded run.
func TestEventLayout(t *testing.T) {
	var ev Event
	if size := unsafe.Sizeof(ev); size != 40 {
		t.Errorf("Event is %d bytes, want 40", size)
	}
	if off := unsafe.Offsetof(ev.Kind); off != 36 {
		t.Errorf("Event.Kind at offset %d, want 36 (every wider field ahead of it)", off)
	}
	if chunk := bufferChunkEvents * unsafe.Sizeof(ev); chunk != 80<<10 {
		t.Errorf("a chunk is %d bytes, want 80 KB", chunk)
	}
}

// TestTapArgumentRange: an Event holds its arguments and transfer id in
// 32 bits. 2^32-1 records as it is; 2^32, in either argument or through
// InstantOn, panics with a message that names the kind, rather than
// record a truncated value.
func TestTapArgumentRange(t *testing.T) {
	buf := NewBuffer("range")
	tap := NewTap(buf, 0)
	tap.Span(KindDMARead, 0, 1, 0, math.MaxUint32, math.MaxUint32)
	if ev := buf.Events()[0]; ev.Arg != math.MaxUint32 || ev.Arg2 != math.MaxUint32 {
		t.Fatalf("2^32-1 recorded as %d/%d", ev.Arg, ev.Arg2)
	}
	for _, c := range []struct {
		name string
		kind Kind
		op   func(Kind)
	}{
		{"Span arg", KindDMARead, func(k Kind) { tap.Span(k, 0, 1, 0, 1<<32, 0) }},
		{"Instant arg2", KindReclaim, func(k Kind) { tap.Instant(k, 0, 0, 0, 1<<32) }},
		{"InstantOn", KindFaultDrop, func(k Kind) { tap.InstantOn(1, k, 0, 1<<32) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of range") || !strings.Contains(msg, c.kind.String()) {
					t.Errorf("%s of 2^32: panic %q, want one naming %s", c.name, msg, c.kind)
				}
			}()
			c.op(c.kind)
		}()
	}
	if buf.Len() != 1 {
		t.Errorf("%d events recorded, want only the in-range one", buf.Len())
	}
}
