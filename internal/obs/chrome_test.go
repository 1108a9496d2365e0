package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"utlb/internal/units"
)

// writeChromeTraceOracle is the fmt/encoding-json formatter
// WriteChromeTrace replaced, kept as the byte-for-byte reference the
// differential tests below compare against: it formats every field
// through the standard library, one call per field per event. Two
// things differ from the code it was: components are an index table
// now, and a Kind outside the taxonomy renders as an "invalid" instant
// on the none track where the old code indexed out of range.
func writeChromeTraceOracle(w io.Writer, runs []Run) error {
	metaOf := func(k Kind) (meta kindMeta, comp int) {
		meta = kindMeta{name: "invalid", comp: compNone}
		if int(k) < NumKinds {
			meta = kindMetas[k]
		}
		return meta, int(meta.comp)
	}
	tidOf := func(node, pid, comp int) int { return node*4096 + pid*8 + comp }

	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	for i, run := range runs {
		sep()
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
			i, mustJSON(run.Label))

		type track struct{ node, pid, comp int }
		seen := map[track]bool{}
		tracks := []track{}
		for _, ev := range flat(run) {
			_, comp := metaOf(ev.Kind)
			t := track{int(ev.Node), int(ev.PID), comp}
			if !seen[t] {
				seen[t] = true
				tracks = append(tracks, t)
			}
		}
		sort.Slice(tracks, func(a, b int) bool {
			ta, tb := tracks[a], tracks[b]
			return tidOf(ta.node, ta.pid, ta.comp) < tidOf(tb.node, tb.pid, tb.comp)
		})
		for _, t := range tracks {
			name := fmt.Sprintf("n%d/p%d/%s", t.node, t.pid, componentNames[t.comp])
			sep()
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				i, tidOf(t.node, t.pid, t.comp), mustJSON(name))
		}

		for _, ev := range flat(run) {
			sep()
			meta, comp := metaOf(ev.Kind)
			tid := tidOf(int(ev.Node), int(ev.PID), comp)
			cat := componentNames[comp]
			if meta.span {
				fmt.Fprintf(bw, `{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":`,
					i, tid, mustJSON(meta.name), mustJSON(cat))
				bw.WriteString(microsOracle(int64(ev.Time)))
				bw.WriteString(`,"dur":`)
				bw.WriteString(microsOracle(int64(ev.Dur)))
			} else {
				fmt.Fprintf(bw, `{"ph":"i","s":"t","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":`,
					i, tid, mustJSON(meta.name), mustJSON(cat))
				bw.WriteString(microsOracle(int64(ev.Time)))
			}
			bw.WriteString(`,"args":{`)
			argFirst := true
			writeArg := func(name string, v uint64) {
				if name == "" {
					return
				}
				if !argFirst {
					bw.WriteByte(',')
				}
				argFirst = false
				fmt.Fprintf(bw, `%s:%d`, mustJSON(name), v)
			}
			writeArg(meta.arg, uint64(ev.Arg))
			writeArg(meta.arg2, uint64(ev.Arg2))
			if ev.Xfer != 0 {
				writeArg("xfer", uint64(ev.Xfer))
			}
			bw.WriteString("}}")
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// microsOracle renders ns as fmt's "%d.%03d" of its magnitude, signed;
// the magnitude is a uint64, so math.MinInt64 renders too.
func microsOracle(ns int64) string {
	u, sign := uint64(ns), ""
	if ns < 0 {
		u, sign = -u, "-"
	}
	return fmt.Sprintf("%s%d.%03d", sign, u/1000, u%1000)
}

// chromeFuzzRuns derives runs from a seed: every Kind (a few outside
// the taxonomy), zero and non-zero Arg/Arg2/Xfer up to 2^32-1, values
// at every digit-count boundary (10^k-1, 10^k, 10^k+1) their width
// holds, times that are small, negative, beyond 2^53 and
// math.MinInt64, pids past the 512 the tid packs without collision.
func chromeFuzzRuns(seed int64, events int, labels []string) []Run {
	rng := rand.New(rand.NewSource(seed))
	pick32 := func() uint32 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return uint32(rng.Intn(1 << 12))
		case 2:
			return math.MaxUint32
		case 3:
			return uint32(pow10[rng.Intn(10)] + uint64(rng.Intn(3)) - 1) // up to 10^9+1
		default:
			return rng.Uint32()
		}
	}
	pick := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(1 << 12))
		case 2:
			return 1<<53 + uint64(rng.Int63n(1<<40))
		case 3:
			return pow10[rng.Intn(len(pow10))] + uint64(rng.Intn(3)) - 1
		default:
			return rng.Uint64()
		}
	}
	when := func() units.Time {
		t := units.Time(pick() & math.MaxInt64)
		switch rng.Intn(16) {
		case 0:
			return math.MinInt64
		case 1, 2, 3:
			return -t
		}
		return t
	}
	runs := make([]Run, len(labels))
	for i, label := range labels {
		var evs []Event
		for n := rng.Intn(events + 1); n > 0; n-- {
			ev := Event{
				Time: when(), Dur: when(), Arg: pick32(), Arg2: pick32(), Xfer: pick32(),
				PID:  units.ProcID(rng.Intn(4)),
				Node: units.NodeID(rng.Intn(3)),
				Kind: Kind(rng.Intn(NumKinds + 3)),
			}
			if rng.Intn(16) == 0 {
				ev.PID, ev.Node = units.ProcID(rng.Uint32()), units.NodeID(rng.Uint32())
			}
			evs = append(evs, ev)
		}
		runs[i] = NewRun(label, evs)
	}
	return runs
}

// checkChromeAgainstOracle is the differential property: the writer's
// bytes equal the oracle's, are valid JSON, and read back as the
// events that went in.
func checkChromeAgainstOracle(t *testing.T, runs []Run) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteChromeTrace(&got, runs); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTraceOracle(&want, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-120)
		t.Fatalf("writer and oracle differ at byte %d:\n got …%s\nwant …%s",
			i, g[lo:min(len(g), i+120)], w[lo:min(len(w), i+120)])
	}
	if !json.Valid(got.Bytes()) {
		t.Fatal("output is not valid JSON")
	}
	tf, err := ReadChromeTrace(&got)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, run := range runs {
		var label string
		if err := json.Unmarshal([]byte(mustJSON(run.Label)), &label); err != nil {
			t.Fatal(err)
		}
		if tf.ProcessNames[i] != label {
			t.Errorf("process %d named %q, want %q", i, tf.ProcessNames[i], label)
		}
		for _, ev := range flat(run) {
			if next >= len(tf.Events) {
				t.Fatalf("read back %d events, want more", len(tf.Events))
			}
			back := tf.Events[next]
			next++
			name, ph, comp := "invalid", "i", compNone
			if int(ev.Kind) < NumKinds {
				name, comp = ev.Kind.String(), kindMetas[ev.Kind].comp
				if ev.Kind.IsSpan() {
					ph = "X"
				}
			}
			tid := chromeTID(int(ev.Node), int(ev.PID), comp)
			if back.Name != name || back.Ph != ph || back.Cat != componentNames[comp] || back.PID != i || back.TID != tid {
				t.Fatalf("event %d read back as %+v, want %s/%s on pid %d tid %d", next-1, back, name, ph, i, tid)
			}
			if ns := int64(ev.Time); ns > -1<<50 && ns < 1<<50 && math.Round(back.TS*1000) != float64(ns) {
				t.Errorf("event %d ts %v µs, want %d ns", next-1, back.TS, ns)
			}
			if ev.Xfer != 0 && back.Args["xfer"] != int64(ev.Xfer) {
				t.Errorf("event %d xfer %d, want %d", next-1, back.Args["xfer"], ev.Xfer)
			}
		}
	}
	if next != len(tf.Events) {
		t.Errorf("read back %d events, want %d", len(tf.Events), next)
	}
}

// oddLabels need JSON escaping, one way each.
var oddLabels = []string{
	"table4/fft/1K/utlb/n0", "", `quote"back\slash`, "tab\tnewline\n", "<html>&amp;",
	"é ü \u2028 \U0001F600", "bad\xffutf8", "\x00\x1f",
}

func TestChromeTraceMatchesOracle(t *testing.T) {
	checkChromeAgainstOracle(t, nil)
	checkChromeAgainstOracle(t, []Run{{Label: "empty"}})
	checkChromeAgainstOracle(t, sortedFixture())
	for seed := int64(0); seed < 20; seed++ {
		checkChromeAgainstOracle(t, chromeFuzzRuns(seed, 400, oddLabels))
	}
}

// pow10[k] is 10^k.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// TestDecimalWriterEdges holds putDec to strconv and putMicros to fmt
// at every digit-count boundary, at the edges of the digit table's
// word and of one and two stores (0, 9, 10, 9999, 10^4, 10^8-1, 10^8),
// at both ends of the range and at negative times, each written after
// a byte it must keep and before the seven it may store past its end.
func TestDecimalWriterEdges(t *testing.T) {
	vals := []uint64{0, 9, 10, 99, 100, 999, 1000, 9999, 1e4, 1e8 - 1, 1e8, math.MaxUint32, math.MaxUint64}
	for _, p := range pow10[1:] {
		vals = append(vals, p-1, p, p+1)
	}
	var times []int64
	for _, u := range vals {
		want := strconv.FormatUint(u, 10)
		b := make([]byte, 1+len(want)+7+1)
		b[0], b[len(b)-1] = '!', '!'
		if n := putDec(b, 1, u); n != 1+len(want) || string(b[1:n]) != want || b[0] != '!' || b[len(b)-1] != '!' {
			t.Errorf("putDec(%d) wrote %q to index %d, want %q to %d, and at most 7 bytes past it", u, b, n, want, 1+len(want))
		}
		times = append(times, int64(u), -int64(u))
	}
	for _, ns := range append(times, 1, 5, 999, 1000, 1001, -1, -5, -999, -1000, -1001, math.MinInt64, math.MaxInt64) {
		want := microsOracle(ns)
		b := make([]byte, 1+len(want)+3)
		if n := putMicros(b, 1, ns); string(b[1:n]) != want || b[0] != 0 {
			t.Errorf("putMicros(%d) = %q, want %q", ns, b[1:n], want)
		}
	}
}

// TestChromeLineBounds: every line head fits the fixed head copy and
// every key one 16-byte block, and the longest line any event makes,
// with the largest run index and tid a head can carry, fits the
// lineMax bytes a line is written into, with its stores past the end.
func TestChromeLineBounds(t *testing.T) {
	checkKey := func(k int, key chromeKey, want string) {
		if len(want) > 16 || string(key.b[:key.n]) != want {
			t.Errorf("kind %d: key block %q (%d bytes), want %q in 16", k, key.b, key.n, want)
		}
	}
	checkKey(-1, durKey, `,"dur":`)
	checkKey(-1, argsKey, `,"args":{`)
	sc := chromePool.New()
	for k := range chromeKinds {
		ck, meta := &chromeKinds[k], kindMeta{name: "invalid"}
		if k < NumKinds {
			meta = kindMetas[k]
		}
		comma := ""
		for _, c := range []struct {
			name string
			key  chromeKey
		}{{meta.arg, ck.arg}, {meta.arg2, ck.arg2}, {"xfer", ck.xfer}} {
			want := ""
			if c.name != "" {
				want, comma = comma+mustJSON(c.name)+":", ","
			}
			checkKey(k, c.key, want)
		}
		p := &chromeProc{node: math.MaxUint32, pid: math.MaxUint32}
		sc.heads = sc.heads[:0]
		sc.head(math.MaxInt, p, k)
		head := sc.heads[p.head[k]:]
		if len(head) != int(sc.heads[p.head[k]-1]) || len(head) > headWidth {
			t.Errorf("kind %d: head %q is %d bytes, over the %d-byte copy", k, head, len(head), headWidth)
		}
		for _, ns := range []units.Time{math.MinInt64, math.MaxInt64} {
			ev := Event{Time: ns, Dur: ns, Arg: math.MaxUint32, Arg2: math.MaxUint32, Xfer: math.MaxUint32}
			line := make([]byte, lineMax)
			n := putLine(line, copy(line, head), &ev, ck) // a store past lineMax panics
			if !json.Valid(line[2:n]) {
				t.Errorf("kind %d: line %q is not valid JSON", k, line[:n])
			}
		}
	}
}

func FuzzChromeTrace(f *testing.F) {
	f.Add(int64(1998), uint16(64), "table6/fft/utlb")
	f.Add(int64(-7), uint16(0), `odd "label"`+"\n")
	f.Add(int64(1<<40), uint16(1000), "bad\xffutf8")
	f.Fuzz(func(t *testing.T, seed int64, events uint16, label string) {
		checkChromeAgainstOracle(t, chromeFuzzRuns(seed, int(events)%2048, []string{label, "second/" + label}))
	})
}

// TestChromeScratchSize: refilling the exporter's pool allocates one
// object of at most 64 KB, however often a collection empties it.
func TestChromeScratchSize(t *testing.T) {
	if size := unsafe.Sizeof(chromeScratch{}); size > 64<<10 {
		t.Errorf("chromeScratch is %d bytes, want at most 64 KB", size)
	}
}

// failingWriter takes ok writes, then fails every later one.
type failingWriter struct{ ok, calls int }

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.calls++; w.calls > w.ok {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestChromeTraceStopsAtFirstWriteError: the first failed write is the
// writer's last, and its error is what WriteChromeTrace returns.
func TestChromeTraceStopsAtFirstWriteError(t *testing.T) {
	evs := make([]Event, 10_000) // ~1 MB of output, many writes' worth
	for i := range evs {
		evs[i] = Event{Time: units.Time(i), Dur: 7, Arg: 3, Kind: KindPin}
	}
	for _, ok := range []int{0, 1, 3} {
		w := &failingWriter{ok: ok}
		if err := WriteChromeTrace(w, []Run{NewRun("r", evs)}); !errors.Is(err, errWriteFailed) || w.calls != ok+1 {
			t.Errorf("writer failing after %d writes: err %v after %d calls, want %v after %d", ok, err, w.calls, errWriteFailed, ok+1)
		}
	}
}

// TestChromeTraceInvalidKind: a Kind outside the taxonomy is an
// instant named "invalid" on the none track, not an index panic.
func TestChromeTraceInvalidKind(t *testing.T) {
	for _, k := range []Kind{Kind(NumKinds), 200, 255} {
		var buf bytes.Buffer
		runs := []Run{NewRun("r", []Event{{Time: 1500, Dur: 9, Arg: 3, Xfer: 7, PID: 2, Node: 1, Kind: k}})}
		if err := WriteChromeTrace(&buf, runs); err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		want := fmt.Sprintf(`{"ph":"i","s":"t","pid":0,"tid":%d,"name":"invalid","cat":"none","ts":1.500,"args":{"xfer":7}}`,
			chromeTID(1, 2, compNone))
		if !strings.Contains(buf.String(), want) || !strings.Contains(buf.String(), `"n1/p2/none"`) {
			t.Errorf("kind %d rendered as\n%s\nwant a line %s", k, buf.String(), want)
		}
		if !json.Valid(buf.Bytes()) {
			t.Errorf("kind %d: invalid JSON", k)
		}
	}
}

// TestAggregateInvalidKind: Aggregate skips kinds it has no counter
// for and still counts their neighbours.
func TestAggregateInvalidKind(t *testing.T) {
	for _, k := range []Kind{Kind(NumKinds), 200, 255} {
		m := Aggregate([]Run{NewRun("r", []Event{
			{Kind: KindPin, Dur: 500}, {Kind: k, Dur: 500}, {Kind: KindCacheHit},
		})})
		var total int64
		for _, n := range m.Count {
			total += n
		}
		if total != 2 || m.Count[KindPin] != 1 || m.Count[KindCacheHit] != 1 || m.HistN[KindPin] != 1 {
			t.Errorf("kind %d: counts %v", k, m.Count)
		}
	}
}

// mustJSON returns s as a JSON string literal by json.Marshal: the
// oracle's quoter, independent of the exporter's AppendJSON.
func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string cannot fail.
		panic(err)
	}
	return string(b)
}

// TestAppendJSONMatchesMarshal: the label quoter writes exactly what
// json.Marshal does, for every single byte, the characters it escapes
// for HTML and JavaScript, invalid and truncated UTF-8, and random
// strings.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSON([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendJSON(%q) = %s, want %s", s, got[1:], want)
			return false
		}
		return true
	}
	for b := 0; b < 256; b++ {
		check(string([]byte{byte(b)}))
		check("a" + string([]byte{byte(b)}) + "z")
	}
	for _, s := range []string{"", "table6/fft/utlb", `"\<>&`, " x ", "é€𝄞", "\xe2\x80", "\xf0\x9d\x84", "a\xffb\xfe", "\u007f\u0080�"} {
		check(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(b []byte) bool { return check(string(b)) }, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
