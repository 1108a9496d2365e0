package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"utlb/internal/xlate"
)

var update = flag.Bool("update", false, "rewrite golden files")

// metricsBody drives a fixed script through a live server on a manual
// clock — batch and single-key inserts and lookups, hits and misses,
// both invalidation forms, timed records at the histogram's edges and
// one cached t6 run — and returns the joined /metrics body.
func metricsBody(t *testing.T) string {
	t.Helper()
	xl, clk := newLiveXlate(t)
	ts := httptest.NewServer(NewWith(xl).Handler())
	defer ts.Close()

	var keys, misses []string
	for i := 0; i < 64; i++ {
		keys = append(keys, "7:"+strconv.Itoa(i))
	}
	for i := 0; i < 16; i++ {
		misses = append(misses, "99:"+strconv.Itoa(i))
	}
	for _, path := range []string{
		"/api/xlate/insert?keys=" + strings.Join(keys, ","),
		"/api/xlate/lookup?keys=" + strings.Join(keys, ","),
		"/api/xlate/lookup?keys=" + strings.Join(misses, ","),
		"/api/xlate/lookup?pid=7&vpn=5",
	} {
		if code, body := get(t, ts, path); code != http.StatusOK {
			t.Fatalf("%.40s: code %d body %.200q", path, code, body)
		}
	}
	// The handlers only batch; the single-key operations are driven on
	// the service itself.
	xl.Insert(xlate.Key{PID: 3, VPN: 1}, 11)
	xl.Insert(xlate.Key{PID: 3, VPN: 2}, 12)
	xl.Lookup(xlate.Key{PID: 3, VPN: 1})
	xl.Lookup(xlate.Key{PID: 3, VPN: 9})
	get(t, ts, "/api/xlate/invalidate?pid=7&vpn=3")
	get(t, ts, "/api/xlate/invalidate?pid=3")

	// Durations at the le edges (64, 128, 129 ns), mid-range, and one
	// past the largest finite boundary and over the SLO target.
	sink := xl.Telemetry()
	for i, d := range []int64{64, 128, 129, 300_000, 1 << 27} {
		sink.RecordLookups(i%4, 1, 1, d, clk.Now())
	}
	sink.RecordLookups(2, 3, 1, 257, clk.Now())

	clk.Set(1_500_000_000) // close window 0
	if code, body := get(t, ts, "/api/analyze?exp=t6&scale=0.03&apps=fft&topk=2"); code != http.StatusOK {
		t.Fatalf("analyze: code %d body %.200q", code, body)
	}
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	return body
}

// TestMetricsGolden pins the joined scrape surface byte for byte: the
// event metrics of the cached run, the xlate service counters and the
// live sink block. The Go runtime block that follows reads the real
// process, so it is cut off and its line shapes checked by pattern.
func TestMetricsGolden(t *testing.T) {
	body := metricsBody(t)
	cut := strings.Index(body, "# HELP utlb_go_")
	if cut < 0 {
		t.Fatal("/metrics has no runtime block")
	}
	path := filepath.Join("testdata", "metrics.golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(body[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run TestMetricsGolden -update` to create)", err)
	}
	got, wantLines := strings.Split(body[:cut], "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("/metrics has %d lines, %s has %d", len(got), path, len(wantLines))
	}
	for i := 0; i < min(len(got), len(wantLines)); i++ {
		if got[i] != wantLines[i] {
			t.Errorf("line %d: got  %s\n         want %s", i+1, got[i], wantLines[i])
		}
	}

	runtimeBlock := regexp.MustCompile(`^(# HELP (utlb_go_\w+) [^\n]+\n# TYPE (utlb_go_\w+) gauge\n(utlb_go_\w+) \d+\n){7}$`)
	if !runtimeBlock.MatchString(body[cut:]) {
		t.Errorf("runtime block is not seven HELP/TYPE/sample triples:\n%s", body[cut:])
	}
}

// TestMetricsExposition checks the same body against the rules of the
// text exposition format that a golden cannot state: every family has
// exactly one HELP and one TYPE ahead of its first sample, no family
// appears twice, and each histogram series is cumulative with its
// +Inf bucket equal to its _count.
func TestMetricsExposition(t *testing.T) {
	type family struct {
		help, typ, samples int
	}
	families := map[string]*family{}
	var order []string
	fam := func(name string) *family {
		if families[name] == nil {
			families[name] = &family{}
			order = append(order, name)
		}
		return families[name]
	}
	// Per histogram series (family + labels other than le): the last
	// cumulative bucket value, the +Inf value and the _count value.
	type series struct {
		last, inf, count int64
		sawInf, sawCount bool
	}
	hist := map[string]*series{}
	ser := func(key string) *series {
		if hist[key] == nil {
			hist[key] = &series{}
		}
		return hist[key]
	}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\S+)$`)
	le := regexp.MustCompile(`,?le="([^"]*)"`)

	for n, line := range strings.Split(strings.TrimSuffix(metricsBody(t), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			f := fam(name)
			if f.help++; f.help > 1 || f.samples > 0 {
				t.Errorf("line %d: HELP for %s repeated or after its samples", n+1, name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			f := fam(name)
			if f.typ++; f.typ > 1 || f.samples > 0 {
				t.Errorf("line %d: TYPE for %s repeated or after its samples", n+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown metric type %q", n+1, typ)
			}
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: not a sample line: %q", n+1, line)
			continue
		}
		name, labels := m[1], m[2]
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("line %d: value %q: %v", n+1, m[3], err)
		}
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, s); ok && families[b] != nil {
				base, suffix = b, s
			}
		}
		f := families[base]
		if f == nil || f.help != 1 || f.typ != 1 {
			t.Errorf("line %d: sample of %s before its HELP and TYPE", n+1, name)
			continue
		}
		if len(order) == 0 || order[len(order)-1] != base {
			t.Errorf("line %d: sample of %s inside family %s", n+1, name, order[len(order)-1])
		}
		f.samples++
		switch suffix {
		case "_bucket":
			bound := le.FindStringSubmatch(labels)
			if bound == nil {
				t.Errorf("line %d: bucket without le", n+1)
				continue
			}
			s := ser(base + "{" + le.ReplaceAllString(labels, "") + "}")
			if int64(v) < s.last {
				t.Errorf("line %d: bucket %s = %d below the previous bucket %d", n+1, bound[1], int64(v), s.last)
			}
			s.last = int64(v)
			if bound[1] == "+Inf" {
				s.inf, s.sawInf = int64(v), true
			}
		case "_count":
			s := ser(base + "{" + labels + "}")
			s.count, s.sawCount = int64(v), true
		}
	}
	for key, s := range hist {
		if !s.sawInf || !s.sawCount || s.inf != s.count {
			t.Errorf("%s: +Inf %d (seen %v) != _count %d (seen %v)", key, s.inf, s.sawInf, s.count, s.sawCount)
		}
	}
	if len(hist) < 2 {
		t.Errorf("checked %d histogram series, want the event kinds' and the live one", len(hist))
	}
}
