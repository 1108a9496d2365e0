package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"utlb/internal/units"
	"utlb/internal/xlate"
)

func quickOptions(t *testing.T) options {
	t.Helper()
	return options{seed: 1998, sz: quickSizes, spans: filepath.Join(t.TempDir(), "trace.json")}
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestQuickEmitsEveryDeclaredName is the smoke run: one repetition at
// tiny op counts, traced pass included. Every name BENCHMARK.json
// declares must come out finite, and no check may fail.
func TestQuickEmitsEveryDeclaredName(t *testing.T) {
	spec := mustSpec(t)
	opt := quickOptions(t)
	opt.traced = true
	var out bytes.Buffer
	res, err := runFull(&out, spec, opt)
	if err != nil {
		t.Fatalf("runFull: %v\n%s", err, out.String())
	}
	byName := map[string]workloadResult{}
	for _, w := range res.Workloads {
		byName[w.Name] = w
		if w.Failed != 0 || w.Metrics[metricFailed].Value != 0 {
			t.Errorf("%s: %d of %d checks failed: %s", w.Name, w.Failed, w.Attempted, w.Failure)
		}
	}
	for _, w := range spec.Workloads {
		got, ok := byName[w.Name]
		if !ok {
			t.Errorf("workload %s declared but not run", w.Name)
			continue
		}
		for _, d := range spec.EndToEnd {
			m, ok := got.Metrics[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want finite and positive", w.Name, d.Name, m.Value, ok)
			}
			if m.Unit != d.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
			}
		}
	}
	for _, name := range []string{"sim_paper", "sim_overlap", "sim_recorded"} {
		if _, ok := byName[name].Metrics[metricSimNs]; !ok {
			t.Errorf("%s: no %s", name, metricSimNs)
		}
	}
	if _, ok := byName["sim_paper"].Metrics[metricPaperErr]; !ok {
		t.Errorf("sim_paper: no %s", metricPaperErr)
	}
	if _, ok := byName["svc_http_lookup"].Metrics[metricSimNs]; ok {
		t.Errorf("svc_http_lookup reports %s; a metric that does not apply is omitted, never 0", metricSimNs)
	}
	for _, d := range spec.PerLayer {
		m, ok := res.Layers[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per-layer metric %s = %v (present %v), want finite", d.Name, m.Value, ok)
		}
		if ok && m.Unit != d.Unit {
			t.Errorf("per-layer metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range res.Layers {
		if !slices.ContainsFunc(spec.PerLayer, func(d metricDecl) bool { return d.Name == name }) {
			t.Errorf("per-layer metric %s is emitted but not declared in BENCHMARK.json", name)
		}
	}
	for _, table := range []string{"== of svc_http_lookup req_p50_us", "== of sim_recorded request time", "== spans"} {
		if !strings.Contains(out.String(), table) {
			t.Errorf("report lacks %q", table)
		}
	}
}

// TestDriverLine holds driver mode to the contract: the last line is
// one JSON object with exactly four keys, and its metrics are exactly
// the declared end-to-end set.
func TestDriverLine(t *testing.T) {
	spec := mustSpec(t)
	var out bytes.Buffer
	if _, err := runDriver(&out, spec, "svc_inproc_mixed", quickOptions(t)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(line) != 4 {
		t.Errorf("last line has %d keys, want 4", len(line))
	}
	var metrics map[string]driverValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(spec.EndToEnd) {
		t.Errorf("%d metrics on the line, %d declared", len(metrics), len(spec.EndToEnd))
	}
	for _, d := range spec.EndToEnd {
		if v, ok := metrics[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
			t.Errorf("metric %s on the line: %+v (present %v)", d.Name, v, ok)
		}
	}
	if _, err := runDriver(io.Discard, spec, "no_such_workload", quickOptions(t)); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWrongFramesFail proves the service checker checks: a table
// primed with frames that are not SyntheticPFN must fail requests, in
// process and over HTTP.
func TestWrongFramesFail(t *testing.T) {
	wrong := func(k xlate.Key) units.PFN { return xlate.SyntheticPFN(k) + 1 }
	inproc, err := newInprocLookup(1998, quickSizes, wrong)
	if err != nil {
		t.Fatal(err)
	}
	inproc.rep(nil)
	if attempted, failed := inproc.totals(); failed == 0 {
		t.Errorf("in-process: %d requests against wrong frames, none failed", attempted)
	}
	overHTTP, err := newHTTPLookup(1998, quickSizes, nil, wrong)
	if err != nil {
		t.Fatal(err)
	}
	defer overHTTP.close()
	overHTTP.rep(nil)
	if attempted, failed := overHTTP.totals(); failed == 0 {
		t.Errorf("HTTP: %d requests against wrong frames, none failed", attempted)
	}
	r := runner{def: workloadByName("svc_inproc_lookup"), inst: inproc, setups: []float64{1}}
	r.timedRep()
	if share := r.finish().Metrics[metricFailed].Value; !(share > 0) {
		t.Errorf("failed_share = %v with wrong frames, want > 0", share)
	}
}

// TestPerturbedResultFails proves the simulator checker checks: a
// reference Result off by one miss fails every repetition of that job.
func TestPerturbedResultFails(t *testing.T) {
	inst, err := setupSimPaper(1998, quickSizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*simInst)
	if _, failed := in.totals(); failed != 0 {
		t.Fatalf("set-up failed %d checks: %s", failed, in.failure())
	}
	if c := in.rep(nil); c.failed != 0 {
		t.Fatalf("unperturbed repetition failed %d requests: %s", c.failed, in.failure())
	}
	in.jobs[0].want.NIMisses++
	if c := in.rep(nil); c.failed != int64(in.passes) {
		t.Errorf("perturbed reference: %d requests failed, want %d", c.failed, in.passes)
	}
}

func TestQuietQuartile(t *testing.T) {
	nine := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := quietQuartile(nine, true); got != 3 {
		t.Errorf("lower-is-better: got %v, want the 3rd best (3)", got)
	}
	if got := quietQuartile(nine, false); got != 7 {
		t.Errorf("higher-is-better: got %v, want the 3rd best (7)", got)
	}
	if got := quietQuartile([]float64{4}, true); got != 4 {
		t.Errorf("one sample: got %v", got)
	}
	// statistics.quantiles([1..9], n=4) gives 2.5 and 7.5; median 5.
	if got := iqrShare(nine); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1.0", got)
	}
}

func TestPercentileIndex(t *testing.T) {
	for _, c := range []struct{ n, p, want int }{{100, 50, 49}, {100, 99, 98}, {1000, 99, 989}, {14, 99, 13}, {1, 50, 0}} {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func flat(v float64) metric { return metric{Value: v, Min: v, Max: v, Samples: []float64{v, v, v, v}} }

func spreadOf(vals ...float64) metric {
	return summarize(vals, "us", quietQuartile(vals, true))
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name        string
		a, b        metric
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"within bound", flat(100), flat(105), 0.10, true, verdictUnchanged},
		{"slower past bound", flat(100), flat(115), 0.10, true, verdictWorse},
		{"faster past bound", flat(100), flat(85), 0.10, true, verdictBetter},
		{"throughput down", flat(100), flat(85), 0.10, false, verdictWorse},
		{"throughput up", flat(100), flat(115), 0.10, false, verdictBetter},
		{"exact, equal", flat(24140.5), flat(24140.5), 0, true, verdictUnchanged},
		{"exact, off by a bit", flat(24140.5), flat(24140.6), 0, true, verdictWorse},
		{"noisy, overlapping", spreadOf(80, 100, 120, 140), spreadOf(90, 110, 130, 150), 0.10, true, verdictUnresolved},
		{"noisy, but B always wins", spreadOf(80, 100, 120, 140), spreadOf(40, 50, 60, 70), 0.10, true, verdictBetter},
		{"noisy, but B always loses", spreadOf(80, 100, 120, 140), spreadOf(150, 180, 210, 240), 0.10, true, verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.bound, c.lowerBetter); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec := mustSpec(t)
	dir := t.TempDir()
	write := func(name string, p50, failedShare float64) string {
		r := result{Workloads: []workloadResult{{Name: "svc_http_lookup", Metrics: map[string]metric{
			metricP50:    flat(p50),
			metricFailed: flat(failedShare),
			metricSimNs:  flat(17),
		}}}}
		path := filepath.Join(dir, name)
		if err := r.writeFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 0)
	for _, c := range []struct {
		name      string
		path      string
		wantWorse bool
	}{
		{"same", write("same.json", 101, 0), false},
		{"slower", write("slower.json", 130, 0), true},
		{"a failed check", write("failed.json", 100, 0.001), true},
	} {
		var out bytes.Buffer
		worse, err := runCompare(&out, spec, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.wantWorse, out.String())
		}
	}
	if _, err := runCompare(io.Discard, spec, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file compared clean")
	}
}

func TestSpecValidation(t *testing.T) {
	fresh := func() *benchSpec {
		s := *mustSpec(t)
		s.Workloads = append(s.Workloads[:0:0], s.Workloads...)
		s.EndToEnd = append(s.EndToEnd[:0:0], s.EndToEnd...)
		s.PerLayer = append(s.PerLayer[:0:0], s.PerLayer...)
		return &s
	}
	if err := fresh().validate(); err != nil {
		t.Fatalf("the committed BENCHMARK.json is invalid: %v", err)
	}
	for name, breakIt := range map[string]func(*benchSpec){
		"bad metric name":        func(s *benchSpec) { s.PerLayer[0].Name = "tlb cache/hit" },
		"duplicate name":         func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"unknown workload":       func(s *benchSpec) { s.Workloads[0].Name = "sim_imaginary" },
		"bound too wide":         func(s *benchSpec) { s.EndToEnd[0].Bound = 0.5 },
		"wrong direction":        func(s *benchSpec) { s.EndToEnd[0].Better = "lower" },
		"not a universal metric": func(s *benchSpec) { s.EndToEnd[0].Name = metricSimNs },
		"too many per-layer": func(s *benchSpec) {
			for len(s.PerLayer) <= maxPerLayer {
				s.PerLayer = append(s.PerLayer, metricDecl{Name: fmt.Sprintf("extra.%d", len(s.PerLayer)), Unit: "ns", Better: "lower"})
			}
		},
	} {
		s := fresh()
		breakIt(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	r := result{Workloads: []workloadResult{{Name: "bad name", Metrics: map[string]metric{}}}}
	if err := r.validate(); err == nil {
		t.Error("result file with a bad workload name accepted")
	}
}
