package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"utlb/internal/trace"
	"utlb/internal/workload"
)

// fastOpts runs experiments at a small scale for test speed.
func fastOpts() Options {
	return Options{Scale: 0.05, Seed: 7, Apps: []string{"barnes", "fft"}}
}

func TestTable1Renders(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"check min", "pin", "unpin", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"DMA cost", "total miss cost", "hit cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Hit cost should be the calibrated 0.8 us.
	if !strings.Contains(out, "0.8") {
		t.Errorf("hit cost not 0.8us:\n%s", out)
	}
}

func TestTable3Renders(t *testing.T) {
	tbl, err := Table3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"barnes", "fft", "32K particles"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestTable4And5Render(t *testing.T) {
	for name, f := range map[string]func(Options) (interface{ String() string }, error){
		"table4": func(o Options) (interface{ String() string }, error) { return Table4(o) },
		"table5": func(o Options) (interface{ String() string }, error) { return Table5(o) },
	} {
		tbl, err := f(fastOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := tbl.String()
		for _, want := range []string{"check misses", "NI misses", "unpins", "barnes UTLB", "fft Intr"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s missing %q", name, want)
			}
		}
	}
}

func TestTable6Renders(t *testing.T) {
	tbl, err := Table6(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "barnes UTLB") {
		t.Error("table 6 malformed")
	}
}

func TestTable7Renders(t *testing.T) {
	tbl, err := Table7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "pin") || !strings.Contains(out, "16") {
		t.Errorf("table 7 malformed:\n%s", out)
	}
}

func TestTable8Renders(t *testing.T) {
	tbl, err := Table8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"direct", "2-way", "4-way", "direct-nohash"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig7Renders(t *testing.T) {
	tbl, err := Fig7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"compulsory", "capacity", "conflict"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig8Renders(t *testing.T) {
	opts := fastOpts()
	miss, cost, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(miss.String(), "miss rate") || !strings.Contains(cost.String(), "lookup cost") {
		t.Error("figure 8 malformed")
	}
}

func TestAblationsRender(t *testing.T) {
	opts := Options{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial"}}
	pol, err := AblationPolicies(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pol.String(), "RANDOM") {
		t.Error("policies ablation malformed")
	}
	pp, err := AblationPerProcess(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pp.String(), "per-process") {
		t.Error("per-process ablation malformed")
	}
}

func TestRunDispatch(t *testing.T) {
	opts := Options{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial"}}
	var sb strings.Builder
	for _, name := range []string{"table1", "table3", "fig8"} {
		sb.Reset()
		if err := Run(name, opts, &sb); err != nil {
			t.Errorf("Run(%s): %v", name, err)
		}
		if sb.Len() == 0 {
			t.Errorf("Run(%s) produced no output", name)
		}
	}
	if err := Run("table99", opts, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	// One table serves names, aliases and dispatch: every name is known
	// and canonical, an alias resolves, and the empty alias of the
	// ablations matches nothing.
	for _, name := range Names {
		if !Known(name) || Canonical(name) != name {
			t.Errorf("%s: Known %v, Canonical %q", name, Known(name), Canonical(name))
		}
	}
	if !Known("t6") || Canonical("f8") != "fig8" || Known("") || Known("table99") || Canonical("nope") != "nope" {
		t.Error("alias resolution broken")
	}
}

// TestRunAllSmall pins the whole simulated output: RunAll at scale
// 0.05, seed 1998 — `utlbsim -exp all -scale 0.05` — byte for byte
// against testdata/all.golden.txt, at pool widths 1 and 8.
func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	for _, width := range []int{1, 8} {
		atWidth(width, func() {
			var sb strings.Builder
			if err := RunAll(goldenOpts(), &sb); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			for _, name := range Names {
				if !strings.Contains(sb.String(), "=== "+name+" ===") {
					t.Errorf("RunAll missing %s", name)
				}
			}
			checkGolden(t, "all.golden.txt", sb.String())
		})
	}
}

func TestScaledSizes(t *testing.T) {
	full := scaledSizes(Options{Scale: 1})
	if len(full) != 5 || full[0] != 1024 || full[4] != 16384 {
		t.Errorf("full sizes = %v", full)
	}
	small := scaledSizes(Options{Scale: 0.05})
	for i := 1; i < len(small); i++ {
		if small[i] <= small[i-1] {
			t.Errorf("scaled sizes not increasing: %v", small)
		}
	}
	if small[0] >= 1024 {
		t.Errorf("scaled sizes not reduced: %v", small)
	}
}

func TestSortedCopy(t *testing.T) {
	in := []int{3, 1, 2}
	out := sortedCopy(in)
	if out[0] != 1 || out[2] != 3 || in[0] != 3 {
		t.Error("sortedCopy wrong or mutated input")
	}
}

func TestAblationMultiprogRenders(t *testing.T) {
	opts := Options{Scale: 0.05, Seed: 7, Apps: []string{"barnes", "water-spatial"}}
	tbl, err := AblationMultiprog(opts)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"barnes+water-spatial", "mixed", "no-offset"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSVMPipelineRenders(t *testing.T) {
	tbl, err := SVMPipeline(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"jacobi", "transpose", "taskfarm", "sumreduce"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// compareTestTrace is the supplied trace of the CompareTrace tests.
func compareTestTrace(t *testing.T) trace.Trace {
	t.Helper()
	spec, err := workload.ByName("water-spatial")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: 3, Scale: 0.02})
}

func TestCompareTrace(t *testing.T) {
	tbl, err := CompareTrace(compareTestTrace(t), 1, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"supplied trace", "NI misses", "16K"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestNodeAveraging(t *testing.T) {
	opts := Options{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial"}, Nodes: 3}
	trs, err := opts.nodeTracesFor("water-spatial")
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 3 {
		t.Fatalf("node traces = %d", len(trs))
	}
	// Distinct nodes carry distinct node ids and disjoint PID ranges.
	pids := map[int]bool{}
	for n, tr := range trs {
		for _, r := range tr {
			if int(r.Node) != n {
				t.Fatalf("node %d record has node %d", n, r.Node)
			}
			pids[int(r.PID)] = true
		}
	}
	if len(pids) != 3*workload.ProcsPerNode {
		t.Errorf("distinct pids = %d", len(pids))
	}
	// avgOver averages element-wise; f may run on pool goroutines.
	var calls atomic.Int64
	avg, err := opts.avgOver("water-spatial", func(node int, tr trace.Trace) ([]float64, error) {
		return []float64{1, float64(calls.Add(1))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || avg[0] != 1 || avg[1] != 2 {
		t.Errorf("avgOver calls=%d avg=%v", calls.Load(), avg)
	}
	// A node-averaged comparison table still renders.
	tbl, err := Table4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "water-spatial UTLB") {
		t.Error("node-averaged table malformed")
	}
}
