package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/trace"
	"utlb/internal/workload"
)

// fastOpts runs experiments at a small scale for test speed.
func fastOpts() Options {
	return Options{Scale: 0.05, Seed: 7, Apps: []string{"barnes", "fft"}}
}

func TestTable1Renders(t *testing.T) {
	tbl, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"check min", "pin", "unpin", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	tbl, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
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
	// Distinct nodes carry distinct node ids and disjoint PID ranges.
	var cells []cell
	pids := map[int]bool{}
	for n := 0; n < opts.nodes(); n++ {
		tr, err := opts.appTrace("water-spatial", n)()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr {
			if int(r.Node) != n {
				t.Fatalf("node %d record has node %d", n, r.Node)
			}
			pids[int(r.PID)] = true
		}
		// A cell per node, told apart by its cache size.
		cfg := opts.config()
		cfg.CacheEntries = 64 << n
		cells = append(cells, cell{fmt.Sprintf("avg/n%d", n), supplied(tr), cfg})
	}
	if len(pids) != 3*workload.ProcsPerNode {
		t.Errorf("distinct pids = %d", len(pids))
	}
	// runCells returns results in cell order at any pool width, and
	// nodeAvg is their exact mean.
	for _, width := range []int{1, 8} {
		parallel.SetWorkers(width)
		rs, err := opts.runCells(cells)
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for n, c := range cells {
			tr, _ := c.trace()
			want, err := sim.Run(tr, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rs[n] != want {
				t.Errorf("width %d: result %d is not cell %d's run", width, n, n)
			}
			sum += want.NIMissRate()
		}
		if got := nodeAvg(rs, sim.Result.NIMissRate); got != sum/3 {
			t.Errorf("width %d: nodeAvg = %v, want %v", width, got, sum/3)
		}
	}
	if got := nodeAvg(make([]sim.Result, 3), func(sim.Result) float64 { return 2 }); got != 2 {
		t.Errorf("nodeAvg of a constant = %v", got)
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

// TestRunCellsError checks a failing run is reported under its label.
func TestRunCellsError(t *testing.T) {
	opts := fastOpts()
	bad := opts.config()
	bad.Prefetch = 0
	_, err := opts.runCells([]cell{
		{"sweep/ok", opts.appTrace("fft", 0), opts.config()},
		{"sweep/bad", opts.appTrace("fft", 0), bad},
	})
	if err == nil || !strings.HasPrefix(err.Error(), "sweep/bad: ") {
		t.Errorf("err = %v, want it to lead with the failing run's label", err)
	}
	if _, err := opts.runCells([]cell{{"sweep/nope", opts.appTrace("nope", 0), opts.config()}}); err == nil {
		t.Error("unknown application accepted")
	}
}

// byTrace puts the cells of one trace (one backing array) next to each
// other, in cell order within a trace and the traces in order of first
// appearance; an equal trace in another array, and an empty trace, are
// traces of their own.
func TestByTraceGroupsCellsOfOneTrace(t *testing.T) {
	a := trace.Trace{{Time: 1}, {Time: 2}}
	b := trace.Trace{{Time: 3}}
	twin := slices.Clone(a)
	trs := []trace.Trace{a, b, a, nil, twin, b, a[:1], a}
	want := []int{0, 2, 7, 1, 5, 3, 4, 6}
	if got := byTrace(trs); !slices.Equal(got, want) {
		t.Errorf("byTrace = %v, want %v", got, want)
	}
}
