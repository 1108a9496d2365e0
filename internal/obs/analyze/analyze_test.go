package analyze_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"utlb/internal/experiments"
	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/parallel"
	"utlb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAnalyzeSynthetic verifies the breakdown arithmetic on a
// hand-built timeline: category attribution, the interrupt-exclusive
// subtraction, unattributed counting, and slowest-transfer ordering.
func TestAnalyzeSynthetic(t *testing.T) {
	runs := []obs.Run{obs.NewRun("expA/run1", []obs.Event{
		// transfer 1: check 100 + probe 50 + dma 200 = 350
		{Time: 0, Dur: 100, Xfer: 1, Kind: obs.KindCheckMiss},
		{Time: 100, Dur: 50, Xfer: 1, Kind: obs.KindNIProbe},
		{Time: 150, Dur: 200, Xfer: 1, Kind: obs.KindDMARead},
		// transfer 2: interrupt 500 wrapping kernel pin 300 =>
		// interrupt-exclusive 200 + pin 300 = 500
		{Time: 400, Dur: 500, Xfer: 2, Kind: obs.KindInterrupt},
		{Time: 450, Dur: 300, Xfer: 2, Kind: obs.KindKernelPin},
		// unattributed instant
		{Time: 900, Dur: 0, Xfer: 0, Kind: obs.KindCacheHit},
	})}
	rep := analyze.Analyze(runs, 10)
	if rep.Events != 6 || rep.Runs != 1 {
		t.Fatalf("events/runs = %d/%d, want 6/1", rep.Events, rep.Runs)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("experiments = %d, want 1", len(rep.Experiments))
	}
	exp := rep.Experiments[0]
	if exp.Experiment != "expA" {
		t.Fatalf("experiment = %q, want expA", exp.Experiment)
	}
	if exp.Transfers.Count != 2 || exp.Transfers.Unattributed != 1 {
		t.Fatalf("transfers = %+v", exp.Transfers)
	}
	if exp.Transfers.MaxNs != 500 {
		t.Fatalf("max latency = %d, want 500", exp.Transfers.MaxNs)
	}
	want := map[string]int64{"check": 100, "probe": 50, "dma": 200, "pin": 300, "interrupt": 200}
	got := map[string]int64{}
	var totalBP int64
	for _, b := range exp.Breakdown {
		got[b.Category] = b.Ns
		totalBP += b.BasisPoints
	}
	for cat, ns := range want {
		if got[cat] != ns {
			t.Errorf("breakdown[%s] = %d, want %d", cat, got[cat], ns)
		}
	}
	if totalBP < 9990 || totalBP > 10000 {
		t.Errorf("basis points sum = %d, want ~10000", totalBP)
	}
	// Slowest: transfer 2 (500) before transfer 1 (350).
	if len(exp.Slowest) != 2 || exp.Slowest[0].ID != 2 || exp.Slowest[1].ID != 1 {
		t.Fatalf("slowest order wrong: %+v", exp.Slowest)
	}
	if exp.Slowest[0].LatencyNs != 500 || exp.Slowest[1].LatencyNs != 350 {
		t.Fatalf("slowest latencies: %d, %d", exp.Slowest[0].LatencyNs, exp.Slowest[1].LatencyNs)
	}
}

// TestAnalyzeChainTruncation pins the 64-event chain cap.
func TestAnalyzeChainTruncation(t *testing.T) {
	events := make([]obs.Event, 100)
	for i := range events {
		events[i] = obs.Event{Time: 0, Dur: 1, Xfer: 1, Kind: obs.KindDMARead}
	}
	rep := analyze.Analyze([]obs.Run{obs.NewRun("x/r", events)}, 1)
	sl := rep.Experiments[0].Slowest
	if len(sl) != 1 {
		t.Fatalf("slowest = %d entries", len(sl))
	}
	if len(sl[0].Events) != 64 || sl[0].Truncated != 36 {
		t.Fatalf("chain len %d truncated %d, want 64/36", len(sl[0].Events), sl[0].Truncated)
	}
}

// analyzeExperiment renders the analyze JSON for one experiment at the
// given worker-pool width.
func analyzeExperiment(t *testing.T, name string, width int) string {
	t.Helper()
	parallel.SetWorkers(width)
	defer parallel.SetWorkers(0)
	workload.ResetTraceStore()
	col := obs.NewCollector()
	opts := experiments.Options{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial", "fft"}, Obs: col}
	var sb strings.Builder
	if err := experiments.Run(name, opts, &sb); err != nil {
		t.Fatalf("%s width %d: %v", name, width, err)
	}
	var buf bytes.Buffer
	if err := analyze.WriteJSON(&buf, analyze.Analyze(col.Runs(), 3)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAnalyzeGolden pins the full report over a real experiment run
// and asserts it is byte-identical at pool widths 1 and 8 — analysis
// is a pure function of the collector.
func TestAnalyzeGolden(t *testing.T) {
	got := analyzeExperiment(t, "table6", 1)
	if wide := analyzeExperiment(t, "table6", 8); wide != got {
		t.Errorf("analyze JSON diverged across widths (lens %d vs %d)", len(got), len(wide))
	}
	path := filepath.Join("testdata", "table6_analyze.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("analyze JSON drifted from golden (lens %d vs %d); run with -update if intended",
			len(got), len(want))
	}
}
