package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/parallel"
	"utlb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenOpts is `utlbsim -scale 0.05` with every other flag at its
// default: all seven applications, one node, the paper's seed.
func goldenOpts() Options { return Options{Scale: 0.05, Seed: 1998} }

// atWidth runs f with the worker pool at width and a cold trace store.
func atWidth(width int, f func()) {
	parallel.SetWorkers(width)
	defer parallel.SetWorkers(0)
	workload.ResetTraceStore()
	f()
}

// checkGolden compares got with testdata/name (-update rewrites it).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs (run with -update only if the change is meant):\n got %q\nwant %q",
				name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
}

// TestRecordedGolden pins every recorded event of `-exp t6 -scale 0.05`
// — content and order — through all three exporters: the Chrome trace,
// the Prometheus metrics and the transfer analysis are hashed against
// a committed digest, one line per export so a failure names the one
// that moved, at pool widths 1 and 8.
func TestRecordedGolden(t *testing.T) {
	for _, width := range []int{1, 8} {
		atWidth(width, func() {
			col := obs.NewCollector()
			opts := goldenOpts()
			opts.Obs = col
			var sb strings.Builder
			if err := Run("t6", opts, &sb); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			runs := col.Runs()
			var chrome, metrics, analysis bytes.Buffer
			if err := obs.WriteChromeTrace(&chrome, runs); err != nil {
				t.Fatal(err)
			}
			if err := obs.WritePrometheus(&metrics, obs.Aggregate(runs)); err != nil {
				t.Fatal(err)
			}
			if err := analyze.WriteJSON(&analysis, analyze.Analyze(runs, 10)); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("events  %d\nchrome  %x\nmetrics %x\nanalyze %x\n", col.Events(),
				sha256.Sum256(chrome.Bytes()), sha256.Sum256(metrics.Bytes()), sha256.Sum256(analysis.Bytes()))
			checkGolden(t, "t6_recorded.digest.txt", got)
		})
	}
}

// TestNodeAveragedGolden pins per-node averaging — the paper's own
// setup is four nodes, all.golden.txt runs one — on the three tables
// that average: Tables 4, 5 and 8 at two nodes, byte for byte against
// testdata/nodes2.golden.txt, at pool widths 1 and 8.
func TestNodeAveragedGolden(t *testing.T) {
	for _, width := range []int{1, 8} {
		atWidth(width, func() {
			opts := goldenOpts()
			opts.Nodes = 2
			var sb strings.Builder
			for _, name := range []string{"table4", "table5", "table8"} {
				if err := Run(name, opts, &sb); err != nil {
					t.Fatalf("%s width %d: %v", name, width, err)
				}
			}
			checkGolden(t, "nodes2.golden.txt", sb.String())
		})
	}
}

// labelList renders a collector's runs as sorted "label events" lines:
// the labels are what the collector merges by and what every export
// names, the counts say each label still holds the same run.
func labelList(col *obs.Collector) string {
	var sb strings.Builder
	for _, r := range col.Runs() {
		fmt.Fprintf(&sb, "%s %d\n", r.Label, r.Len())
	}
	return sb.String()
}

// TestLabelsGolden pins the recorder label and event count of every
// run of every experiment (two applications, two nodes, scale 0.02)
// against testdata/labels.golden.txt, at pool widths 1 and 8.
func TestLabelsGolden(t *testing.T) {
	for _, width := range []int{1, 8} {
		atWidth(width, func() {
			var got strings.Builder
			for _, name := range Names {
				col := obs.NewCollector()
				opts := Options{Scale: 0.02, Seed: 1998, Apps: []string{"water-spatial", "fft"}, Nodes: 2, Obs: col}
				if err := Run(name, opts, io.Discard); err != nil {
					t.Fatalf("%s width %d: %v", name, width, err)
				}
				fmt.Fprintf(&got, "# %s\n%s", name, labelList(col))
			}
			checkGolden(t, "labels.golden.txt", got.String())
		})
	}
}

// TestCompareTraceGolden pins CompareTrace — the one sweep that takes
// its trace, seed and collector as arguments — as text plus labels.
func TestCompareTraceGolden(t *testing.T) {
	for _, width := range []int{1, 8} {
		atWidth(width, func() {
			col := obs.NewCollector()
			tbl, err := CompareTrace(compareTestTrace(t), 1, 16, col)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "compare.golden.txt", tbl.String()+labelList(col))
		})
	}
}
