package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
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
