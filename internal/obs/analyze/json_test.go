package analyze_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"utlb/internal/obs/analyze"
)

// checkMarshal holds WriteJSON to json.MarshalIndent's bytes for rep.
func checkMarshal(t *testing.T, what string, rep *analyze.Report) {
	t.Helper()
	want, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := analyze.WriteJSON(&got, rep); err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
		n := 0
		for n < min(got.Len(), len(want)) && got.Bytes()[n] == want[n] {
			n++
		}
		t.Errorf("%s: WriteJSON departs from MarshalIndent at byte %d of %d:\ngot  %q\nwant %q",
			what, n, len(want), got.Bytes()[n:min(n+60, got.Len())], want[n:min(n+60, len(want))])
	}
}

// TestWriteJSONMatchesMarshalIndent: the direct writer makes the bytes
// json.MarshalIndent makes, on the committed golden report (decoded
// back), on reports of three recorded experiments, and on hand-built
// reports with nil and empty slices, every omitempty field set and
// unset, and the extreme integers.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "table6_analyze.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep analyze.Report
	if err := json.Unmarshal(golden, &rep); err != nil {
		t.Fatal(err)
	}
	checkMarshal(t, "golden", &rep)
	for _, name := range []string{"table4", "table6", "table8"} {
		var fromExp analyze.Report
		if err := json.Unmarshal([]byte(analyzeExperiment(t, name, 1)), &fromExp); err != nil {
			t.Fatal(err)
		}
		checkMarshal(t, name, &fromExp)
	}

	checkMarshal(t, "zero", &analyze.Report{})
	checkMarshal(t, "empty slices", &analyze.Report{Kinds: []analyze.KindStats{}, Experiments: []analyze.ExperimentReport{{
		Runs: []string{}, Breakdown: []analyze.BreakdownEntry{}, Slowest: []analyze.Transfer{{Events: []analyze.ChainEvent{}}},
	}}})
	checkMarshal(t, "extremes", &analyze.Report{
		Events: math.MinInt64, Runs: math.MaxInt,
		Kinds: []analyze.KindStats{{Kind: "k", Count: math.MaxInt64, TotalNs: -1}},
		Experiments: []analyze.ExperimentReport{
			{Experiment: "a", Runs: []string{"a/1", "a/2"}, Transfers: analyze.TransferStats{Count: 3, Unattributed: 1, MaxNs: 9},
				Breakdown: []analyze.BreakdownEntry{{Category: "dma", Ns: 5, BasisPoints: 10000}},
				Slowest: []analyze.Transfer{
					{Run: "a/1", ID: math.MaxUint64, LatencyNs: 7, Truncated: 2, Events: []analyze.ChainEvent{
						{Kind: "pin", Node: -1, PID: 3, TimeNs: 4, DurNs: -5, Arg: math.MaxUint64, Arg2: 1},
						{Kind: "dma"},
					}},
					{Run: "a/2"},
				}},
			{Experiment: "b"},
		},
	})
}

// FuzzWriteJSON puts an arbitrary label everywhere a report carries a
// string, so each is escaped exactly as encoding/json escapes it:
// HTML-safe, U+2028 and U+2029 escaped, invalid UTF-8 replaced.
func FuzzWriteJSON(f *testing.F) {
	for _, s := range []string{"table6/fft/utlb", `"\<>&`, "\t\n\x00\x1f\x7f", "é€𝄞\u2028\u2029", "\xe2\x80", "a\xffb"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, label string) {
		checkMarshal(t, "fuzz", &analyze.Report{
			Kinds: []analyze.KindStats{{Kind: label}},
			Experiments: []analyze.ExperimentReport{{
				Experiment: label, Runs: []string{label, label + "/x"},
				Breakdown: []analyze.BreakdownEntry{{Category: label}},
				Slowest:   []analyze.Transfer{{Run: label, Events: []analyze.ChainEvent{{Kind: label}}}},
			}},
		})
	})
}
