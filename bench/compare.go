package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// undeclaredBound is the bound of a clock metric BENCHMARK.json does
// not declare (req_p99_us): the widest the contract admits.
const undeclaredBound = 0.25

// Verdicts of one (metric, workload) row.
const (
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares side B against side A on one metric. A metric moved
// when B's value is off A's by more than the bound. When either side's
// repetitions spread (first to third quartile, as a share of the
// median) wider than the bound, the move — or its absence — is not
// resolved, unless every repetition of one side beats every repetition
// of the other. An exact metric has bound 0 and no spread.
func judge(a, b metric, bound float64, lowerBetter bool) string {
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	if spread := max(iqrShare(a.Samples), iqrShare(b.Samples)); spread > bound {
		bBeatsA, aBeatsB := b.Max < a.Min, a.Max < b.Min
		if !lowerBetter {
			bBeatsA, aBeatsB = b.Min > a.Max, a.Min > b.Max
		}
		switch {
		case bBeatsA:
			return verdictBetter
		case aBeatsB:
			return verdictWorse
		}
		return verdictUnresolved
	}
	var delta float64 // positive = worse
	switch {
	case a.Value != 0:
		delta = sign * (b.Value - a.Value) / a.Value
	case b.Value != 0:
		delta = sign * b.Value
	}
	switch {
	case delta > bound:
		return verdictWorse
	case delta < -bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// runCompare prints one row per (metric, workload) present in both
// files and reports whether anything got worse: a worse row, or any
// increase of failed_share.
func runCompare(w io.Writer, spec *benchSpec, pathA, pathB string) (worse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if a.Env.Seed != b.Env.Seed || !maps.Equal(a.Env.OpCounts, b.Env.OpCounts) {
		fmt.Fprintf(w, "note: the files differ in seed or op counts; exact metrics are expected to differ\n")
	}
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(wb workloadResult) bool { return wb.Name == wa.Name })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		for _, name := range metricOrder {
			ma, okA := wa.Metrics[name]
			mb, okB := wb.Metrics[name]
			if !okA || !okB {
				continue
			}
			bound, lowerBetter := 0.0, true // program-made metrics are exact
			if d := endToEndByName(name); d != nil {
				lowerBetter = d.lowerBetter
				if d.kind != isCount {
					bound = undeclaredBound
				}
			}
			if declared, ok := spec.bound(name); ok {
				bound = declared
			}
			verdict := judge(ma, mb, bound, lowerBetter)
			if name == metricFailed && mb.Value > ma.Value {
				verdict = verdictWorse
			}
			counts[verdict]++
			change := 0.0
			if ma.Value != 0 {
				change = 100 * (mb.Value - ma.Value) / ma.Value
			}
			fmt.Fprintf(w, "%-18s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", wa.Name, name, ma.Value, mb.Value, change, 100*bound, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d unchanged, %d better, %d worse, %d unresolved\n",
		counts[verdictUnchanged], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse] > 0, nil
}
