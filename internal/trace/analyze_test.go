package trace

import (
	"strings"
	"testing"

	"utlb/internal/units"
)

func analyzeSample() Trace {
	mk := func(t int64, pid units.ProcID, op Op, page int, bytes int32) Record {
		return Record{Time: units.Time(t), PID: pid, Op: op,
			VA: units.VAddr(page) * units.PageSize, Bytes: bytes}
	}
	return Trace{
		mk(10, 1, Send, 0, 4096),
		mk(20, 1, Send, 1, 4096), // consecutive: run of 2
		mk(30, 1, Fetch, 5, 4096),
		mk(40, 2, Send, 0, 4096),
		mk(50, 1, Send, 0, 4096), // reuse of (1, page 0)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(analyzeSample())
	if s.Lookups != 5 || s.Footprint != 4 {
		t.Errorf("lookups=%d footprint=%d", s.Lookups, s.Footprint)
	}
	if s.Sends != 4 || s.Fetches != 1 {
		t.Errorf("sends=%d fetches=%d", s.Sends, s.Fetches)
	}
	if s.Bytes != 5*4096 {
		t.Errorf("bytes=%d", s.Bytes)
	}
	if s.Duration != 40 {
		t.Errorf("duration=%v", s.Duration)
	}
	if s.Processes != 2 || s.Nodes != 1 {
		t.Errorf("procs=%d nodes=%d", s.Processes, s.Nodes)
	}
	if s.ReuseFactor != 5.0/4.0 {
		t.Errorf("reuse=%v", s.ReuseFactor)
	}
	if len(s.PerProcess) != 2 || s.PerProcess[0].PID != 1 ||
		s.PerProcess[0].Lookups != 4 || s.PerProcess[0].Footprint != 3 {
		t.Errorf("per-process = %+v", s.PerProcess)
	}
	out := s.String()
	for _, want := range []string{"lookups", "footprint", "pid 1", "pid 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Lookups != 0 || s.ReuseFactor != 0 || s.MeanRunLength != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestMeanRunLength(t *testing.T) {
	// pid 1: pages 0,1,2 (run 3) then 9 (run 1) -> mean 2.0
	tr := Trace{
		{PID: 1, VA: 0 * units.PageSize, Bytes: 1},
		{PID: 1, VA: 1 * units.PageSize, Bytes: 1},
		{PID: 1, VA: 2 * units.PageSize, Bytes: 1},
		{PID: 1, VA: 9 * units.PageSize, Bytes: 1},
	}
	if got := meanRunLength(tr); got != 2.0 {
		t.Errorf("meanRunLength = %v, want 2.0", got)
	}
	// Interleaved processes do not break each other's runs.
	tr2 := Trace{
		{PID: 1, VA: 0 * units.PageSize, Bytes: 1},
		{PID: 2, VA: 7 * units.PageSize, Bytes: 1},
		{PID: 1, VA: 1 * units.PageSize, Bytes: 1},
		{PID: 2, VA: 8 * units.PageSize, Bytes: 1},
	}
	if got := meanRunLength(tr2); got != 2.0 {
		t.Errorf("interleaved meanRunLength = %v, want 2.0", got)
	}
}

func TestReuseDistances(t *testing.T) {
	mk := func(pid units.ProcID, page int) Record {
		return Record{PID: pid, VA: units.VAddr(page) * units.PageSize, Bytes: 1}
	}
	// Sequence: A B A  -> reuse of A at distance 1 (one distinct page
	// between), bucket 0 counts distances 0-1.
	tr := Trace{mk(1, 0), mk(1, 1), mk(1, 0)}
	buckets := ReuseDistances(tr)
	total := 0
	for _, c := range buckets {
		total += c
	}
	if total != 1 || buckets[0] != 1 {
		t.Errorf("buckets = %v", buckets)
	}
	// Same page different pid is a different key: no reuse.
	tr = Trace{mk(1, 0), mk(2, 0)}
	if got := ReuseDistances(tr); len(got) != 0 {
		t.Errorf("cross-pid reuse counted: %v", got)
	}
	// Immediate re-touch: distance 0.
	tr = Trace{mk(1, 0), mk(1, 0)}
	if got := ReuseDistances(tr); got[0] != 1 {
		t.Errorf("immediate reuse = %v", got)
	}
}

func TestReuseDistanceLRUProperty(t *testing.T) {
	// Cross-check: for a cyclic sweep of N pages, every reuse has
	// distance N-1.
	const n = 16
	var tr Trace
	for round := 0; round < 3; round++ {
		for p := 0; p < n; p++ {
			tr = append(tr, Record{PID: 1, VA: units.VAddr(p) * units.PageSize, Bytes: 1})
		}
	}
	buckets := ReuseDistances(tr)
	// distance 15 lands in bucket 3 (8..15).
	want := 2 * n
	if len(buckets) < 4 || buckets[3] != want {
		t.Errorf("buckets = %v, want %d in bucket 3", buckets, want)
	}
}

func TestFormatReuseHistogram(t *testing.T) {
	// Bucket 0 holds distances 0 and 1, bucket i [2^i, 2^(i+1)).
	got := FormatReuseHistogram([]int{5, 3, 0, 2})
	want := "distance < 2              5 reuses ( 50.0% cumulative)\n" +
		"distance < 4              3 reuses ( 80.0% cumulative)\n" +
		"distance < 8              0 reuses ( 80.0% cumulative)\n" +
		"distance < 16             2 reuses (100.0% cumulative)\n"
	if got != want {
		t.Errorf("histogram:\n%s\nwant:\n%s", got, want)
	}
	if FormatReuseHistogram(nil) != "no reuses\n" {
		t.Error("empty histogram")
	}
}
