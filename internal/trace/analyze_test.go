package trace

import (
	"slices"
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

// spliceReuseDistances is the quadratic stack ReuseDistances was before
// StackDistances: an ordered list of pairs, spliced and renumbered on
// every touch. It is kept as FuzzStackDistances' reference.
func spliceReuseDistances(t Trace) []int {
	type pk struct {
		pid units.ProcID
		vpn units.VPN
	}
	var stack []pk
	index := map[pk]int{}
	var buckets []int
	record := func(d int) {
		b := 0
		for v := d; v > 1; v >>= 1 {
			b++
		}
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	touch := func(k pk) {
		if pos, ok := index[k]; ok {
			record(len(stack) - 1 - pos)
			stack = append(stack[:pos], stack[pos+1:]...)
			for i := pos; i < len(stack); i++ {
				index[stack[i]] = i
			}
		}
		index[k] = len(stack)
		stack = append(stack, k)
	}
	for _, r := range t {
		pages := units.PagesSpanned(r.VA, int(r.Bytes))
		for p := 0; p < pages; p++ {
			touch(pk{r.PID, r.VA.PageOf() + units.VPN(p)})
		}
	}
	return buckets
}

// FuzzStackDistances decodes each byte pair into one record of pid 1-3
// on pages 0-15, spanning zero to seventeen pages, and holds
// StackDistances to the splice stack's buckets and every distance to a
// naive recount of the distinct pairs since the previous reference.
func FuzzStackDistances(f *testing.F) {
	f.Add([]byte{4, 0, 4, 1, 4, 0})          // A B A
	f.Add([]byte{4, 0, 5, 0})                // one page, two pids
	f.Add([]byte{60, 0x31, 8, 2, 255, 0xf7}) // multi-page spans
	f.Add([]byte{0, 3, 4, 3})                // a zero-byte record
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		for i := 0; i+1 < len(data) && len(tr) < 64; i += 2 {
			tr = append(tr, Record{
				PID:   1 + units.ProcID(data[i]%3),
				VA:    units.VAddr(data[i+1]%16)*units.PageSize + units.VAddr(data[i+1]>>4)*256,
				Bytes: int32(data[i]>>2) * 1024,
			})
		}
		type pk struct {
			pid units.ProcID
			vpn units.VPN
		}
		var refs []pk
		for _, r := range tr {
			for p := 0; p < units.PagesSpanned(r.VA, int(r.Bytes)); p++ {
				refs = append(refs, pk{r.PID, r.VA.PageOf() + units.VPN(p)})
			}
		}
		dist := StackDistances(tr)
		if len(dist) != len(refs) {
			t.Fatalf("%d distances for %d references", len(dist), len(refs))
		}
		for j, k := range refs {
			want := -1
			for p := j - 1; p >= 0; p-- {
				if refs[p] == k {
					seen := map[pk]bool{}
					for _, o := range refs[p+1 : j] {
						seen[o] = true
					}
					want = len(seen)
					break
				}
			}
			if int(dist[j]) != want {
				t.Fatalf("reference %d (%v): distance %d, recount %d", j, k, dist[j], want)
			}
		}
		if got, want := ReuseDistances(tr), spliceReuseDistances(tr); !slices.Equal(got, want) {
			t.Fatalf("buckets %v, splice stack %v", got, want)
		}
	})
}
