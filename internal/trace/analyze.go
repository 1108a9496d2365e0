package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// Summary aggregates the properties of a trace that predict UTLB
// behaviour: footprint and lookups (Table 3's columns), reuse, page
// spans (pre-pinning friendliness), and the spatial-locality run
// lengths that decide whether prefetching pays (§6.4).
type Summary struct {
	Lookups   int
	Footprint int
	Nodes     int
	Processes int
	// Sends and Fetches split the operations.
	Sends   int
	Fetches int
	// Bytes is the total payload volume.
	Bytes int64
	// Duration spans first to last timestamp.
	Duration units.Time
	// ReuseFactor is lookups per distinct page (higher = friendlier).
	ReuseFactor float64
	// MeanRunLength is the average length of maximal runs of
	// consecutive same-process page references (spatial locality).
	MeanRunLength float64
	// PerProcess breaks the trace down by PID, sorted by PID.
	PerProcess []ProcSummary
}

// ProcSummary is one process' slice of the trace.
type ProcSummary struct {
	PID       units.ProcID
	Lookups   int
	Footprint int
}

// Summarize computes a Summary for the trace.
func Summarize(t Trace) Summary {
	var s Summary
	s.Lookups = len(t)
	s.Footprint = t.Footprint()
	nodes := map[units.NodeID]bool{}
	perProcPages := map[units.ProcID]map[units.VPN]bool{}
	perProcLookups := map[units.ProcID]int{}
	var minT, maxT units.Time
	for i, r := range t {
		nodes[r.Node] = true
		if r.Op == Send {
			s.Sends++
		} else {
			s.Fetches++
		}
		s.Bytes += int64(r.Bytes)
		if i == 0 || r.Time < minT {
			minT = r.Time
		}
		if r.Time > maxT {
			maxT = r.Time
		}
		perProcLookups[r.PID]++
		if perProcPages[r.PID] == nil {
			perProcPages[r.PID] = map[units.VPN]bool{}
		}
		pages := units.PagesSpanned(r.VA, int(r.Bytes))
		for p := 0; p < pages; p++ {
			perProcPages[r.PID][r.VA.PageOf()+units.VPN(p)] = true
		}
	}
	s.Nodes = len(nodes)
	s.Processes = len(perProcPages)
	if s.Lookups > 0 {
		s.Duration = maxT - minT
	}
	if s.Footprint > 0 {
		s.ReuseFactor = float64(s.Lookups) / float64(s.Footprint)
	}
	s.MeanRunLength = meanRunLength(t)
	for pid := range perProcPages {
		s.PerProcess = append(s.PerProcess, ProcSummary{
			PID:       pid,
			Lookups:   perProcLookups[pid],
			Footprint: len(perProcPages[pid]),
		})
	}
	sort.Slice(s.PerProcess, func(i, j int) bool { return s.PerProcess[i].PID < s.PerProcess[j].PID })
	return s
}

// meanRunLength measures spatial locality: the mean length of maximal
// runs where a process' successive references touch consecutive pages.
func meanRunLength(t Trace) float64 {
	last := map[units.ProcID]units.VPN{}
	runLen := map[units.ProcID]int{}
	var total, count int
	flush := func(pid units.ProcID) {
		if runLen[pid] > 0 {
			total += runLen[pid]
			count++
		}
		runLen[pid] = 0
	}
	for _, r := range t {
		vpn := r.VA.PageOf()
		if prev, ok := last[r.PID]; ok && vpn == prev+1 {
			runLen[r.PID]++
		} else {
			flush(r.PID)
			runLen[r.PID] = 1
		}
		last[r.PID] = vpn
	}
	for pid := range runLen {
		flush(pid)
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// StackDistances returns the LRU stack distance of every page
// reference in t, in trace order (a record spanning n pages makes n
// references, lowest page first): the number of distinct other (pid,
// page) pairs referenced since the pair's previous reference, or -1 for
// its first. A fully associative LRU cache of C entries hits exactly
// the references with 0 <= d < C. It is Mattson's one-pass algorithm:
// a Fenwick tree over reference positions marks each pair's latest
// use, so a distance is the marks between two positions, and the pass
// is O(N log N) in the N references. Each process' latest uses sit in
// a page-indexed table, so a page at or past core.VASpacePages, which
// the codec rejects, is out of range and panics.
func StackDistances(t Trace) []int32 {
	n := 0
	for _, r := range t {
		n += units.PagesSpanned(r.VA, int(r.Bytes))
	}
	dist := make([]int32, 0, n)
	marks := make([]int32, n+1) // Fenwick tree: marks[j] sums positions [j - j&-j, j)
	mark := func(pos int, v int32) {
		for j := pos + 1; j <= n; j += j & -j {
			marks[j] += v
		}
	}
	before := func(pos int) (s int32) { // marks at positions [0, pos)
		for j := pos; j > 0; j -= j & -j {
			s += marks[j]
		}
		return s
	}
	var pids []units.ProcID
	var last []*tlbcache.PageMap[int32] // by index in pids: each page's latest position
	for _, r := range t {
		i := slices.Index(pids, r.PID)
		if i < 0 {
			i, pids, last = len(pids), append(pids, r.PID), append(last, new(tlbcache.PageMap[int32]))
		}
		pages := units.PagesSpanned(r.VA, int(r.Bytes))
		for p := 0; p < pages; p++ {
			pos := len(dist)
			prev, first := last[i].Ensure(r.VA.PageOf() + units.VPN(p))
			d := int32(-1)
			if !first {
				d = before(pos) - before(int(*prev)+1)
				mark(int(*prev), -1)
			}
			mark(pos, 1)
			*prev = int32(pos)
			dist = append(dist, d)
		}
	}
	return dist
}

// ReuseDistances folds StackDistances' reuses into powers of two:
// bucket i counts distances in [2^i, 2^(i+1)), bucket 0 also distance
// 0. A perfectly LRU-managed cache of 2^k entries hits every reference
// counted in buckets < k.
func ReuseDistances(t Trace) []int {
	var buckets []int
	for _, d := range StackDistances(t) {
		if d < 0 {
			continue
		}
		b := max(bits.Len32(uint32(d))-1, 0)
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	return buckets
}

// String renders the summary as readable text.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lookups:        %d\n", s.Lookups)
	fmt.Fprintf(&b, "footprint:      %d pages (%.1f reuses/page)\n", s.Footprint, s.ReuseFactor)
	fmt.Fprintf(&b, "operations:     %d sends, %d fetches, %d bytes\n", s.Sends, s.Fetches, s.Bytes)
	fmt.Fprintf(&b, "span:           %d nodes, %d processes, %s\n", s.Nodes, s.Processes, s.Duration)
	fmt.Fprintf(&b, "spatial runs:   mean %.2f consecutive pages\n", s.MeanRunLength)
	for _, p := range s.PerProcess {
		fmt.Fprintf(&b, "  pid %-4d %7d lookups over %6d pages\n", p.PID, p.Lookups, p.Footprint)
	}
	return b.String()
}

// FormatReuseHistogram renders power-of-two reuse-distance buckets.
func FormatReuseHistogram(buckets []int) string {
	var b strings.Builder
	total := 0
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return "no reuses\n"
	}
	cum := 0
	for i, c := range buckets {
		cum += c
		fmt.Fprintf(&b, "distance < %-8d %7d reuses (%5.1f%% cumulative)\n",
			2<<i, c, 100*float64(cum)/float64(total))
	}
	return b.String()
}
