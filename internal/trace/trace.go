// Package trace defines the communication-trace format the evaluation
// runs on. The paper instruments the VMMC software "to trace each send
// and remote read request along with a globally-synchronized clock",
// then serialises the per-process traces by timestamp and feeds them to
// the UTLB simulator (§6). A Record captures exactly that: who
// communicated, when, which operation, and which user buffer.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"utlb/internal/units"
)

// Op is the traced communication operation.
type Op uint8

// Operations appearing in VMMC traces.
const (
	// Send is a remote store from a local buffer (VMMC send).
	Send Op = iota
	// Fetch is a remote read into a local buffer (VMMC remote-fetch).
	Fetch
)

func (o Op) String() string {
	switch o {
	case Send:
		return "send"
	case Fetch:
		return "fetch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one traced communication request. Its fields run widest
// first, so a record is 32 bytes with no padding inside (the order
// Time, Node, PID, Op, VA, Bytes padded it to 40).
type Record struct {
	// Time is the globally-synchronised timestamp.
	Time units.Time
	// VA and Bytes describe the local user buffer.
	VA units.VAddr
	// PID is the issuing process.
	PID   units.ProcID
	Bytes int32
	// Node is the host the request was issued on.
	Node units.NodeID
	// Op is the request type.
	Op Op
}

// Trace is a sequence of records.
type Trace []Record

// timeCmp is the serialisation order: timestamp, breaking ties by
// (node, pid) for determinism — the paper's "time stamps are used to
// serialize the traces".
func timeCmp(a, b Record) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	return cmp.Compare(a.PID, b.PID)
}

// SortByTime serialises the trace in timeCmp order, keeping records
// that compare equal in their order.
func (t Trace) SortByTime() {
	slices.SortStableFunc(t, timeCmp)
}

// IsSortedByTime reports whether the trace is already serialised in
// SortByTime order; a stable sort of such a trace is a no-op, letting
// consumers skip the copy+sort entirely. Generated and merged traces
// are sorted by construction.
func (t Trace) IsSortedByTime() bool {
	for i := 1; i < len(t); i++ {
		if timeCmp(t[i], t[i-1]) < 0 {
			return false
		}
	}
	return true
}

// Merge combines traces and serialises the result by timestamp.
func Merge(traces ...Trace) Trace {
	var total int
	for _, t := range traces {
		total += len(t)
	}
	out := make(Trace, 0, total)
	for _, t := range traces {
		out = append(out, t...)
	}
	out.SortByTime()
	return out
}

// Lookups reports the number of records (communication operations —
// translation lookups in the paper's terminology, since the SVM
// applications transfer about one page per operation).
func (t Trace) Lookups() int { return len(t) }

// Footprint reports the number of distinct (pid, page) pairs touched —
// the paper's "communication memory footprint" in 4 KB pages. It
// builds a map per call, so it is for reporting (traceinfo, tracegen,
// the experiment tables); sim.RunWith counts no pages.
func (t Trace) Footprint() int {
	type pk struct {
		pid units.ProcID
		vpn units.VPN
	}
	seen := make(map[pk]bool)
	for _, r := range t {
		pages := units.PagesSpanned(r.VA, int(r.Bytes))
		first := r.VA.PageOf()
		for i := 0; i < pages; i++ {
			seen[pk{r.PID, first + units.VPN(i)}] = true
		}
	}
	return len(seen)
}

// PIDs reports the distinct process IDs in the trace, sorted.
func (t Trace) PIDs() []units.ProcID {
	set := map[units.ProcID]bool{}
	for _, r := range t {
		set[r.PID] = true
	}
	out := make([]units.ProcID, 0, len(set))
	for pid := range set {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
