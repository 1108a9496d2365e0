// Package analyze turns a recorded event timeline into a
// transfer-level latency report: per-kind duration percentiles, a
// critical-path breakdown of where transfer time goes (library check
// vs cache probe vs DMA fill vs pin ioctl vs interrupt), and the
// slowest transfers with their full event chains.
//
// Analyze is a pure function of its input runs: all arithmetic is
// integer, maps are drained in sorted order, and the collector already
// merges runs deterministically, so the JSON report is byte-identical
// at any simulation parallelism — the property the serve endpoint's
// goldens pin down.
package analyze

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"utlb/internal/obs"
)

// Categories of the critical-path breakdown, in report order. Every
// span kind maps to exactly one category; instants carry no duration
// and contribute only to event counts.
const (
	catCheck     = iota // user-level bit-vector check
	catProbe            // NIC cache probe phase (hit or miss)
	catDMA              // I/O-bus DMA (entry fetch + data)
	catPin              // pin ioctl / in-kernel pin
	catUnpin            // unpin ioctl / in-kernel unpin
	catInterrupt        // interrupt dispatch + handler, minus nested pin work
	catOther            // any future span kind
	numCategories
)

var categories = [numCategories]string{"check", "probe", "dma", "pin", "unpin", "interrupt", "other"}

// category maps a span kind to its breakdown category.
func category(k obs.Kind) int8 {
	switch k {
	case obs.KindCheckHit, obs.KindCheckMiss:
		return catCheck
	case obs.KindNIProbe:
		return catProbe
	case obs.KindDMARead, obs.KindDMAWrite:
		return catDMA
	case obs.KindPin, obs.KindKernelPin:
		return catPin
	case obs.KindUnpin, obs.KindKernelUnpin:
		return catUnpin
	case obs.KindInterrupt:
		return catInterrupt
	default:
		return catOther
	}
}

// spanCat is category tabulated per Kind for the scan, -1 for the
// instants.
var spanCat = func() (tab [obs.NumKinds]int8) {
	for k := range tab {
		tab[k] = -1
		if obs.Kind(k).IsSpan() {
			tab[k] = category(obs.Kind(k))
		}
	}
	return tab
}()

// maxChainEvents caps the per-transfer event chain kept for the
// slowest-transfers report; past it only the count grows.
const maxChainEvents = 64

// Report is the analysis result, JSON-stable field for field.
type Report struct {
	// Events and Runs count the analyzed input.
	Events int64 `json:"events"`
	Runs   int   `json:"runs"`
	// Kinds holds per-kind duration statistics in kind order, one entry
	// per kind that appears in the input.
	Kinds []KindStats `json:"kinds"`
	// Experiments holds per-experiment transfer analysis, sorted by
	// name. An experiment is a run label's prefix before the first '/'.
	Experiments []ExperimentReport `json:"experiments"`
}

// KindStats summarises the durations of one event kind. Instant kinds
// have zero durations throughout.
type KindStats struct {
	Kind    string `json:"kind"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P95Ns   int64  `json:"p95_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// ExperimentReport is the transfer-level view of one experiment.
type ExperimentReport struct {
	Experiment string   `json:"experiment"`
	Runs       []string `json:"runs"`
	// Transfers summarises per-transfer critical-path latency (the sum
	// of exclusive span time attributed to each transfer id).
	Transfers TransferStats `json:"transfers"`
	// Breakdown splits total attributed span time by category.
	// BasisPoints are ten-thousandths of the experiment total, so the
	// fractions stay integers.
	Breakdown []BreakdownEntry `json:"breakdown"`
	// Slowest lists the topK highest-latency transfers, latency
	// descending (ties: run label then id ascending).
	Slowest []Transfer `json:"slowest"`
}

// TransferStats are the per-transfer latency percentiles of one
// experiment.
type TransferStats struct {
	Count        int64 `json:"count"`
	Events       int64 `json:"events"`
	Unattributed int64 `json:"unattributed_events"`
	P50Ns        int64 `json:"p50_ns"`
	P95Ns        int64 `json:"p95_ns"`
	P99Ns        int64 `json:"p99_ns"`
	MaxNs        int64 `json:"max_ns"`
}

// BreakdownEntry is one critical-path category's share.
type BreakdownEntry struct {
	Category    string `json:"category"`
	Ns          int64  `json:"ns"`
	BasisPoints int64  `json:"basis_points"`
}

// Transfer is one transfer's event chain for the slowest report.
type Transfer struct {
	Run       string       `json:"run"`
	ID        uint64       `json:"id"`
	LatencyNs int64        `json:"latency_ns"`
	Events    []ChainEvent `json:"events"`
	// Truncated counts chain events dropped past maxChainEvents.
	Truncated int `json:"truncated,omitempty"`
}

// ChainEvent is one event of a transfer chain.
type ChainEvent struct {
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	PID    int    `json:"pid"`
	TimeNs int64  `json:"time_ns"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
	Arg2   uint64 `json:"arg2,omitempty"`
}

// transferAcc accumulates one transfer of the run being scanned. The
// run's accumulators are a slab of values indexed by Xfer-1 (ids are
// dense from 1 in record order), reused from run to run.
type transferAcc struct {
	events int64 // 0: the id does not occur in this run
	first  int   // index of the transfer's first event in the run
	spanNs int64 // all span time attributed to the transfer
	// intrNs is the interrupt part of spanNs; nestedNs is the
	// KernelPin/KernelUnpin time inside the transfer, subtracted from
	// it so dispatch+handler time is exclusive of the pin work it wraps.
	intrNs   int64
	nestedNs int64
}

// slowTransfer is a candidate for an experiment's slowest list: enough
// to rank the transfer and to find its events again. Chains are built
// only for the topK that are reported, in a second pass over the
// winners' events.
type slowTransfer struct {
	run     int // index into runs
	label   string
	id      uint64
	latency int64
	events  int64
	first   int
}

// slower is the report order of the slowest list: latency descending,
// then run label, id and run position ascending — a total order, so
// sorting by it needs no stability.
func slower(a, b slowTransfer) int {
	if a.latency != b.latency {
		return cmp.Compare(b.latency, a.latency)
	}
	return cmp.Or(strings.Compare(a.label, b.label), cmp.Compare(a.id, b.id), cmp.Compare(a.run, b.run))
}

type expAcc struct {
	name     string
	runs     []string
	latency  Digest
	perCat   [numCategories]int64
	events   int64
	unattrib int64
	// slowest holds at least the topK slowest transfers seen so far;
	// once it has been pruned to topK, sorted, its last entry is the
	// bar a new candidate must clear.
	slowest []slowTransfer
	pruned  bool
}

// experiment derives the experiment name from a run label.
func experiment(label string) string {
	if i := strings.IndexByte(label, '/'); i >= 0 {
		return label[:i]
	}
	return label
}

// scratch is what one Analyze call works in and drops at return: the
// per-transfer table of the run being scanned and one Digest per event
// kind. Calls share it through a pool, so a caller analysing run after
// run pays for neither again.
type scratch struct {
	xfers []transferAcc
	kinds [obs.NumKinds]*Digest // nil until a run first carries the kind
}

var scratchPool obs.ScratchPool[scratch]

// maxPooledXfers caps the transfer table a pooled scratch keeps: 2.5 MB,
// above the 36–43k transfers of a t6 run at scale 1.
const maxPooledXfers = 1 << 16

// lastXfer reports the transfer id of run's last attributed event. Ids
// are dense in execution order, so it is, or is close to, the number of
// transfers the run holds.
func lastXfer(run obs.Run) uint64 {
	for i := run.Len() - 1; i >= 0; i-- {
		if id := run.At(i).Xfer; id != 0 {
			return uint64(id)
		}
	}
	return 0
}

// Analyze computes the transfer-level report over runs, keeping the
// topK slowest transfers per experiment (topK < 1 means 10). Events
// whose Kind lies outside the taxonomy (a caller-built Event can carry
// one) are counted in Report.Events and otherwise skipped.
func Analyze(runs []obs.Run, topK int) *Report {
	if topK < 1 {
		topK = 10
	}
	rep := &Report{Runs: len(runs)}

	sc := scratchPool.Get()
	defer func() {
		// A table a huge run grew is dropped rather than kept for
		// the life of the process; a paper-scale run's fits.
		if cap(sc.xfers) <= maxPooledXfers {
			scratchPool.Put(sc)
		}
	}()
	// kindDigests[k] is sc.kinds[k], zeroed, once this call has seen
	// kind k.
	var kindDigests [obs.NumKinds]*Digest
	// A report covers a handful of experiments: a slice searched by
	// name, sorted once at the end.
	exps := make([]*expAcc, 0, 8)

	for ri, run := range runs {
		name := experiment(run.Label)
		at := slices.IndexFunc(exps, func(ea *expAcc) bool { return ea.name == name })
		if at < 0 {
			at = len(exps)
			exps = append(exps, &expAcc{name: name})
		}
		ea := exps[at]
		ea.runs = append(ea.runs, run.Label)
		rep.Events += int64(run.Len())
		ea.events += int64(run.Len())

		// One accumulator per transfer id, sized up front; an id past
		// the last event's (a posted command restored out of order)
		// grows the table where it turns up.
		n := int(lastXfer(run))
		xfers := slices.Grow(sc.xfers[:0], n)[:n]
		clear(xfers)
		base := 0 // run index of the chunk's first event
		for _, chunk := range run.Chunks() {
			for i := range chunk {
				ev := &chunk[i]
				if int(ev.Kind) >= obs.NumKinds {
					continue
				}
				d := kindDigests[ev.Kind]
				if d == nil {
					d = sc.kinds[ev.Kind]
					if d == nil {
						d = new(Digest)
						sc.kinds[ev.Kind] = d
					}
					*d = Digest{}
					kindDigests[ev.Kind] = d
				}
				d.Add(int64(ev.Dur))
				if ev.Xfer == 0 {
					ea.unattrib++
					continue
				}
				if len(xfers) < int(ev.Xfer) {
					xfers = append(xfers, make([]transferAcc, int(ev.Xfer)-len(xfers))...)
				}
				t := &xfers[ev.Xfer-1]
				if t.events == 0 {
					t.first = base + i
				}
				t.events++
				if c := spanCat[ev.Kind]; c >= 0 {
					t.spanNs += int64(ev.Dur)
					if c == catInterrupt {
						t.intrNs += int64(ev.Dur)
					} else {
						ea.perCat[c] += int64(ev.Dur)
					}
					if ev.Kind == obs.KindKernelPin || ev.Kind == obs.KindKernelUnpin {
						t.nestedNs += int64(ev.Dur)
					}
				}
			}
			base += len(chunk)
		}
		sc.xfers = xfers
		for i := range xfers {
			t := &xfers[i]
			if t.events == 0 {
				continue
			}
			// Interrupt time exclusive of the kernel pin/unpin work
			// nested inside the handler (clamped: a chain recorded
			// without its enclosing interrupt must not go negative).
			intr := max(t.intrNs-t.nestedNs, 0)
			ea.perCat[catInterrupt] += intr
			c := slowTransfer{
				run: ri, label: run.Label, id: uint64(i + 1), latency: t.spanNs - t.intrNs + intr,
				events: t.events, first: t.first,
			}
			ea.latency.Add(c.latency)
			if ea.pruned && slower(c, ea.slowest[topK-1]) > 0 {
				continue
			}
			ea.slowest = append(ea.slowest, c)
			if len(ea.slowest) >= 2*topK+64 {
				slices.SortFunc(ea.slowest, slower)
				ea.slowest, ea.pruned = ea.slowest[:topK], true
			}
		}
	}

	for k := 0; k < obs.NumKinds; k++ {
		d := kindDigests[k]
		if d == nil {
			continue
		}
		rep.Kinds = append(rep.Kinds, KindStats{
			Kind:    obs.Kind(k).String(),
			Count:   d.N(),
			TotalNs: d.Sum(),
			P50Ns:   d.Quantile(50),
			P95Ns:   d.Quantile(95),
			P99Ns:   d.Quantile(99),
			MaxNs:   d.Max(),
		})
	}

	sort.Slice(exps, func(i, j int) bool { return exps[i].name < exps[j].name })
	for _, ea := range exps {
		er := ExperimentReport{
			Experiment: ea.name,
			Runs:       ea.runs,
			Transfers: TransferStats{
				Count:        ea.latency.N(),
				Events:       ea.events,
				Unattributed: ea.unattrib,
				P50Ns:        ea.latency.Quantile(50),
				P95Ns:        ea.latency.Quantile(95),
				P99Ns:        ea.latency.Quantile(99),
				MaxNs:        ea.latency.Max(),
			},
		}
		var total int64
		for _, ns := range ea.perCat {
			total += ns
		}
		for i, cat := range categories {
			ns := ea.perCat[i]
			if ns == 0 {
				continue
			}
			bp := int64(0)
			if total > 0 {
				bp = ns * 10000 / total
			}
			er.Breakdown = append(er.Breakdown, BreakdownEntry{Category: cat, Ns: ns, BasisPoints: bp})
		}
		slices.SortFunc(ea.slowest, slower)
		for _, c := range ea.slowest[:min(topK, len(ea.slowest))] {
			er.Slowest = append(er.Slowest, Transfer{
				Run:       c.label,
				ID:        c.id,
				LatencyNs: c.latency,
				Events:    chain(runs[c.run], c),
				Truncated: int(c.events - min(c.events, maxChainEvents)),
			})
		}
		rep.Experiments = append(rep.Experiments, er)
	}
	return rep
}

// chain collects the first maxChainEvents events of transfer c from
// its run, starting at the transfer's first event and stopping at its
// last (or at the cap).
func chain(run obs.Run, c slowTransfer) []ChainEvent {
	out := make([]ChainEvent, 0, min(c.events, maxChainEvents))
	for i := c.first; len(out) < cap(out); i++ {
		ev := run.At(i)
		if uint64(ev.Xfer) != c.id || int(ev.Kind) >= obs.NumKinds {
			continue
		}
		out = append(out, ChainEvent{
			Kind:   ev.Kind.String(),
			Node:   int(ev.Node),
			PID:    int(ev.PID),
			TimeNs: int64(ev.Time),
			DurNs:  int64(ev.Dur),
			Arg:    uint64(ev.Arg),
			Arg2:   uint64(ev.Arg2),
		})
	}
	return out
}
