package obs

import "io"

// Prometheus-style text export: event counters per kind plus latency
// histograms for span kinds, in the fixed log2 bucket scheme of
// prom.go — deterministic for a given event multiset regardless of run
// merge order (counter addition commutes).

// Metrics is the aggregate of one or more runs: per-kind counts, and
// per-kind duration histograms for span kinds.
type Metrics struct {
	Count [NumKinds]int64
	// Hist[k][i] counts events of kind k that land in bucket i alone:
	// 2^(BucketLow+i-1) < Dur <= 2^(BucketLow+i), with bucket 0 taking
	// everything at or below its boundary. Events above the largest
	// finite bucket land only in the implicit +Inf (HistN - sum of
	// Hist). The Prometheus export computes the cumulative
	// less-or-equal counts the format wants at write time, so
	// aggregation touches exactly one bucket per event.
	Hist   [NumKinds][NumBuckets]int64
	HistN  [NumKinds]int64 // all span events, including those beyond the last finite bucket
	SumDur [NumKinds]int64
}

// Aggregate folds all events of all runs into one Metrics. Events
// whose Kind lies outside the taxonomy (a caller-built Event can carry
// one) have no counter to land in and are skipped.
func Aggregate(runs []Run) *Metrics {
	m := &Metrics{}
	for _, run := range runs {
		for _, chunk := range run.Chunks() {
			for _, ev := range chunk {
				if int(ev.Kind) >= NumKinds {
					continue
				}
				m.Count[ev.Kind]++
				if !ev.Kind.IsSpan() {
					continue
				}
				m.SumDur[ev.Kind] += int64(ev.Dur)
				m.HistN[ev.Kind]++
				if i := BucketIndex(uint64(ev.Dur)); i < NumBuckets {
					m.Hist[ev.Kind][i]++
				}
			}
		}
	}
	return m
}

// WritePrometheus writes the metrics in Prometheus text exposition
// format. Kinds are emitted in taxonomy order; zero-count kinds are
// skipped so small runs stay readable. Output is byte-deterministic.
func WritePrometheus(w io.Writer, m *Metrics) error {
	p := NewPromWriter(w)
	p.Family("utlb_events_total", "Simulation events by kind.", "counter")
	for k := 1; k < NumKinds; k++ {
		if m.Count[k] == 0 {
			continue
		}
		meta := kindMetas[k]
		p.Int(m.Count[k], "kind", meta.name, "comp", componentNames[meta.comp])
	}
	p.Family("utlb_event_duration_ns", "Simulated duration of span events.", "histogram")
	for k := 1; k < NumKinds; k++ {
		if m.HistN[k] == 0 {
			continue
		}
		p.Histogram(&m.Hist[k], m.SumDur[k], m.HistN[k], "kind", kindMetas[k].name)
	}
	return p.Flush()
}
