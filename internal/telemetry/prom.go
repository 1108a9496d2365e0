package telemetry

import (
	"io"
	"runtime"
	"strconv"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
)

// Prometheus text export for the live sink, joined into /metrics next
// to the obs event metrics and the xlate service counters, through the
// same obs.PromWriter and in the same `le` scheme: integer counters,
// byte-deterministic output for a given state.

// WritePrometheus writes the sink's cumulative state as utlb_live_*
// metrics: per-shard slow operations, the service-wide latency
// histogram (digest buckets coarsened onto the shared log2
// boundaries), and the SLO position evaluated over the window ring at
// now. The service's counts are not here: utlb_xlate_* carries them.
// Everything timed is over the sampled requests only.
func (t *Sink) WritePrometheus(w io.Writer, now int64) error {
	p := obs.NewPromWriter(w)
	p.Family("utlb_live_slow_ops_total", "Timed shard operations over the SLO target, by shard.", "counter")
	for i := range t.shards {
		p.Int(t.shards[i].slow.Load(), "shard", strconv.Itoa(i))
	}

	// Service-wide latency histogram. A digest bucket is counted under
	// the first le boundary at or above its inclusive upper bound, so
	// every le line is a true statement about the observations in it;
	// digest buckets never straddle a power of two, so none is split.
	// Buckets are loaded before the count: observe adds to ops first,
	// so the count read afterwards is >= the sum of the buckets and a
	// scrape racing a record cannot print a bucket above +Inf.
	var hist [obs.NumBuckets]int64
	for i := range t.shards {
		s := &t.shards[i]
		for b := range s.hist {
			c := s.hist[b].Load()
			if c == 0 {
				continue
			}
			// The last digest buckets' upper bounds overflow int64;
			// they, like anything past 2^BucketHigh, are +Inf only.
			if hi := analyze.BucketValue(b+1) - 1; hi >= 0 {
				if bi := obs.BucketIndex(uint64(hi)); bi < obs.NumBuckets {
					hist[bi] += c
				}
			}
		}
	}
	var tot Totals
	for i := range t.shards {
		t.shards[i].addTo(&tot)
	}
	p.Family("utlb_live_op_duration_ns", "Latency of timed shard operations.", "histogram")
	p.Histogram(&hist, tot.SumNs, tot.Ops)

	slo := t.SLOSnapshot(now)
	p.Family("utlb_live_slo_target_p99_ns", "Latency objective (p99 target).", "gauge")
	p.Int(slo.TargetP99Ns)
	p.Family("utlb_live_slo_p99_ns", "Observed p99 over the window ring.", "gauge")
	p.Int(slo.P99Ns)
	p.Family("utlb_live_slo_budget_used", "Error budget consumed over the window ring (1.0 = spent).", "gauge")
	p.Float(slo.BudgetUsed)
	p.Family("utlb_live_slo_compliant", "Whether the service is inside its SLO (1 = yes).", "gauge")
	compliant := int64(0)
	if slo.Compliant {
		compliant = 1
	}
	p.Int(compliant)
	p.Family("utlb_live_sampled_traces_total", "Sampled request chains retained.", "counter")
	p.Int(t.SampledTraces())
	return p.Flush()
}

// WriteRuntimeMetrics writes Go runtime health next to the service
// metrics: goroutine count, heap occupancy, GC cycles and pause
// totals. These are the "is the collector itself healthy" numbers a
// live dashboard needs alongside service latency.
func WriteRuntimeMetrics(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := obs.NewPromWriter(w)
	gauge := func(name, help string, v uint64) {
		p.Family(name, help, "gauge")
		p.Uint(v)
	}
	gauge("utlb_go_goroutines", "Live goroutines.", uint64(runtime.NumGoroutine()))
	gauge("utlb_go_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc)
	gauge("utlb_go_heap_sys_bytes", "Heap memory obtained from the OS.", ms.HeapSys)
	gauge("utlb_go_heap_objects", "Live heap objects.", ms.HeapObjects)
	gauge("utlb_go_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))
	gauge("utlb_go_gc_pause_ns_total", "Cumulative GC stop-the-world pause.", ms.PauseTotalNs)
	gauge("utlb_go_next_gc_bytes", "Heap size target of the next GC cycle.", ms.NextGC)
	return p.Flush()
}
