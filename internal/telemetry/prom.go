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
// histogram (the shards' Digests merged, on the shared log2 le
// boundaries), and the SLO position evaluated over the window ring at
// now. The service's counts are not here: utlb_xlate_* carries them.
// Everything timed is over the sampled requests only.
func (t *Sink) WritePrometheus(w io.Writer, now int64) error {
	t.mu.Lock()
	slow := make([]int64, len(t.shards))
	var all analyze.Digest
	for i := range t.shards {
		slow[i] = t.shards[i].slow
		all.Merge(&t.shards[i].d)
	}
	t.mu.Unlock()

	p := obs.NewPromWriter(w)
	p.Family("utlb_live_slow_ops_total", "Timed shard operations over the SLO target, by shard.", "counter")
	for i, n := range slow {
		p.Int(n, "shard", strconv.Itoa(i))
	}
	p.Family("utlb_live_op_duration_ns", "Latency of timed shard operations.", "histogram")
	le := all.PromBuckets()
	p.Histogram(&le, all.Sum(), all.N())

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
