package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// sizes are the fixed op counts of one repetition and the input
// scales. They are constants of the benchmark, not knobs: a repetition
// does the same work on every run, so program-made counts (allocations
// per request, simulated time, hit ratios) repeat exactly. Sized so a
// quiet repetition takes about a second on the 2-CPU reference box.
type sizes struct {
	paperScale    float64 // Table-3 apps
	paperPasses   int     // passes over the 14 (app, mechanism) jobs
	bulkScale     float64 // BulkTransfer for sim_overlap
	overlapRuns   int
	recScale      float64 // fft/barnes/bulk for sim_recorded
	recPasses     int     // passes over the 5 recorded jobs
	httpReqs      int     // requests per client
	inprocBatches int     // LookupMany batches per goroutine
	mixedBatches  int     // lookup+fill batches per goroutine
	poolBatches   int     // distinct batches in a client's key pool
	setups        int     // set-ups timed per run (setup_s is their median)
	reps          int     // timed repetitions in full mode
	probeSlice    time.Duration
	runAllScale   float64
}

var defaultSizes = sizes{
	paperScale: 1.0, paperPasses: 6,
	bulkScale: 1.0, overlapRuns: 24,
	recScale: 0.25, recPasses: 2,
	httpReqs: 4000, inprocBatches: 100000, mixedBatches: 40000,
	poolBatches: 4096, setups: 5, reps: 9,
	probeSlice: 12500 * time.Microsecond, runAllScale: 0.25,
}

// quickSizes is the smoke configuration bench_test.go uses: every code
// path, every check, a few seconds in total.
var quickSizes = sizes{
	paperScale: 0.03, paperPasses: 1,
	bulkScale: 0.05, overlapRuns: 2,
	recScale: 0.03, recPasses: 1,
	httpReqs: 60, inprocBatches: 500, mixedBatches: 4200,
	poolBatches: 64, setups: 1, reps: 1,
	probeSlice: 200 * time.Microsecond, runAllScale: 0.02,
}

// reduced is the op count of the traced pass: enough requests for a
// median, few enough that the span buffer stays small.
func (s sizes) reduced() sizes {
	r := s
	r.paperPasses = 1
	r.overlapRuns = max(2, s.overlapRuns/8)
	r.recPasses = 1
	r.httpReqs = max(50, s.httpReqs/4)
	r.inprocBatches = max(200, s.inprocBatches/50)
	r.mixedBatches = max(200, s.mixedBatches/20)
	r.setups = 1
	return r
}

// repCounts is what a workload counted during one repetition.
type repCounts struct {
	requests int64
	failed   int64
	lookups  int64
	// simNs and simLookups are the simulated makespan and lookups the
	// repetition covered (sim workloads only): Table 6's quantity.
	simNs      int64
	simLookups int64
}

// repSample is one timed repetition as measured from outside.
type repSample struct {
	repCounts
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	p50ns   float64
	p99ns   float64
	beyond  int // samples slower than the p99 sample
}

// instance is a set-up workload: rep runs the fixed op count once in a
// closed loop and reports counts; the request latencies of that
// repetition stay in buffers the instance owns.
type instance interface {
	rep(tr *tracer) repCounts
	latencies() []int64
	// totals are cumulative over the instance's life, set-up's
	// verified pass included.
	totals() (attempted, failed int64)
	failure() string // the first failed check, for the report
	// paperErr is paper_err_pct, for the one workload whose set-up
	// scores the model against the paper.
	paperErr() (pct float64, ok bool)
	close()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureRep times one repetition. The collection before it puts every
// repetition at the same heap state; MemStats are read outside the
// timed region.
func measureRep(inst instance, tr *tracer) repSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	counts := inst.rep(tr)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s := repSample{
		repCounts: counts,
		wall:      wall,
		cpu:       cpu,
		mallocs:   m1.Mallocs - m0.Mallocs,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
	}
	lat := inst.latencies()
	slices.Sort(lat)
	s.p50ns = float64(percentile(lat, 50))
	i99 := percentileIndex(len(lat), 99)
	s.p99ns = float64(lat[i99])
	s.beyond = len(lat) - 1 - i99
	return s
}

// percentileIndex is the nearest-rank index of percentile p in n
// sorted samples.
func percentileIndex(n, p int) int {
	i := (n*p + 99) / 100
	return min(max(i, 1), n) - 1
}

func percentile(sorted []int64, p int) int64 {
	return sorted[percentileIndex(len(sorted), p)]
}

// timeNs is fn's wall time in nanoseconds.
func timeNs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds())
}

// metric is one reported number. Value is the estimator's pick; the
// rest is the spread it was picked from. Raw, on a time or rate
// metric, is the pick before the machine-speed index was applied.
type metric struct {
	Value   float64   `json:"value"`
	Raw     float64   `json:"raw,omitempty"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// quietQuartile picks the estimate from repeated measurements of the
// same work: the 3rd best of 9 — p25 of a lower-is-better metric, p75
// of a higher-is-better one. Interference on a shared box only ever
// slows a repetition, so the quiet side of the distribution is the
// program and the noisy side is the neighbours; the best single value
// would chase luck, the quartile has two repetitions agreeing with it.
func quietQuartile(samples []float64, lowerBetter bool) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	if !lowerBetter {
		slices.Reverse(s)
	}
	return s[int(math.Round(float64(len(s)-1)*0.25))]
}

func median(samples []float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(samples []float64, unit string, value float64) metric {
	return metric{
		Value: value, Unit: unit, Median: median(samples),
		Min: slices.Min(samples), Max: slices.Max(samples),
		N: len(samples), Samples: samples,
	}
}

// summarizeAt is summarize with every sample first brought to machine
// index 1.0; Raw keeps the estimator's pick as the clock read it.
func summarizeAt(samples []float64, unit string, kind metricKind, index float64, pick func([]float64) float64) metric {
	raw := pick(samples)
	if kind == isCount {
		return summarize(samples, unit, raw)
	}
	at := make([]float64, len(samples))
	for i, v := range samples {
		at[i] = kind.atIndex(v, index)
	}
	m := summarize(at, unit, kind.atIndex(raw, index))
	m.Raw = raw
	return m
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread -compare and the acceptance check
// hold against a metric's bound. Fewer than four samples have no
// quartiles; the full range stands in.
func iqrShare(samples []float64) float64 {
	m := median(samples)
	if m == 0 {
		return 0
	}
	if len(samples) < 4 {
		return math.Abs((slices.Max(samples) - slices.Min(samples)) / m)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	q := func(p float64) float64 { // the exclusive method statistics.quantiles uses
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return math.Abs((q(0.75) - q(0.25)) / m)
}

// e2eDef is one end-to-end metric: how a repetition yields it.
type e2eDef struct {
	name        string
	unit        string
	lowerBetter bool
	// universal metrics are emitted by every workload, so
	// BENCHMARK.json may declare (and the driver bound) them.
	universal bool
	// kind says how the machine-speed index applies.
	kind  metricKind
	value func(s *repSample) (float64, bool)
}

type metricKind int

const (
	isCount metricKind = iota // program-made, not the clock's: untouched
	isTime                    // divided by the index
	isRate                    // multiplied by the index
)

// atIndex reports v as it would read on a machine at index 1.0.
func (k metricKind) atIndex(v, index float64) float64 {
	switch k {
	case isTime:
		return v / index
	case isRate:
		return v * index
	}
	return v
}

func (d *e2eDef) better() string {
	if d.lowerBetter {
		return "lower"
	}
	return "higher"
}

var endToEnd = []e2eDef{
	{name: "lookups_per_s", unit: "1/s", universal: true, kind: isRate,
		value: func(s *repSample) (float64, bool) { return float64(s.lookups) / s.wall.Seconds(), true }},
	{name: "req_p50_us", unit: "us", lowerBetter: true, universal: true, kind: isTime,
		value: func(s *repSample) (float64, bool) { return s.p50ns / 1e3, true }},
	{name: "req_p99_us", unit: "us", lowerBetter: true, universal: true, kind: isTime,
		value: func(s *repSample) (float64, bool) { return s.p99ns / 1e3, true }},
	{name: "cpu_us_per_req", unit: "us", lowerBetter: true, universal: true, kind: isTime,
		value: func(s *repSample) (float64, bool) {
			return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.requests), true
		}},
	{name: "allocs_per_req", unit: "count", lowerBetter: true, universal: true,
		value: func(s *repSample) (float64, bool) { return float64(s.mallocs) / float64(s.requests), true }},
	{name: "bytes_per_req", unit: "B", lowerBetter: true, universal: true,
		value: func(s *repSample) (float64, bool) { return float64(s.bytes) / float64(s.requests), true }},
	{name: "sim_ns_per_lookup", unit: "ns", lowerBetter: true,
		value: func(s *repSample) (float64, bool) {
			if s.simLookups == 0 {
				return 0, false
			}
			return float64(s.simNs) / float64(s.simLookups), true
		}},
}

// Metrics that do not come from a repetition: set-up time, the
// failure share over the whole run, and the model's error against the
// paper, which set-up computes.
const (
	metricSetup     = "setup_s"
	metricFailed    = "failed_share"
	metricPaperErr  = "paper_err_pct"
	metricSimNs     = "sim_ns_per_lookup"
	metricP99       = "req_p99_us"
	metricP50       = "req_p50_us"
	metricLookupsPS = "lookups_per_s"
)

func endToEndByName(name string) *e2eDef {
	for i := range endToEnd {
		if endToEnd[i].name == name {
			return &endToEnd[i]
		}
	}
	if name == metricSetup {
		return &e2eDef{name: metricSetup, unit: "s", lowerBetter: true, universal: true, kind: isTime}
	}
	return nil
}
