package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// workloadDef is one workload the benchmark can run. setup builds the
// inputs from the seed, starts what must be started, and runs a first
// verified pass; tr, when non-nil, records set-up's spans.
type workloadDef struct {
	name  string
	setup func(seed int64, sz sizes, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	{"sim_paper", setupSimPaper},
	{"sim_overlap", setupSimOverlap},
	{"sim_recorded", setupSimRecorded},
	{"svc_http_lookup", setupHTTPLookup},
	{"svc_inproc_lookup", setupInprocLookup},
	{"svc_inproc_mixed", setupInprocMixed},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type options struct {
	seed   int64
	budget time.Duration // driver mode: how long to measure
	traced bool
	sz     sizes
	out    string
	spans  string // where the traced pass writes its spans
}

// environment is the result file's record of where it was measured.
type environment struct {
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	Seed        int64          `json:"seed"`
	Repetitions int            `json:"repetitions"`
	OpCounts    map[string]int `json:"op_counts"`
}

func newEnvironment(opt options, reps int) environment {
	sz := opt.sz
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Seed: opt.seed, Repetitions: reps,
		OpCounts: map[string]int{
			"sim_paper.passes": sz.paperPasses, "sim_overlap.runs": sz.overlapRuns,
			"sim_recorded.passes": sz.recPasses, "svc_http_lookup.requests_per_client": sz.httpReqs,
			"svc_inproc_lookup.batches_per_goroutine": sz.inprocBatches,
			"svc_inproc_mixed.batches_per_goroutine":  sz.mixedBatches,
			"clients":                                 clients, "batch_keys": batchKeys,
		},
	}
}

// workloadResult is one workload's end-to-end metrics.
type workloadResult struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Requests  int64  `json:"requests_per_repetition"`
	P99Beyond int    `json:"samples_beyond_p99"`
	// MachineIndex is the run's machine-speed index (calib.go): time
	// and rate metrics are reported at index 1.0.
	MachineIndex float64           `json:"machine_index"`
	Failure      string            `json:"first_failure,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
}

// result is the result file.
type result struct {
	Env       environment       `json:"env"`
	Workloads []workloadResult  `json:"workloads"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

func (r *result) failed() int64 {
	var n int64
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func (r *result) attempted() int64 {
	var n int64
	for _, w := range r.Workloads {
		n += w.Attempted
	}
	return n
}

// validate holds a result file to the same name and count limits as
// BENCHMARK.json.
func (r *result) validate() error {
	if len(r.Workloads) > maxWorkloads {
		return fmt.Errorf("%d workloads (limit %d)", len(r.Workloads), maxWorkloads)
	}
	for _, w := range r.Workloads {
		if !nameRE.MatchString(w.Name) {
			return fmt.Errorf("workload name %q does not match %s", w.Name, nameRE)
		}
		if len(w.Metrics) > maxEndToEnd {
			return fmt.Errorf("%s: %d end-to-end metrics (limit %d)", w.Name, len(w.Metrics), maxEndToEnd)
		}
		for name, m := range w.Metrics {
			if !nameRE.MatchString(name) {
				return fmt.Errorf("%s: metric name %q does not match %s", w.Name, name, nameRE)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return fmt.Errorf("%s: metric %s is %v", w.Name, name, m.Value)
			}
		}
	}
	if len(r.Layers) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics (limit %d)", len(r.Layers), maxPerLayer)
	}
	for name, m := range r.Layers {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("per-layer metric name %q does not match %s", name, nameRE)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("per-layer metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// save validates the result and, given a path, writes the result file.
func (r *result) save(path string) error {
	if err := r.validate(); err != nil || path == "" {
		return err
	}
	return r.writeFile(path)
}

func (r *result) writeFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runner carries one workload through set-up, warm-up and its timed
// repetitions.
type runner struct {
	def    *workloadDef
	inst   instance
	setups []float64
	reps   []repSample
	cal    calibrator
}

// setup times opt.sz.setups set-ups and keeps the last instance. Each
// starts from a collected heap so they are comparable.
func (r *runner) setup(opt options) error {
	for i := 0; i < opt.sz.setups; i++ {
		if r.inst != nil {
			r.inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		inst, err := r.def.setup(opt.seed, opt.sz, nil)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", r.def.name, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		r.inst = inst
		r.cal.sample()
	}
	return nil
}

func (r *runner) timedRep() {
	r.reps = append(r.reps, measureRep(r.inst, nil))
	r.cal.sample()
}

// finish turns the repetitions into the workload's metrics.
func (r *runner) finish() workloadResult {
	res := workloadResult{Name: r.def.name, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = r.inst.totals()
	res.Failure = r.inst.failure()
	res.MachineIndex = r.cal.index()
	for i := range endToEnd {
		d := &endToEnd[i]
		var samples []float64
		for j := range r.reps {
			if v, ok := d.value(&r.reps[j]); ok {
				samples = append(samples, v)
			}
		}
		if len(samples) > 0 {
			res.Metrics[d.name] = summarizeAt(samples, d.unit, d.kind, res.MachineIndex,
				func(s []float64) float64 { return quietQuartile(s, d.lowerBetter) })
		}
	}
	if len(r.reps) > 0 {
		res.Requests = r.reps[0].requests
		res.P99Beyond = r.reps[0].beyond
	}
	res.Metrics[metricSetup] = summarizeAt(r.setups, "s", isTime, res.MachineIndex, median)
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Metrics[metricFailed] = summarize([]float64{share}, "ratio", share)
	if pct, ok := r.inst.paperErr(); ok {
		res.Metrics[metricPaperErr] = summarize([]float64{pct}, "%", pct)
	}
	return res
}

// metricOrder is the order the report prints a workload's metrics in.
var metricOrder = []string{
	metricLookupsPS, metricP50, metricP99, "cpu_us_per_req", "allocs_per_req", "bytes_per_req",
	metricFailed, metricSetup, metricSimNs, metricPaperErr,
}

func printWorkload(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d repetitions x %d requests, %d samples beyond p99, machine index %.3f ==\n",
		res.Name, res.Metrics[metricLookupsPS].N, res.Requests, res.P99Beyond, res.MachineIndex)
	fmt.Fprintf(w, "  %-18s %14s %-6s %14s %14s %14s %3s %14s\n", "metric", "value", "unit", "median", "min", "max", "n", "raw value")
	for _, name := range metricOrder {
		m, ok := res.Metrics[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-18s %14.6g %-6s %14.6g %14.6g %14.6g %3d", name, m.Value, m.Unit, m.Median, m.Min, m.Max, m.N)
		if m.Raw != 0 {
			fmt.Fprintf(w, " %14.6g", m.Raw)
		}
		fmt.Fprintln(w)
	}
	if res.Failure != "" {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", res.Failure)
	}
}

// driverLine is the one JSON object driver mode ends with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver runs one workload the way the benchmark's driver asks:
// set-up, one discarded warm-up repetition, timed repetitions until the
// budget is spent, and a last line of JSON holding every declared
// end-to-end metric — or, traced, every declared per-layer metric.
func runDriver(w io.Writer, spec *benchSpec, name string, opt options) (*result, error) {
	def := workloadByName(name)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	line := driverLine{Metrics: map[string]driverValue{}}
	var res *result
	if opt.traced {
		var err error
		if res, err = runTraced(w, opt); err != nil {
			return nil, err
		}
		for _, d := range spec.PerLayer {
			m, ok := res.Layers[d.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s is declared but was not measured", d.Name)
			}
			line.Metrics[d.Name] = driverValue{m.Value, m.Unit}
		}
	} else {
		r := &runner{def: def}
		if err := r.setup(opt); err != nil {
			return nil, err
		}
		defer r.inst.close()
		measureRep(r.inst, nil) // warm-up
		start := time.Now()
		for len(r.reps) < min(3, opt.sz.reps) || time.Since(start) < opt.budget {
			r.timedRep()
		}
		wr := r.finish()
		printWorkload(w, wr)
		res = &result{Env: newEnvironment(opt, len(r.reps)), Workloads: []workloadResult{wr}}
		for _, d := range spec.EndToEnd {
			m := wr.Metrics[d.Name]
			line.Metrics[d.Name] = driverValue{m.Value, m.Unit}
		}
	}
	if err := res.save(opt.out); err != nil {
		return nil, err
	}
	line.Attempted, line.Failed = res.attempted(), res.failed()
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", data)
	return res, nil
}

// runFull runs every workload round-robin: one discarded warm-up cycle,
// then opt.sz.reps timed cycles, so slow minutes on a shared box spread
// over all workloads instead of landing on one.
func runFull(w io.Writer, spec *benchSpec, opt options) (*result, error) {
	runners := make([]*runner, len(workloads))
	for i := range workloads {
		runners[i] = &runner{def: &workloads[i]}
		if err := runners[i].setup(opt); err != nil {
			return nil, err
		}
		defer runners[i].inst.close()
	}
	for cycle := 0; cycle <= opt.sz.reps; cycle++ {
		for _, r := range runners {
			if cycle == 0 {
				measureRep(r.inst, nil)
			} else {
				r.timedRep()
			}
		}
	}
	res := &result{Env: newEnvironment(opt, opt.sz.reps)}
	for _, r := range runners {
		wr := r.finish()
		printWorkload(w, wr)
		res.Workloads = append(res.Workloads, wr)
	}
	if opt.traced {
		traced, err := runTraced(w, opt)
		if err != nil {
			return nil, err
		}
		res.Layers = traced.Layers
		res.Workloads = append(res.Workloads, traced.Workloads...)
	}
	return res, res.save(opt.out)
}
