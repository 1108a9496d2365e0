// Package utlb is a full reproduction of "UTLB: A Mechanism for
// Address Translation on Network Interfaces" (Chen, Bilas, Damianakis,
// Dubnicki, Li — ASPLOS 1998) as a simulated Myrinet PC cluster in
// pure Go.
//
// The package exposes three layers:
//
//   - A live simulated cluster running VMMC (virtual memory-mapped
//     communication) with Hierarchical-UTLB address translation:
//     build one with NewCluster, spawn processes, export/import
//     buffers, and move real bytes with Send/Fetch/Redirect while the
//     simulation charges calibrated 1998-era costs to virtual clocks.
//
//   - The trace-driven evaluation of the paper's §6: generate
//     SPLASH-2-like communication traces with GenerateTrace, run them
//     through the UTLB or the interrupt-based baseline with Simulate,
//     and read miss rates, pin/unpin counts and lookup costs from the
//     result.
//
//   - The paper's tables and figures: RunExperiment regenerates any of
//     them (see ExperimentNames), as does the utlbsim command.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package utlb

import (
	"io"
	"net/http"

	"utlb/internal/core"
	"utlb/internal/experiments"
	"utlb/internal/fault"
	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/parallel"
	"utlb/internal/serve"
	"utlb/internal/sim"
	"utlb/internal/svm"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vmmc"
	"utlb/internal/workload"
)

// Scalar types shared across the API.
type (
	// Time is simulated time in nanoseconds.
	Time = units.Time
	// VAddr is a virtual address in a process address space.
	VAddr = units.VAddr
	// NodeID identifies a cluster node.
	NodeID = units.NodeID
	// ProcID identifies a process.
	ProcID = units.ProcID
)

// PageSize is the simulated page size (4 KB, as on the paper's
// machines).
const PageSize = units.PageSize

// FromMicros converts microseconds to Time.
func FromMicros(us float64) Time { return units.FromMicros(us) }

// Cluster layer.
type (
	// Cluster is a simulated Myrinet PC cluster running VMMC with
	// UTLB address translation.
	Cluster = vmmc.Cluster
	// ClusterOptions configure NewCluster.
	ClusterOptions = vmmc.Options
	// Node is one cluster machine.
	Node = vmmc.Node
	// Proc is a process' VMMC handle: Export, Import, Send, Fetch,
	// Redirect, Unexport.
	Proc = vmmc.Proc
	// BufferID names an exported receive buffer.
	BufferID = vmmc.BufferID
	// Imported is a handle on a remote receive buffer.
	Imported = vmmc.Imported
	// FaultPlan maps fault sites to their rates and schedules; arm it
	// with NewFaultInjector and ClusterOptions.Injector.
	FaultPlan = fault.Plan
	// LibConfig selects a process' replacement policy and pre-pinning.
	LibConfig = core.LibConfig
	// PolicyKind names a replacement policy.
	PolicyKind = core.PolicyKind
)

// Replacement policies (§3.4).
const (
	LRU    = core.LRU
	MRU    = core.MRU
	LFU    = core.LFU
	MFU    = core.MFU
	Random = core.Random
)

// Fault sites a cluster arms from its injector (DESIGN.md §10).
const (
	SiteHostPin       = fault.SiteHostPin
	SiteCacheFill     = fault.SiteCacheFill
	SiteFabricDrop    = fault.SiteFabricDrop
	SiteFabricCorrupt = fault.SiteFabricCorrupt
)

// NewCluster builds a simulated cluster.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return vmmc.NewCluster(opts) }

// NewFaultInjector arms plan for one cluster: each site fires on its
// own stream drawn from seed, so the same seed and plan always break
// the same packets, pins and fills.
func NewFaultInjector(seed int64, plan FaultPlan) *fault.Injector {
	return fault.NewInjector(seed, plan)
}

// Trace-driven evaluation layer.
type (
	// Trace is a communication trace (§6's input).
	Trace = trace.Trace
	// TraceRecord is one traced operation.
	TraceRecord = trace.Record
	// SimConfig parameterises Simulate.
	SimConfig = sim.Config
	// SimResult carries measured statistics and derived rates.
	SimResult = sim.Result
	// Mechanism selects the translation design: UTLB, the interrupt
	// baseline or the per-process UTLB.
	Mechanism = sim.Mechanism
	// SimScratch is reusable per-run working memory for SimulateWith.
	SimScratch = sim.RunScratch
	// WorkloadSpec describes one of the seven applications.
	WorkloadSpec = workload.Spec
	// WorkloadConfig parameterises trace generation.
	WorkloadConfig = workload.Config
)

// Mechanisms.
const (
	UTLB       = sim.UTLB
	Interrupt  = sim.Interrupt
	PerProcess = sim.PerProcess
)

// DefaultSimConfig is the paper's baseline configuration: 8 K entry
// direct-mapped cache with index offsetting, no prefetch, LRU,
// infinite memory.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs a trace through the configured mechanism. The config
// is validated (start from DefaultSimConfig and override fields); an
// invalid config — including the zero value — is an error rather than
// a silent substitution of defaults.
func Simulate(tr Trace, cfg SimConfig) (SimResult, error) { return sim.Run(tr, cfg) }

// NewSimScratch allocates reusable working memory for SimulateWith.
func NewSimScratch() *SimScratch { return sim.NewRunScratch() }

// SimulateWith is Simulate with caller-owned scratch memory: repeated
// runs through the same scratch reuse the cache storage, host memory
// and library state instead of reallocating them, and a trace run
// before is not prepared (sorted, surveyed, its stack distances
// taken) again. Results are
// identical to Simulate's. The scratch must not be shared between
// concurrent runs. Simulate itself draws scratch from a pool, so
// SimulateWith matters when the caller wants a deterministic
// allocation profile (the pool can be drained by GC at any time).
func SimulateWith(tr Trace, cfg SimConfig, scr *SimScratch) (SimResult, error) {
	return sim.RunWith(tr, cfg, scr)
}

// Workloads lists the seven SPLASH-2-like application specs in the
// paper's Table 3 order.
func Workloads() []*WorkloadSpec { return workload.Specs() }

// WorkloadByName returns the named application spec.
func WorkloadByName(name string) (*WorkloadSpec, error) { return workload.ByName(name) }

// GenerateBulkTrace produces the multi-page bulk-transfer workload
// (1-16 pages per operation) that the batched translation path
// amortises over; see SimConfig.BatchPages and the batchsweep
// experiment.
func GenerateBulkTrace(node NodeID, firstPID ProcID, seed int64, scale float64) Trace {
	return workload.BulkTransfer(node, firstPID, seed, scale)
}

// GenerateTrace produces one node's communication trace for the named
// application at the given scale (1.0 = the paper's size).
func GenerateTrace(app string, seed int64, scale float64) (Trace, error) {
	spec, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	if err := spec.CheckScale(scale); err != nil {
		return nil, err
	}
	return spec.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: seed, Scale: scale}), nil
}

// ReadTrace and WriteTrace (de)serialise traces in the binary format.
func ReadTrace(r io.Reader) (Trace, error)       { return trace.ReadBinary(r) }
func WriteTrace(w io.Writer, tr Trace) error     { return trace.WriteBinary(w, tr) }
func ReadTraceText(r io.Reader) (Trace, error)   { return trace.ReadText(r) }
func WriteTraceText(w io.Writer, tr Trace) error { return trace.WriteText(w, tr) }

// Shared-virtual-memory layer: the home-based lazy-release-consistency
// protocol the paper's traces were captured under, runnable on the
// simulated cluster. SVM kernels (Jacobi, transpose, lock reductions)
// both exercise the UTLB end to end and capture paper-style traces.
type (
	// SVM is a home-based LRC shared-memory system over the cluster.
	SVM = svm.System
	// SVMConfig parameterises NewSVM.
	SVMConfig = svm.Config
	// SVMPeer is one SVM process.
	SVMPeer = svm.Peer
)

// NewSVM builds an SVM system on a fresh simulated cluster.
func NewSVM(cfg SVMConfig) (*SVM, error) { return svm.New(cfg) }

// RunJacobi executes a Jacobi relaxation kernel over SVM (see
// svm.RunJacobi); JacobiSerial and JacobiResult support verification.
func RunJacobi(s *SVM, n, iters int) error { return svm.RunJacobi(s, n, iters) }

// JacobiSerial computes the reference result sequentially.
func JacobiSerial(n, iters int) []uint32 { return svm.JacobiSerial(n, iters) }

// JacobiResult reads back the final generation of a RunJacobi run.
func JacobiResult(s *SVM, n, iters int) ([]uint32, error) { return svm.JacobiResult(s, n, iters) }

// RunTranspose executes a strided matrix-transpose kernel over SVM.
func RunTranspose(s *SVM, n int) error { return svm.RunTranspose(s, n) }

// RunSumReduce executes a lock-based reduction kernel over SVM.
func RunSumReduce(s *SVM, n int) (uint32, error) { return svm.RunSumReduce(s, n) }

// Observability layer: typed event recording across every simulation
// component, with Chrome-trace and Prometheus-text exporters. Attach a
// Recorder via SimConfig.Recorder or ClusterOptions.Recorder (single
// runs), or an EventCollector via ExperimentOptions.Obs (experiment
// sweeps, one labelled buffer per run, deterministic merge).
type (
	// Recorder receives simulation events; nil disables recording at
	// zero cost.
	Recorder = obs.Recorder
	// Event is one recorded occurrence (see obs.Kind for the taxonomy).
	Event = obs.Event
	// EventKind says what happened.
	EventKind = obs.Kind
	// EventBuffer is the buffered single-run Recorder.
	EventBuffer = obs.Buffer
	// EventCollector hands out per-run buffers and merges them
	// deterministically (sorted by label, independent of scheduling).
	EventCollector = obs.Collector
	// EventRun is one labelled event stream, the exporters' input unit:
	// Len events, read in order by ranging over Chunks or singly with At.
	EventRun = obs.Run
)

// NewEventBuffer returns an empty single-run event buffer.
func NewEventBuffer(label string) *EventBuffer { return obs.NewBuffer(label) }

// NewEventRun returns the run of events, which it keeps and does not
// copy: for events that did not come out of an EventBuffer, whose Run
// method shares its storage with the run the same way.
func NewEventRun(label string, events []Event) EventRun { return obs.NewRun(label, events) }

// NewEventCollector returns an empty collector for concurrent runs.
func NewEventCollector() *EventCollector { return obs.NewCollector() }

// WriteChromeTrace writes runs as Chrome trace_event JSON, loadable in
// Perfetto or chrome://tracing. Byte-deterministic.
func WriteChromeTrace(w io.Writer, runs []EventRun) error { return obs.WriteChromeTrace(w, runs) }

// WriteMetrics aggregates runs and writes Prometheus-style text
// metrics: per-kind event counters and log-scale latency histograms
// for span kinds. Byte-deterministic.
func WriteMetrics(w io.Writer, runs []EventRun) error {
	return obs.WritePrometheus(w, obs.Aggregate(runs))
}

// AnalysisReport is the transfer-level latency analysis: per-kind
// duration percentiles, a per-experiment critical-path breakdown
// (check vs probe vs DMA vs pin vs interrupt time), and the slowest
// transfers with their event chains.
type AnalysisReport = analyze.Report

// AnalyzeEvents computes the transfer-level report over runs, keeping
// the topK slowest transfers per experiment (topK < 1 means 10). Pure
// function of its input: byte-stable at any parallelism.
func AnalyzeEvents(runs []EventRun, topK int) *AnalysisReport {
	return analyze.Analyze(runs, topK)
}

// WriteAnalysis analyzes runs and writes the report as indented JSON.
func WriteAnalysis(w io.Writer, runs []EventRun, topK int) error {
	return analyze.WriteJSON(w, analyze.Analyze(runs, topK))
}

// NewObservabilityHandler returns the live observability HTTP handler
// behind `utlbsim serve`: /metrics, /api/runs, /api/runs/{slug}/trace,
// /api/analyze and /debug/pprof/, with experiments run on demand from
// query parameters.
func NewObservabilityHandler() http.Handler { return serve.New().Handler() }

// Experiment layer.

// ExperimentOptions tune experiment execution.
type ExperimentOptions = experiments.Options

// SetParallelism fixes the process-wide worker-pool width used by the
// experiment engine (cmd/utlbsim's -parallel flag). 1 runs every
// experiment loop strictly sequentially; n <= 0 resets to GOMAXPROCS.
// Results are byte-identical at any width.
func SetParallelism(n int) { parallel.SetWorkers(n) }

// Parallelism reports the effective worker-pool width.
func Parallelism() int { return parallel.Workers() }

// ExperimentNames lists every reproducible table and figure.
func ExperimentNames() []string { return append([]string(nil), experiments.Names...) }

// RunExperiment regenerates the named table or figure, writing its
// text rendering to w.
func RunExperiment(name string, opts ExperimentOptions, w io.Writer) error {
	return experiments.Run(name, opts, w)
}

// RunAllExperiments regenerates the full evaluation.
func RunAllExperiments(opts ExperimentOptions, w io.Writer) error {
	return experiments.RunAll(opts, w)
}
