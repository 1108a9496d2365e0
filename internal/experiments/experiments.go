// Package experiments regenerates every table and figure of the
// paper's evaluation (§5-§6). Each experiment returns renderable text
// via internal/stats; cmd/utlbsim and bench_test.go are thin shells
// around this package. DESIGN.md carries the experiment-to-module
// index; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"utlb/internal/obs"
	"utlb/internal/parallel"
	"utlb/internal/stats"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// Options tune experiment execution.
type Options struct {
	// Scale shrinks the workload traces (1.0 = the paper's size).
	Scale float64
	// Seed drives workload generation and randomised policies.
	Seed int64
	// Apps restricts the application set (nil = all seven).
	Apps []string
	// Nodes is how many cluster nodes to simulate and average over
	// (the paper runs four and reports per-node averages). Default 1.
	Nodes int
	// Obs, when non-nil, collects the event timeline of every
	// simulation run. Each run records into its own deterministically
	// labelled buffer (experiment/app/config/node), so the merged
	// export is byte-identical at any -parallel width.
	Obs *obs.Collector
	// Fault parameterises the chaos experiment's deterministic fault
	// injection (see chaos.go); the zero value selects the defaults.
	Fault FaultOptions
}

// DefaultOptions runs the full paper-scale evaluation.
func DefaultOptions() Options { return Options{Scale: 1.0, Seed: 1998} }

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

func (o Options) nodes() int {
	if o.Nodes <= 0 {
		return 1
	}
	return o.Nodes
}

func (o Options) apps() []string {
	if len(o.Apps) == 0 {
		return workload.Names()
	}
	return o.Apps
}

// recorderFor returns the collector buffer for one simulation run, or
// nil (recording disabled) when no collector is attached. The label
// must be deterministic and unique per run: concurrent runs append to
// separate buffers, and the collector merges them in label order.
func (o Options) recorderFor(label string) obs.Recorder {
	if o.Obs == nil {
		return nil
	}
	return o.Obs.Buffer(label)
}

// traceFor returns app's node-0 trace, memoised in the process-wide
// workload trace store (shared across experiments and goroutines; the
// trace must be treated as read-only).
func (o Options) traceFor(app string) (trace.Trace, error) {
	spec, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	return spec.GenerateCached(workload.Config{
		Node: 0, FirstPID: 1, Seed: o.Seed, Scale: o.scale(),
	}), nil
}

// nodeTracesFor returns one trace per simulated node (distinct seeds,
// globally unique PIDs), each memoised in the workload trace store.
// Node 0's trace is the same store entry traceFor returns.
func (o Options) nodeTracesFor(app string) ([]trace.Trace, error) {
	spec, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	return parallel.Map(o.nodes(), func(n int) (trace.Trace, error) {
		return spec.GenerateCached(workload.Config{
			Node:     units.NodeID(n),
			FirstPID: units.ProcID(1 + n*workload.ProcsPerNode),
			Seed:     o.Seed + int64(n)*7919,
			Scale:    o.scale(),
		}), nil
	})
}

// avgOver runs f on every node trace of app and averages the returned
// rates element-wise — "all the numbers are averaged over the total
// number of lookups ... on each node" (§6.2). The per-node runs are
// independent simulations, so they fan out through the worker pool;
// summation stays in node order, so the float result is bit-identical
// to the sequential loop's.
func (o Options) avgOver(app string, f func(node int, tr trace.Trace) ([]float64, error)) ([]float64, error) {
	trs, err := o.nodeTracesFor(app)
	if err != nil {
		return nil, err
	}
	perNode, err := parallel.Map(len(trs), func(n int) ([]float64, error) {
		return f(n, trs[n])
	})
	if err != nil {
		return nil, err
	}
	var sum []float64
	for _, vals := range perNode {
		if sum == nil {
			sum = make([]float64, len(vals))
		}
		for i, v := range vals {
			sum[i] += v
		}
	}
	for i := range sum {
		sum[i] /= float64(len(trs))
	}
	return sum, nil
}

// table is the experiment set, written once: canonical name, shorthand
// alias (t1-t8, f7-f8; "" = none) and what to run, in paper order — the
// ablations extend the paper's own future-work list. Names, Canonical,
// Known and Run all read it.
var table = []struct {
	name, alias string
	run         func(Options) ([]stringer, error)
}{
	{"table1", "t1", func(Options) ([]stringer, error) { return []stringer{Table1()}, nil }},
	{"table2", "t2", func(Options) ([]stringer, error) { return []stringer{Table2()}, nil }},
	{"table3", "t3", one(Table3)},
	{"table4", "t4", one(Table4)},
	{"table5", "t5", one(Table5)},
	{"table6", "t6", one(Table6)},
	{"table7", "t7", one(Table7)},
	{"table8", "t8", one(Table8)},
	{"fig7", "f7", one(Fig7)},
	{"fig8", "f8", func(opts Options) ([]stringer, error) {
		miss, cost, err := Fig8(opts)
		return []stringer{miss, cost}, err
	}},
	{"ablation-policies", "", one(AblationPolicies)},
	{"ablation-perprocess", "", one(AblationPerProcess)},
	{"ablation-multiprog", "", one(AblationMultiprog)},
	{"batchsweep", "", one(BatchSweep)},
	{"svm-pipeline", "", one(SVMPipeline)},
	{"chaos", "", one(Chaos)},
	{"overlap", "", one(Overlap)},
}

// one adapts an experiment that renders as a single table.
func one(f func(Options) (*stats.Table, error)) func(Options) ([]stringer, error) {
	return func(opts Options) ([]stringer, error) {
		out, err := f(opts)
		return []stringer{out}, err
	}
}

// Names lists the experiments by canonical name, in paper order.
var Names = func() []string {
	names := make([]string, len(table))
	for i := range table {
		names[i] = table[i].name
	}
	return names
}()

// find returns the index in table of the experiment name names,
// canonically or by alias, or -1.
func find(name string) int {
	for i := range table {
		if name == table[i].name || (name != "" && name == table[i].alias) {
			return i
		}
	}
	return -1
}

// Canonical resolves an experiment name or shorthand alias; a name it
// does not know is returned as is.
func Canonical(name string) string {
	if i := find(name); i >= 0 {
		return table[i].name
	}
	return name
}

// Known reports whether name, canonical or alias, is an experiment.
func Known(name string) bool { return find(name) >= 0 }

// Run executes the named experiment (canonical name or t1-t8/f7-f8
// shorthand) and writes its rendering to w.
func Run(name string, opts Options, w io.Writer) error {
	i := find(name)
	if i < 0 {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
	outs, err := table[i].run(opts)
	if err != nil {
		return err
	}
	for _, out := range outs {
		if err := render(w, out); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes every experiment. The experiments are independent
// computations, so each renders into its own buffer on the worker
// pool; the buffers are written to w in paper order, making the output
// byte-identical to a sequential run.
func RunAll(opts Options, w io.Writer) error {
	outs, err := parallel.Map(len(Names), func(i int) ([]byte, error) {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "=== %s ===\n", Names[i])
		if err := Run(Names[i], opts, &buf); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", Names[i], err)
		}
		fmt.Fprintln(&buf)
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	for _, out := range outs {
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	return nil
}

type stringer interface{ String() string }

func render(w io.Writer, s stringer) error {
	_, err := io.WriteString(w, s.String())
	return err
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
