// Package experiments regenerates every table and figure of the
// paper's evaluation (§5-§6). Each experiment returns renderable text
// via internal/stats; cmd/utlbsim is a thin shell around this package.
// DESIGN.md carries the experiment-to-module index; EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"utlb/internal/obs"
	"utlb/internal/parallel"
	"utlb/internal/sim"
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
	// FaultSeed drives every fault point's PRNG in the chaos
	// experiment (0 = derived from Seed). For a fixed seed its output
	// is byte-identical at any -parallel width.
	FaultSeed int64
}

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

// recorderFor returns the collector buffer for the run labelled label,
// or nil (recording disabled) when no collector is attached.
func (o Options) recorderFor(label string) obs.Recorder {
	if o.Obs == nil {
		return nil
	}
	return o.Obs.Buffer(label)
}

// cell is one simulation run of a sweep. A sweep is nested loops that
// append cells in row-major order, one runCells, and a renderer that
// walks the results with the same loops.
type cell struct {
	// label names the run's recorder buffer: deterministic and unique
	// per run, because the collector merges buffers in label order.
	label string
	// trace yields the trace to replay; it runs on the worker pool, so
	// generation is not serialised behind cell building.
	trace func() (trace.Trace, error)
	cfg   sim.Config
}

// config is the paper's default configuration under this invocation's
// seed; sweeps override the fields they vary.
func (o Options) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = o.Seed
	return cfg
}

// appTrace names app's trace on node (distinct seeds and globally
// unique PIDs per node), memoised in the process-wide workload trace
// store: shared across experiments and goroutines, so read-only.
func (o Options) appTrace(app string, node int) func() (trace.Trace, error) {
	return func() (trace.Trace, error) {
		spec, err := workload.ByName(app)
		if err != nil {
			return nil, err
		}
		if err := spec.CheckScale(o.scale()); err != nil {
			return nil, err
		}
		return spec.GenerateCached(workload.Config{
			Node:     units.NodeID(node),
			FirstPID: units.ProcID(1 + node*workload.ProcsPerNode),
			Seed:     o.Seed + int64(node)*7919,
			Scale:    o.scale(),
		}), nil
	}
}

// supplied is the trace source of a cell whose trace already exists.
func supplied(tr trace.Trace) func() (trace.Trace, error) {
	return func() (trace.Trace, error) { return tr, nil }
}

// runCells runs every cell on the worker pool — the runs are
// independent simulations — and returns the results in cell order.
// It resolves every cell's trace first and then runs the cells of one
// trace one after another, so sim's memo of prepared traces (the last
// 8) serves all but the first run of each trace, whichever loop a
// sweep nests innermost. The order of execution changes no result.
func (o Options) runCells(cells []cell) ([]sim.Result, error) {
	trs, err := parallel.Map(len(cells), func(i int) (trace.Trace, error) { return cells[i].trace() })
	if err != nil {
		return nil, err
	}
	order := byTrace(trs)
	rs := make([]sim.Result, len(cells))
	_, err = parallel.Map(len(order), func(j int) (struct{}, error) {
		c := cells[order[j]]
		c.cfg.Recorder = o.recorderFor(c.label)
		res, err := sim.Run(trs[order[j]], c.cfg)
		if err != nil {
			err = fmt.Errorf("%s: %w", c.label, err)
		}
		rs[order[j]] = res
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// byTrace returns the indices of trs with those of one trace (one
// backing array) adjacent, in order within a trace, and the traces in
// order of first appearance.
func byTrace(trs []trace.Trace) []int {
	type ident struct {
		first *trace.Record
		n     int
	}
	group := map[ident]int{}
	var groups [][]int
	for i, tr := range trs {
		id := ident{n: len(tr)}
		if len(tr) > 0 {
			id.first = &tr[0]
		}
		g, ok := group[id]
		if !ok {
			g = len(groups)
			group[id] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return slices.Concat(groups...)
}

// pop returns the next n results and advances rs past them: a renderer
// consumes its sweep's results front to back.
func pop(rs *[]sim.Result, n int) []sim.Result {
	head := (*rs)[:n]
	*rs = (*rs)[n:]
	return head
}

// nodeAvg is the mean of f over one configuration's per-node runs —
// "all the numbers are averaged over the total number of lookups ...
// on each node" (§6.2) — summed in node order, so the float result
// does not depend on the pool width.
func nodeAvg(perNode []sim.Result, f func(sim.Result) float64) float64 {
	var sum float64
	for _, res := range perNode {
		sum += f(res)
	}
	return sum / float64(len(perNode))
}

// versus is the head-to-head mechanism list of Tables 4-6, the SVM
// pipeline and CompareTrace; a design added here appears in all five.
var versus = []sim.Mechanism{sim.UTLB, sim.Interrupt}

// tag is m's name inside a recorder label.
func tag(m sim.Mechanism) string { return strings.ToLower(m.String()) }

// each formats f of every result, in order.
func each(rs []sim.Result, format string, f func(sim.Result) float64) []string {
	out := make([]string, len(rs))
	for i, res := range rs {
		out[i] = fmt.Sprintf(format, f(res))
	}
	return out
}

// versusNames appends prefix + the name of each mechanism of versus +
// suffix to header: the column heads of a head-to-head table.
func versusNames(header []string, prefix, suffix string) []string {
	for _, m := range versus {
		header = append(header, prefix+m.String()+suffix)
	}
	return header
}

func lookupMicros(res sim.Result) float64 { return res.AvgLookupCost().Micros() }

// table is the experiment set, written once: canonical name, shorthand
// alias (t1-t8, f7-f8; "" = none), what to run, and whether its runs
// generate their traces at half the requested scale — in paper order;
// the ablations extend the paper's own future-work list. Names,
// Canonical, Known, Run and CheckScale all read it.
var table = []struct {
	name, alias string
	run         func(Options) ([]fmt.Stringer, error)
	halves      bool
}{
	{"table1", "t1", one(Table1), false},
	{"table2", "t2", one(Table2), false},
	{"table3", "t3", one(Table3), false},
	{"table4", "t4", one(Table4), false},
	{"table5", "t5", one(Table5), false},
	{"table6", "t6", one(Table6), false},
	{"table7", "t7", one(Table7), false},
	{"table8", "t8", one(Table8), false},
	{"fig7", "f7", one(Fig7), false},
	{"fig8", "f8", func(opts Options) ([]fmt.Stringer, error) {
		miss, cost, err := Fig8(opts)
		return []fmt.Stringer{miss, cost}, err
	}, false},
	{"ablation-policies", "", one(AblationPolicies), false},
	{"ablation-perprocess", "", one(AblationPerProcess), false},
	{"ablation-multiprog", "", one(AblationMultiprog), true},
	{"batchsweep", "", one(BatchSweep), false},
	{"svm-pipeline", "", one(SVMPipeline), false},
	{"chaos", "", one(Chaos), false},
	{"overlap", "", one(Overlap), false},
}

// one adapts an experiment that renders as a single table.
func one(f func(Options) (*stats.Table, error)) func(Options) ([]fmt.Stringer, error) {
	return func(opts Options) ([]fmt.Stringer, error) {
		out, err := f(opts)
		return []fmt.Stringer{out}, err
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

// CheckScale reports whether experiment name, or every experiment when
// name is "all", can generate its traces at o's scale over o's
// applications. One that halves the scale is checked at half of it
// too, over the pair o.Apps names or else all seven (AblationMultiprog
// pairs the two -apps or three fixed pairs): a caller refuses the
// scale up front instead of failing inside the run.
func (o Options) CheckScale(name string) error {
	if err := workload.CheckScale(o.scale(), o.Apps); err != nil {
		return err
	}
	apps := o.Apps
	if len(apps) != 2 {
		apps = nil
	}
	for _, e := range table {
		if e.halves && (name == "all" || Canonical(name) == e.name) {
			return workload.CheckScale(o.scale()/2, apps)
		}
	}
	return nil
}

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
		if _, err := io.WriteString(w, out.String()); err != nil {
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
