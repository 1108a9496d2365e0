// Command utlbsim regenerates the paper's evaluation: every table and
// figure of "UTLB: A Mechanism for Address Translation on Network
// Interfaces" (ASPLOS 1998), driven by synthetic SPLASH-2-like traces.
//
// Usage:
//
//	utlbsim -exp table4           # one experiment at paper scale
//	utlbsim -exp all -scale 0.1   # everything, at a tenth the size
//	utlbsim -list                 # list experiment names
//
// Observability:
//
//	utlbsim -exp t6 -trace-out=run.json -metrics-out=metrics.txt
//
// -trace-out records every simulation event and writes a Chrome
// trace_event JSON file (load in Perfetto / chrome://tracing);
// -metrics-out writes Prometheus-style counters and latency
// histograms; -analyze-out writes the transfer-level latency analysis
// (critical-path breakdown, percentiles, slowest transfers) as JSON.
// All are deterministic for a given run. Recording full paper-scale
// experiments produces very large timelines; combine with -scale for
// interactive use. -cpuprofile/-memprofile capture pprof profiles of
// the simulator itself.
//
// Live server:
//
//	utlbsim serve -addr :8080
//
// serves the same artifacts over HTTP with experiments run on demand:
// /metrics, /api/runs, /api/runs/{slug}/trace, /api/analyze, and
// /debug/pprof/. See internal/serve for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"utlb/internal/experiments"
	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/parallel"
	"utlb/internal/serve"
	"utlb/internal/telemetry"
	"utlb/internal/trace"
	"utlb/internal/xlate"
)

func main() {
	// The serve subcommand has its own flag set; intercept it before
	// the main flag.Parse sees (and rejects) its arguments.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		exp      = flag.String("exp", "all", "experiment to run (see -list; t1-t8/f7-f8 shorthand accepted)")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper size)")
		seed     = flag.Int64("seed", 1998, "random seed for trace generation and policies")
		apps     = flag.String("apps", "", "comma-separated application subset (default: all seven)")
		nodes    = flag.Int("nodes", 1, "cluster nodes to simulate and average over (the paper uses 4)")
		par      = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for experiment execution (1 = sequential; output is identical at any width)")
		list     = flag.Bool("list", false, "list experiment names and exit")
		traceIn  = flag.String("trace", "", "run the UTLB-vs-Intr comparison on a binary trace file instead of an experiment")
		pinLimit = flag.Int("pinlimit", 0, "per-process pinned-page quota for -trace (0 = unlimited)")

		faultSeed = flag.Int64("fault-seed", 0, "fault-injection seed for the chaos experiment (0 = derived from -seed; output is byte-identical at any -parallel width for a fixed seed)")

		traceOut   = flag.String("trace-out", "", "record the event timeline and write Chrome trace_event JSON here")
		metricsOut = flag.String("metrics-out", "", "record events and write Prometheus-style text metrics here")
		analyzeOut = flag.String("analyze-out", "", "record events and write the transfer-level analysis JSON here")
		topK       = flag.Int("topk", 10, "slowest transfers to keep per experiment in -analyze-out")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator here")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile here on exit")
	)
	flag.Parse()
	parallel.SetWorkers(*par)

	if *list {
		for _, name := range experiments.Names {
			fmt.Println(name)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// One collector serves every run of the invocation; each simulation
	// records into its own labelled buffer and the export merges them
	// in label order, independent of -parallel scheduling.
	var col *obs.Collector
	if *traceOut != "" || *metricsOut != "" || *analyzeOut != "" {
		col = obs.NewCollector()
	}

	if err := run(*exp, *traceIn, *scale, *seed, *apps, *nodes, *pinLimit, *faultSeed, col); err != nil {
		fatal(err)
	}

	if col != nil {
		if err := writeObs(col, *traceOut, *metricsOut, *analyzeOut, *topK); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func run(exp, traceIn string, scale float64, seed int64, apps string, nodes, pinLimit int, faultSeed int64, col *obs.Collector) error {
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.ReadBinary(f)
		if err != nil {
			return err
		}
		tbl, err := experiments.CompareTrace(tr, seed, pinLimit, col)
		if err != nil {
			return err
		}
		fmt.Print(tbl.String())
		return nil
	}

	opts := experiments.Options{Scale: scale, Seed: seed, Nodes: nodes, Obs: col, FaultSeed: faultSeed}
	if apps != "" {
		opts.Apps = strings.Split(apps, ",")
	}
	if err := opts.CheckScale(exp); err != nil {
		return fmt.Errorf("bad -scale or -apps: %w", err)
	}
	if exp == "all" {
		return experiments.RunAll(opts, os.Stdout)
	}
	return experiments.Run(exp, opts, os.Stdout)
}

// serveMain runs the live observability server. The xlate-* flags set
// the hosted translation service's geometry; the defaults are
// xlate.DefaultConfig. The telemetry flags configure the live
// telemetry sink (window ring, request sampling, SLO objective)
// behind /api/live/*; -telemetry=false turns the whole layer off,
// restoring the zero-overhead hot path.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("utlbsim serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	def := xlate.DefaultConfig()
	shards := fs.Int("xlate-shards", def.Shards, "translation-service shard count (power of two)")
	entries := fs.Int("xlate-entries", def.Entries, "TLB entries per shard (power of two)")
	ways := fs.Int("xlate-ways", def.Ways, "set associativity per shard (1, 2 or 4)")
	offset := fs.Bool("xlate-offset", def.IndexOffset, "per-process index offsetting in each shard")
	telOn := fs.Bool("telemetry", true, "live telemetry: rolling windows, sampled traces, SLO tracking on /api/live/*")
	telDef := telemetry.DefaultConfig(def.Shards)
	windowMs := fs.Int64("telemetry-window", telDef.WindowNs/1_000_000, "rolling-window width in milliseconds")
	windows := fs.Int("telemetry-windows", telDef.Windows, "rolling windows retained (series span = window x windows)")
	sampleEvery := fs.Int64("sample-every", telDef.SampleEvery, "time and trace one request in N (0 disables request latency and tracing; counts stay exact)")
	sloP99Us := fs.Int64("slo-p99", telDef.SLOTargetNs/1_000, "latency objective: target p99 in microseconds")
	sloBudget := fs.Float64("slo-budget", telDef.SLOBudget, "SLO error budget: fraction of ops allowed over target")
	if err := fs.Parse(args); err != nil {
		return err
	}
	xl, err := xlate.New(xlate.Config{
		Shards: *shards, Entries: *entries, Ways: *ways, IndexOffset: *offset,
	})
	if err != nil {
		return err
	}
	if *telOn {
		cfg := telemetry.DefaultConfig(*shards)
		cfg.WindowNs = *windowMs * 1_000_000
		cfg.Windows = *windows
		cfg.SampleEvery = *sampleEvery
		cfg.SLOTargetNs = *sloP99Us * 1_000
		cfg.SLOBudget = *sloBudget
		sink, err := telemetry.New(cfg, telemetry.WallClock{})
		if err != nil {
			return err
		}
		if err := xl.AttachTelemetry(sink); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "utlbsim: live telemetry on (%d x %d ms windows, 1-in-%d sampling, SLO p99 <= %d us @ %.2g budget)\n",
			cfg.Windows, cfg.WindowNs/1_000_000, cfg.SampleEvery, cfg.SLOTargetNs/1_000, cfg.SLOBudget)
	}
	fmt.Fprintf(os.Stderr, "utlbsim: serving observability on http://%s/ (xlate: %d shards x %d entries, %d-way)\n",
		*addr, *shards, *entries, *ways)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve.ServeUntil(ctx, serve.NewHTTPServer(serve.NewWith(xl).Handler()), ln, drainTimeout)
}

// drainTimeout is how long a SIGINT/SIGTERM waits for in-flight
// requests — an experiment run, a streamed trace export — before the
// process gives up on them.
const drainTimeout = 30 * time.Second

// writeObs exports the collected timeline to the requested files.
func writeObs(col *obs.Collector, traceOut, metricsOut, analyzeOut string, topK int) error {
	runs := col.Runs()
	for _, e := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{traceOut, fmt.Sprintf("%d events (%d runs)", col.Events(), len(runs)),
			func(w io.Writer) error { return obs.WriteChromeTrace(w, runs) }},
		{metricsOut, "metrics",
			func(w io.Writer) error { return obs.WritePrometheus(w, obs.Aggregate(runs)) }},
		{analyzeOut, "analysis",
			func(w io.Writer) error { return analyze.WriteJSON(w, analyze.Analyze(runs, topK)) }},
	} {
		if err := export(e.path, e.what, e.write); err != nil {
			return err
		}
	}
	return nil
}

// export writes one export to path ("" = not requested) and reports
// what it wrote on stderr.
func export(path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "utlbsim: wrote %s to %s\n", what, path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "utlbsim:", err)
	os.Exit(1)
}
