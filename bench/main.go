// Command bench is the repository's one benchmark: six workloads that
// drive the simulator and the live translation service from outside,
// through the public functions of internal/*, plus a traced pass that
// times every layer on the same inputs (the layer ledger).
//
// Driver mode — one workload, one JSON result on the last line:
//
//	bash bench/run.sh --workload svc_http_lookup --seed 1998 --seconds 10 --trace 0
//
// Full mode — every workload round-robin, nine repetitions each, a
// result file for -compare:
//
//	bash bench/run.sh -out a.json
//	bash bench/run.sh -trace 1            # adds the layer ledger
//	bash bench/run.sh -compare a.json b.json
//
// Every output is checked; a failed check counts as a failed request
// and the process exits non-zero. See README.md beside this file.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this one workload and print the result as one JSON line (driver mode)")
	seed := fs.Int64("seed", 1998, "seed every input (traces, key streams) derives from")
	seconds := fs.Int("seconds", 0, "driver mode: measure for this long (0 = run_seconds of BENCHMARK.json)")
	traced := fs.Int("trace", 0, "1 = traced pass: spans, layer probes, attribution tables")
	quick := fs.Bool("quick", false, "smoke run: one repetition at tiny op counts")
	out := fs.String("out", "", "write the result file here")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs exactly two result files")
			return 2
		}
		worse, err := runCompare(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	opt := options{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1,
		sz:     defaultSizes,
		out:    *out,
		spans:  tracePath,
	}
	if *quick {
		opt.sz = quickSizes
	} else {
		// The traced pass's timing rounds scale with the budget: 12.5 ms
		// each at the default 10 s, about 16 s for the whole pass.
		opt.sz.probeSlice = opt.budget / 800
	}
	var res *result
	if *workloadName != "" {
		res, err = runDriver(os.Stdout, spec, *workloadName, opt)
	} else {
		res, err = runFull(os.Stdout, spec, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if res.failed() > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d correctness checks failed\n", res.failed())
		return 1
	}
	return 0
}
